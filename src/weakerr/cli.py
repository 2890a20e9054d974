"""Command-line front end.

One subcommand per experiment: ``oracle`` (noise-free weak error), ``mc``
(Monte Carlo report), ``psi`` (density values on a grid), ``c1`` (leading
constant), ``converge`` (order fit), ``expand`` (first-order expansion
check), and ``richardson`` (extrapolated errors).

Exit codes: 0 success, 2 configuration or precondition error, 3 numerical
failure, 4 IO failure.  Seeded runs are bit-reproducible, emitted files
included.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from .expansion import PSI_NAMES, PsiKind, leading_constant, psi_at
from .jets import InsufficientJetOrder
from .montecarlo import McConfig, estimate_weak_error, richardson
from .moments_oracle import weak_error_exact
from .problems import (Problem, builtin_problems, gbm_family_problem, get_problem,
                       ou_family_problem)
from .rates import TooFewPoints, expansion_check, fit_rate, oracle_report
from .reports import FORMATS, render
from .schemes import KINDS, NoConvergence, SchemeConfig
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SOLVER_ALIASES = {"fp": "fixed_point", "newton": "newton", "affine": "closed_form_affine"}
_DEFAULT_LEVELS = "16,32,64,128,256,512"

_CONFIG_KEYS = ("name", "x0", "horizon", "theta", "sigma", "mu", "s", "f_poly")


def parse_problem_config(text: str) -> Problem:
    """Build a custom affine problem from key = value lines.

    Grammar (one ``key = value`` pair per line, ``#`` comments allowed):
    ``name``, ``x0``, ``horizon``, ``f_poly`` (comma-separated coefficients,
    constant term first), and either ``theta`` with ``sigma`` (drift -theta*x,
    constant diffusion) or ``mu`` with ``s`` (drift mu*x, diffusion s*x).
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()

    name = entries.pop("name", "custom")
    try:
        x0 = float(entries.pop("x0", "1.0"))
        horizon = float(entries.pop("horizon", "1.0"))
        f_poly = tuple(float(c) for c in entries.pop("f_poly", "0, 0, 1").split(","))
        params = {k: float(v) for k, v in entries.items()}
    except ValueError as err:
        raise ValueError(f"config value does not parse as a number: {err}") from None

    if "theta" in params:
        if "mu" in params:
            raise ValueError("config must set either theta or mu, not both")
        if "s" in params:
            raise ValueError("theta-form problems use 'sigma', not 's'")
        return ou_family_problem(name, theta=params["theta"],
                                 sigma=params.get("sigma", 1.0),
                                 f_poly=f_poly, x0=x0, horizon=horizon)
    if "mu" in params:
        if "sigma" in params:
            raise ValueError("mu-form problems use 's', not 'sigma'")
        return gbm_family_problem(name, mu=params["mu"], s=params.get("s", 0.2),
                                  f_poly=f_poly, x0=x0, horizon=horizon)
    raise ValueError("config must set one of theta (mean-reverting) or mu (proportional)")


def _resolve_problem(args) -> Problem:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            return parse_problem_config(fh.read())
    return get_problem(args.problem)


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"levels must be comma-separated integers, got {text!r}") from None


def _write(text: str, path) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _deliver(report, args) -> None:
    fmt = args.format or "json"
    try:
        text = render(report, fmt)
    except ValueError:
        raise ValueError(f"the {args.command} report has no {fmt} form") from None
    _write(text, args.out)


def _cmd_oracle(args, p: Problem) -> None:
    cfg = SchemeConfig(n_steps=args.n_steps, kind=args.scheme)
    we = weak_error_exact(p, cfg)
    _deliver({"problem": p.name, "scheme": cfg.kind, "n_steps": cfg.n_steps,
              "h": p.horizon / cfg.n_steps, "weak_error": we}, args)


def _given(**flags) -> dict:
    """The flags given on the command line; argparse leaves the others None."""
    return {k: v for k, v in flags.items() if v is not None}


def _mc_report(args, p: Problem, levels: tuple):
    """The Monte Carlo report behind ``mc`` and ``richardson --estimator mc``.

    A sampling flag left out keeps the :class:`McConfig` default; a solver
    flag left out is None, which :class:`SchemeConfig` reads as not given.
    """
    mc = McConfig(levels=levels, **_given(n_paths=args.paths, seed=args.seed,
                                          finest_n=args.finest_n,
                                          antithetic=args.antithetic))
    return estimate_weak_error(p, mc, args.scheme, solver=_SOLVER_ALIASES.get(args.solver),
                               fp_tol=args.fp_tol, fp_max_iter=args.fp_max_iter)


def _cmd_mc(args, p: Problem) -> None:
    _deliver(_mc_report(args, p, _parse_levels(args.levels)), args)


def _cmd_psi(args, p: Problem) -> None:
    if args.format not in (None, "csv"):
        raise ValueError("the psi table is emitted as csv only")
    kind = PsiKind(args.kind, h=args.h)
    try:
        nt, nx = (int(tok) for tok in args.grid.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid must look like 20x20, got {args.grid!r}") from None
    if nt < 1 or nx < 1:
        raise ValueError(f"--grid needs at least 1x1 points, got {args.grid!r}")
    ts = np.linspace(0.0, p.horizon * (1 - 1e-3), nt)
    xs = np.linspace(p.x0 - 3.0, p.x0 + 3.0, nx)
    grid = psi_at(p, kind, ts[:, None], xs)
    rows = [(t, x, v) for t, row in zip(ts, grid) for x, v in zip(xs, row)]
    for t, x, v in rows:
        if not math.isfinite(v):
            raise FloatingPointError(f"psi at (t, x) = ({float(t)!r}, {float(x)!r}) "
                                     f"is {float(v)!r}")
    text_rows = [",".join(repr(float(v)) for v in row) for row in rows]
    _write("t,x,psi\n" + "\n".join(text_rows) + "\n", args.out)


def _cmd_c1(args, p: Problem) -> None:
    kind = PsiKind(args.kind, h=args.h)
    _deliver(leading_constant(p, kind, quad_nodes=args.quad_nodes), args)


def _cmd_converge(args, p: Problem) -> None:
    report = oracle_report(p, args.scheme, _parse_levels(args.levels))
    _deliver(fit_rate([(lv.h, lv.estimate) for lv in report.levels]), args)


def _cmd_expand(args, p: Problem) -> None:
    table = expansion_check(p, _parse_levels(args.levels),
                            kind=PsiKind(args.kind, h=args.h), quad_nodes=args.quad_nodes)
    _deliver(table, args)


def _cmd_richardson(args, p: Problem) -> None:
    levels = _parse_levels(args.levels)
    if args.estimator == "oracle":
        given = [flag for flag, dest in args.mc_flags if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"only --estimator mc reads {', '.join(given)}")
        report = oracle_report(p, args.scheme, levels)
    else:
        report = _mc_report(args, p, levels)
    _deliver(richardson(report), args)


def _add_common(sub, scheme: bool = True) -> None:
    names = ", ".join(p.name for p in builtin_problems())
    sub.add_argument("--problem", default="ou", help=f"builtin problem name ({names})")
    sub.add_argument("--config", help="custom problem definition file (overrides --problem)")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--format", choices=FORMATS,
                     help="output format (default json; psi emits csv)")
    if scheme:
        sub.add_argument("--scheme", choices=KINDS, default="implicit")


def _add_mc(sub) -> None:
    """Sampling and solver flags of the subcommands that run :func:`_mc_report`.

    Every flag defaults to None, so that a flag left out can be told from one
    given and keeps the library default: :class:`McConfig` holds the
    sampling defaults, and without ``--solver`` the implicit steps pick
    closed form for affine drifts, fixed point otherwise.
    """
    actions = (
        sub.add_argument("--paths", type=int),
        sub.add_argument("--seed", type=int),
        sub.add_argument("--finest-n", type=int),
        sub.add_argument("--antithetic", action=argparse.BooleanOptionalAction),
        sub.add_argument("--solver", choices=tuple(_SOLVER_ALIASES)),
        sub.add_argument("--fp-tol", type=float),
        sub.add_argument("--fp-max-iter", type=int),
    )
    # (flag, destination) of each, for the refusal of richardson --estimator oracle
    sub.set_defaults(mc_flags=tuple((a.option_strings[0], a.dest) for a in actions))


def _add_density(sub, quad_nodes: bool = True) -> None:
    """The density flags of ``psi``, ``c1`` and ``expand``; the last two integrate it."""
    sub.add_argument("--kind", choices=PSI_NAMES, default="psi_i")
    sub.add_argument("--h", type=float, default=None, help="step size for psi_ih")
    if quad_nodes:
        sub.add_argument("--quad-nodes", type=int, default=64,
                         help="Gauss-Legendre panels in time, of 8 nodes each")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakerr",
        description="Weak-error experiments for explicit and drift-implicit Euler schemes.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("oracle", help="noise-free weak error from the moment oracle")
    _add_common(sub)
    sub.add_argument("--n-steps", type=int, required=True)
    sub.set_defaults(func=_cmd_oracle)

    sub = subs.add_parser("mc", help="Monte Carlo weak-error report on coupled levels")
    _add_common(sub)
    sub.add_argument("--levels", required=True, help="comma-separated grid sizes")
    _add_mc(sub)
    sub.set_defaults(func=_cmd_mc)

    sub = subs.add_parser("psi", help="density values on a (t, x) grid, as CSV")
    _add_common(sub, scheme=False)
    _add_density(sub, quad_nodes=False)
    sub.add_argument("--grid", default="20x20")
    sub.set_defaults(func=_cmd_psi)

    sub = subs.add_parser("c1", help="leading constant E int psi(t, X_t) dt")
    _add_common(sub, scheme=False)
    _add_density(sub)
    sub.set_defaults(func=_cmd_c1)

    sub = subs.add_parser("converge", help="log-log order fit of oracle weak errors")
    _add_common(sub)
    sub.add_argument("--levels", default=_DEFAULT_LEVELS)
    sub.set_defaults(func=_cmd_converge)

    sub = subs.add_parser("expand", help="first-order expansion check: weak_err - h*C1")
    _add_common(sub, scheme=False)
    sub.add_argument("--levels", default=_DEFAULT_LEVELS)
    _add_density(sub)
    sub.set_defaults(func=_cmd_expand)

    sub = subs.add_parser("richardson", help="extrapolated errors on matched level pairs")
    _add_common(sub)
    sub.add_argument("--levels", default=_DEFAULT_LEVELS)
    sub.add_argument("--estimator", choices=("oracle", "mc"), default="oracle")
    _add_mc(sub)
    sub.set_defaults(func=_cmd_richardson)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # What the failure lines name: the subcommand, and its problem once built.
    where = args.command
    try:
        # The exit-3 line below reports a numerical failure; numpy's
        # RuntimeWarnings on the way to it would only repeat it.  The filter
        # is process-wide, so it holds in the Monte Carlo worker threads too.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            p = _resolve_problem(args)
            where = f"{args.command} on problem {p.name!r}"
            args.func(args, p)
    except (NoConvergence, ArithmeticError) as err:
        print(f"weakerr: numerical failure: {where}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TooFewPoints, InsufficientJetOrder) as err:
        print(f"weakerr: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:
        # An oversized grid or node count is a configuration error.
        print(f"weakerr: out of memory: {where}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        path = getattr(err, "filename", None)
        print(f"weakerr: IO failure{f' on {path}' if path else ''}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
