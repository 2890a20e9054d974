"""Explicit and drift-implicit Euler steppers on the uniform grid t_k = k T / N.

The explicit step is X_{k+1} = X_k + b(X_k) h + sigma(X_k) dW_{k+1}; the
implicit step evaluates the drift at the unknown next state,

    X_{k+1} = X_k + b(X_{k+1}) h + sigma(X_k) dW_{k+1},

and is solved per step either by fixed-point iteration on
F(y) = xi + h b(y) with xi = X_k + sigma(X_k) dW (a contraction with constant
h * sup|b'| < 1), by Newton's method, or in closed form when b is affine.

All steppers accept scalars or numpy arrays of states/increments, so whole
path ensembles advance in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import is_count
from .problems import Problem

KINDS = ("explicit", "implicit")
SOLVERS = ("fixed_point", "newton", "closed_form_affine")

# Reject configs outside h * sup|b'| <= MAX_H_LIP; strictly inside the
# contraction condition h * sup|b'| < 1, it keeps the resolvent 1/(1 - h b')
# in [2/3, 2] and the fixed-point iteration fast.
MAX_H_LIP = 0.5

_SINGULAR_TOL = 1e-12


class StepSizeError(ValueError):
    """The grid violates the step-size guard h * lip_b <= 0.5."""


class NoConvergence(RuntimeError):
    """The implicit solver exhausted its iteration budget."""

    def __init__(self, message, step_index=None, path_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.path_index = path_index


class NonFiniteResidual(NoConvergence, FloatingPointError):
    """The implicit solver cannot converge: its residual is NaN, off the floats."""


class InvalidSolver(ValueError):
    """The requested solver does not apply to this problem."""


class SingularSh(ArithmeticError):
    """1 - h b'(x) is numerically zero, so the resolvent map is singular."""


def level_set(levels) -> tuple:
    """The one level-set rule: nonempty positive integers, as sorted distinct Python ints."""
    levels = tuple(levels)
    if not levels:
        raise ValueError("levels must be nonempty")
    for n in levels:
        if not is_count(n):
            raise ValueError(f"level {n!r} is not a positive integer")
    return tuple(sorted({int(n) for n in levels}))


@dataclass(frozen=True)
class SchemeConfig:
    """Grid size and scheme kind, plus implicit-solver settings, None when not given.

    An implicit config fills in fixed point, fp_tol = 1e-12 and fp_max_iter =
    100.  An explicit config solves no implicit step, so it could only ignore
    a setting: it refuses every one given, defaults included, naming each.
    """

    n_steps: int
    kind: str = "implicit"
    fp_tol: float | None = None
    fp_max_iter: int | None = None
    solver: str | None = None

    def __post_init__(self):
        if not is_count(self.n_steps):
            raise ValueError("n_steps must be a positive integer")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        defaults = {"solver": "fixed_point", "fp_tol": 1e-12, "fp_max_iter": 100}
        if self.kind == "explicit":
            given = [name for name in defaults if getattr(self, name) is not None]
            if given:
                raise ValueError("the explicit scheme solves no implicit step; "
                                 f"got {', '.join(given)}")
            return
        for name, default in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if not 0 < self.fp_tol < math.inf:
            raise ValueError(f"fp_tol must be positive and finite, got {self.fp_tol!r}")
        if not is_count(self.fp_max_iter):
            raise ValueError("fp_max_iter must be a positive integer")


def _worst_index(residual):
    """Position of the largest residual in an ensemble step, None for scalars."""
    return int(np.argmax(residual)) if np.ndim(residual) else None


def _least_passing_steps(p: Problem, bound: float):
    """The least n_steps with (T / n_steps) * lip_b <= 0.5, or None if T / n cannot tell it.

    ``bound`` is T * lip_b / 0.5, finite.
    """
    def passes(n):
        return p.horizon / n * p.lip_b <= MAX_H_LIP

    # The ceiling of the rounded bound is within one of the least n that passes
    # the rounded test (h = T / n, then h * lip_b) while T / n tells n from
    # n +- 1; past 2**53 it cannot, so no candidate is confirmed.
    n = max(1, math.ceil(bound))
    for m in (n - 1, n, n + 1):
        if m >= 1 and passes(m) and (m == 1 or not passes(m - 1)):
            return m
    return None


def _guard_step(p: Problem, h: float) -> float:
    """Validate h * lip_b <= 0.5 and return h."""
    if h * p.lip_b > MAX_H_LIP:
        bound = p.horizon * p.lip_b / MAX_H_LIP
        if math.isinf(bound):
            fix = "no grid passes"
        elif (n := _least_passing_steps(p, bound)) is not None:
            fix = f"raise n_steps to at least {n}"
        else:
            fix = f"raise n_steps above {bound:.3g}"
        raise StepSizeError(f"h * lip_b = {h * p.lip_b:.3g} exceeds {MAX_H_LIP}; {fix}")
    return h


def check_step_size(p: Problem, cfg: SchemeConfig) -> float:
    """Validate h * lip_b <= 0.5 and return h = T / N."""
    return _guard_step(p, p.horizon / cfg.n_steps)


def resolvent_den(b_prime, h: float):
    """1 - h b' from values of b'; raises SingularSh where it is near zero."""
    den = 1.0 - h * b_prime
    if np.minimum.reduce(np.abs(den), axis=None) < _SINGULAR_TOL:
        raise SingularSh(f"1 - h b' within {_SINGULAR_TOL} of zero")
    return den


def resolvent(b_prime, h: float):
    """1 / (1 - h b') from values of b' (a float or an array)."""
    return 1.0 / resolvent_den(b_prime, h)


def explicit_step(p: Problem, h: float, x, dw):
    """One explicit Euler step: x + b(x) h + sigma(x) dw."""
    return x + p.b_jet(x, order=0).value() * h + p.sigma_jet(x, order=0).value() * dw


def implicit_step(p: Problem, cfg: SchemeConfig, h: float, x, dw, start=None):
    """One drift-implicit step; returns (x_next, iterations_used).

    x_next solves y = xi + h b(y) with xi = x + sigma(x) dw, to residual
    |y - xi - h b(y)| <= cfg.fp_tol.  The fixed-point iteration starts from
    the explicit predictor xi unless ``start`` overrides it (the limit is the
    same unique fixed point either way).  A NaN residual raises
    :class:`NonFiniteResidual` at once, tested only after the convergence test.
    """
    _guard_step(p, h)
    xi = x + p.sigma_jet(x, order=0).value() * dw

    if cfg.solver == "closed_form_affine":
        if p.affine is None:
            raise InvalidSolver(f"closed_form_affine needs an affine drift; "
                                f"problem {p.name!r} has none")
        return xi / resolvent_den(p.affine.b1, h), 0

    if cfg.solver == "newton":
        y = xi if start is None else start
        for it in range(cfg.fp_max_iter):
            b = p.b_jet(y, order=1)
            res = y - h * b.value() - xi
            worst = np.maximum.reduce(np.abs(res), axis=None)
            if worst <= cfg.fp_tol:
                return y, it
            if np.isnan(worst):
                raise NonFiniteResidual("newton residual is nan",
                                        path_index=_worst_index(np.abs(res)))
            y = y - res / resolvent_den(b.deriv(1), h)
        raise NoConvergence(
            f"newton solver did not reach {cfg.fp_tol} in {cfg.fp_max_iter} iterations",
            path_index=_worst_index(np.abs(res)))

    # fixed_point: y_{i+1} = xi + h b(y_i); the residual of y_{i+1} equals
    # h |b(y_i) - b(y_{i+1})|, so one drift evaluation per iteration suffices.
    # Rounding is monotone, so h * max|db| <= tol decides as max(h |db|) <= tol
    # would, without forming h |db| until a failure needs its worst path.
    # The convergence tests here and in resolvent_den call the ufunc reductions
    # (axis=None also takes 0-d states) without np.max's Python wrapper.
    y = xi if start is None else start
    by = p.b_jet(y, order=0).value()
    for it in range(cfg.fp_max_iter):
        y_next = xi + h * by
        by_next = p.b_jet(y_next, order=0).value()
        db = np.abs(by_next - by)
        worst = h * np.maximum.reduce(db, axis=None)
        if worst <= cfg.fp_tol:
            return y_next, it + 1
        if np.isnan(worst):
            raise NonFiniteResidual("fixed-point residual is nan", path_index=_worst_index(db))
        y, by = y_next, by_next
    raise NoConvergence(
        f"fixed-point solver did not reach {cfg.fp_tol} in {cfg.fp_max_iter} iterations",
        path_index=_worst_index(h * db))


def iter_paths(p: Problem, cfg: SchemeConfig, increments, start=None):
    """Advance a whole ensemble, yielding its (n_paths,) state after each of its steps.

    Rows of ``increments`` are paths; the shape check and the step-size guard
    run at the call.  Without ``start`` the paths run all N steps from x0, and
    step k reads ``increments[:, k]`` as it runs; any memory order gives the
    same bytes.  ``start=(k0, x)`` continues from the states ``x`` after step
    k0: column j is then step k0 + j, the run must end at or before step N,
    and errors name the step k0 + j, so a run split anywhere gives the bytes
    of the whole.  Arrays and sequences are read as floats, and any other
    object with a ``shape`` as it is (a :mod:`weakerr.montecarlo` level).
    """
    if isinstance(increments, np.ndarray) or not hasattr(increments, "shape"):
        increments = np.asarray(increments, dtype=float)
    shape = increments.shape
    if start is None:
        k0, x = 0, None
        if len(shape) != 2 or shape[1] != cfg.n_steps:
            raise ValueError(f"expected (n_paths, {cfg.n_steps}) increments, got shape {shape}")
    else:
        k0, x = start
        if (len(shape) != 2 or not is_count(k0, 0) or not 0 < shape[1] <= cfg.n_steps - k0
                or np.shape(x) != shape[:1]):
            raise ValueError(f"increments of shape {shape} cannot continue {np.shape(x)} "
                             f"states after step {k0!r}: the run ends at step {cfg.n_steps}")
    h = check_step_size(p, cfg)

    def steps(x):
        for j in range(shape[1]):
            try:
                if cfg.kind == "explicit":
                    x = explicit_step(p, h, x, increments[:, j])
                else:
                    x, _ = implicit_step(p, cfg, h, x, increments[:, j])
            except NoConvergence as err:
                raise type(err)(f"step {k0 + j}: {err}", step_index=k0 + j,
                                path_index=err.path_index) from err
            yield x
    return steps(np.full(shape[0], p.x0) if start is None else x)


def run_paths(p: Problem, cfg: SchemeConfig, increments, start=None):
    """The last states of :func:`iter_paths`, one per row of ``increments``."""
    for x in iter_paths(p, cfg, increments, start):
        pass
    return x


def pathwise_derivative_check(p: Problem, cfg: SchemeConfig, h: float, x, dw,
                              eps: float):
    """Central-difference d(step)/d(dw) against the theoretical value.

    Returns (fd, theory) with theory = S_h(x_next) * sigma(x); the caller
    asserts agreement to O(eps^2) + O(fp_tol / eps).
    """
    if cfg.kind != "implicit":
        raise ValueError("pathwise derivative check applies to the implicit scheme")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x_plus, _ = implicit_step(p, cfg, h, x, dw + eps)
    x_minus, _ = implicit_step(p, cfg, h, x, dw - eps)
    fd = (x_plus - x_minus) / (2.0 * eps)
    x_next, _ = implicit_step(p, cfg, h, x, dw)
    theory = (resolvent(p.b_jet(x_next, order=1).deriv(1), h)
              * p.sigma_jet(x, order=0).value())
    return fd, theory
