"""Seeded Monte Carlo weak-error estimation with coupled grids.

All grid levels of one run consume the same fine Brownian increments
(coarse increments are sums of consecutive fine ones), so level estimates are
strongly correlated and their differences -- the quantities Richardson
extrapolation feeds on -- carry far less variance than independent runs
would.  Streams are counter-based (see :mod:`weakerr.rng`): a report is a
bitwise-deterministic function of (problem, McConfig, scheme settings),
independent of batch execution order or worker count.

Each batch draws its fine increments step-major (Fortran order) from
:func:`weakerr.rng.gaussian_increments` in windows of W fine steps,
W = min(finest_n, max(finest_n // coarsest level, 64)): a whole number of
steps of every level.  Every level and sign, in ascending level order (+dW
before -dW), continues its paths through one window; then the window is
dropped and the next one drawn.  So a batch holds one window, one state per
level and sign, and one column of the level it steps, not its whole draw.
A window reaches :func:`run_paths` as a reader over the intact window
(:class:`_Level`): step k reads the window's own column when the level is
the draw, and otherwise the sum of its group of m fine columns, formed as
the step runs into one kept column, in the order of numpy's path-major
``fine.reshape(rows, n, m).sum(axis=2)``, written out in
:func:`_pairwise_sum`, so every coarse increment keeps its bits; on -dW the
column is negated.  Each Philox word depends on (seed, path, step) alone and
each fixed-point step still iterates to the batch's worst path, so the
windows give the bits of one whole draw.  A level and sign takes its
payoffs when it ends, and fails at its first step whose states are not all
finite or whose solver fails.  Only the last states of a window are
checked; a window that failed, still held, is stepped again from the states
it began with to find that step, so nothing is drawn again.  A failure
names the first failed level and sign, in that order, with its first path
and its step.  Elementwise arithmetic does not depend on memory order, so
the layout cannot change a result (the tests pin the same bytes for
C-ordered, Fortran-ordered and strided increments).

For problems with a closed-form E f(X_T) the reference is exact; otherwise a
fine-grid surrogate 2 E f(X^{2M}) - E f(X^{M}) with M = finest_n / 2 is used,
whose own bias is O(h_fine^2) after the Richardson correction.  Each level's
config and step size, then an exact one, are settled before the first draw.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .counts import is_count, is_uint64
from .problems import Problem
from .schemes import (NoConvergence, SchemeConfig, check_step_size, iter_paths,
                      level_set, run_paths)

SOURCES = ("mc", "oracle")
REFERENCE_SOURCES = ("exact", "surrogate")

_BATCH = 1 << 14
# A batch draws its fine grid this many steps at a time, or a whole step of
# its coarsest level when that is longer, and every level steps through one
# window before the next is drawn.
_WINDOW_STEPS = 64
# Surrogate references need finest_n >= SURROGATE_MARGIN * the largest
# level, so that the fine grid is well separated from the levels it judges.
SURROGATE_MARGIN = 8


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: coupled grid levels, path count, seed and finest grid.

    Levels are stored as ``level_set(levels)``; ``finest_n=None`` derives the
    finest grid from the largest level, which must then be a power of two.
    """

    levels: tuple
    n_paths: int = 1_000_000
    seed: int = 0
    finest_n: Optional[int] = None
    antithetic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "levels", level_set(self.levels))
        if not is_count(self.n_paths, 100):
            raise ValueError("n_paths must be an integer of at least 100")
        if not is_uint64(self.seed):
            raise ValueError("seed must be an integer that fits in 64 unsigned bits")
        if self.finest_n is None:
            top, name = self.levels[-1], f"the largest level {self.levels[-1]}"
        else:
            top, name = self.finest_n, f"finest_n = {self.finest_n}"
        if not is_count(top) or top & (top - 1):
            raise ValueError(f"{name} must be a positive power of two")
        for n in self.levels:
            if top % n:
                raise ValueError(f"level {n} does not divide {name}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")


@dataclass(frozen=True)
class LevelEstimate:
    """Weak-error estimate of one grid level."""

    n_steps: int
    h: float
    estimate: float
    stderr: float
    source: str

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.source != "mc" and self.stderr != 0.0:
            raise ValueError(f"{self.source} estimates are noise-free; stderr must be 0")


@dataclass(frozen=True)
class WeakErrorReport:
    """Per-level weak-error estimates against a common reference.

    ``covariance`` (when present) is the sampling-unit covariance matrix of
    the per-level error variables, in level order; it feeds the Richardson
    stderr and is not part of the serialized schema.
    """

    problem: str
    scheme: str
    reference: float
    reference_source: str
    levels: tuple
    covariance: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    n_units: int = 0

    def __post_init__(self):
        if self.reference_source not in REFERENCE_SOURCES:
            raise ValueError(f"reference_source must be one of {REFERENCE_SOURCES}")
        if self.covariance is not None and self.n_units < 2:
            raise ValueError("a covariance needs n_units >= 2 sampling units")


@dataclass(frozen=True)
class RichardsonPoint:
    """Extrapolated error 2 E_{h/2} - E_h at coarse step h."""

    h: float
    extrapolated_error: float
    stderr: float


class _Level:
    """Level ``n_steps`` of a step-major fine draw or window, on -dW with
    ``negate``, read a step at a time: ``level[:, k]`` sums fine columns
    k*m .. k*m + m - 1 into one kept column in the order of numpy's
    ``fine.reshape(rows, n_steps, m).sum(axis=2)`` on C-ordered rows
    (:func:`_pairwise_sum`), adds +0.0 as numpy's sum starts from +0.0, then
    applies the sign.  At m = 1 it is the draw's own column, or its negation.
    The draw is never written; each read overwrites the last.
    """

    def __init__(self, fine: np.ndarray, n_steps: int, negate: bool):
        rows, n_fine = fine.shape
        self.shape = (rows, n_steps)
        self.size = rows * n_steps
        self._fine, self._m, self._negate = fine, n_fine // n_steps, negate
        self._col = np.empty(rows)

    def __getitem__(self, index) -> np.ndarray:
        _, k = index  # (slice(None), k), the one read iter_paths makes
        fine, m, col = self._fine, self._m, self._col
        if m == 1:
            return np.negative(fine[:, k], out=col) if self._negate else fine[:, k]
        _pairwise_sum(fine[:, k * m:(k + 1) * m], col)
        col += 0.0
        if self._negate:
            np.negative(col, out=col)
        return col


def _pairwise_sum(cols: np.ndarray, out: np.ndarray):
    """Into ``out``, the sum of the count >= 2 columns of ``cols``, term k ``cols[:, k]``.

    The order is numpy's pairwise summation: a running sum below 8 terms; up
    to 128 terms, eight partial sums r_j = a_j + a_{j+8} + ... combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the count mod 8
    leftover terms in order; above 128, the sums of the halves
    ``cols[:, :half]`` and ``cols[:, half:]``, split at count // 2 rounded
    down to a multiple of 8.  No term is copied: each first add reads it.
    """
    count = cols.shape[1]
    if count > 128:
        half = count // 2 - count // 2 % 8
        _pairwise_sum(cols[:, :half], out)
        rest = np.empty_like(out)
        _pairwise_sum(cols[:, half:], rest)
        out += rest
        return
    if count < 8:
        np.add(cols[:, 0], cols[:, 1], out=out)
        for k in range(2, count):
            out += cols[:, k]
        return
    # r_j is the view of its first term until an add writes it to its own column
    r = [cols[:, j] for j in range(8)]
    own = [out] + [np.empty_like(out) for _ in range(7)]
    tail = count - count % 8
    for i in range(8, tail, 8):
        for j in range(8):
            r[j] = np.add(r[j], cols[:, i + j], out=own[j])
    for j in (0, 2, 4, 6):
        np.add(r[j], r[j + 1], out=own[j])
    own[0] += own[2]
    own[4] += own[6]
    out += own[4]
    for k in range(tail, count):
        out += cols[:, k]


def _first_failure(p: Problem, cfg: SchemeConfig, level: _Level, start: tuple):
    """The first failure of a window whose run failed, stepped again from ``start``.

    Returns (error type, step, path, text): FloatingPointError at the first
    step whose states are not all finite, naming the first such state, or
    the solver's own error, whichever comes first.  The fixed-point
    iteration count depends on the batch, so the whole window is stepped
    again.  No error object is kept: its traceback would hold the window.
    """
    try:
        for k, x in enumerate(iter_paths(p, cfg, level, start), start[0]):
            finite = np.isfinite(x)
            if not finite.all():
                row = int(np.argmin(finite))
                return FloatingPointError, k, row, f"step {k}: its state is {float(x[row])!r}"
    except NoConvergence as err:
        return type(err), err.step_index, err.path_index, str(err)


def _n_workers() -> int:
    """The worker cap from ``WEAKERR_THREADS`` (default 1)."""
    text = os.environ.get("WEAKERR_THREADS", "1")
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"WEAKERR_THREADS must be a positive integer, got {text!r}")
    return n


def estimate_weak_error(p: Problem, mc: McConfig, kind: str, *,
                        solver: Optional[str] = None, **settings) -> WeakErrorReport:
    """Monte Carlo weak errors E f(X^N_T) - reference on all coupled levels.

    ``kind`` selects the scheme; ``solver`` and the :class:`SchemeConfig`
    ``settings`` (``fp_tol``, ``fp_max_iter``) reach every level's config as
    given, but without ``solver`` an implicit scheme steps an affine drift in
    closed form.  With antithetic sampling the statistical unit is the
    (+dW, -dW) pair.  A derived finest grid is the largest level, times
    SURROGATE_MARGIN for a surrogate reference, at most ``rng.STEP_LIMIT``.
    """
    if kind == "implicit" and solver is None and p.affine is not None:
        solver = "closed_form_affine"
    levels = mc.levels
    surrogate = p.exact_terminal is None
    finest_n = mc.finest_n
    if finest_n is None:
        finest_n = SURROGATE_MARGIN * levels[-1] if surrogate else levels[-1]
    elif surrogate and finest_n < SURROGATE_MARGIN * levels[-1]:
        raise ValueError(
            f"surrogate reference needs finest_n >= {SURROGATE_MARGIN} * "
            f"largest level ({SURROGATE_MARGIN * levels[-1]}), got {finest_n}")
    sim_levels = levels + ((finest_n // 2, finest_n) if surrogate else ())

    configs = [SchemeConfig(n_steps=n, kind=kind, solver=solver, **settings) for n in sim_levels]
    if finest_n > rng.STEP_LIMIT:
        raise ValueError(f"finest_n = {finest_n} exceeds the generator's {rng.STEP_LIMIT} steps")
    for cfg in configs:
        check_step_size(p, cfg)
    exact = None if surrogate else p.exact_terminal()
    n_units = mc.n_paths // 2 if mc.antithetic else mc.n_paths
    h_fine = p.horizon / finest_n
    n_report = len(levels)

    window = min(finest_n, max(finest_n // levels[0], _WINDOW_STEPS))
    signs = (False, True) if mc.antithetic else (False,)
    runs = [(j, cfg, negate) for j, cfg in enumerate(configs) for negate in signs]

    def run_batch(batch_index: int):
        lo = batch_index * _BATCH
        hi = min(lo + _BATCH, n_units)
        idx = np.arange(lo, hi, dtype=np.uint64)
        # Each (level, sign) keeps its state from window to window and has its
        # payoff once it ends.  A failed run stops, and so does every run after
        # it in (level, sign) order: only runs[:live] step on, and the first to
        # fail is the one named.  A window whose last states are finite had
        # every state finite: each step adds its terms to the last state
        # (x + sigma(x) dW first), so a state that is not finite stays so, or
        # the solver raises on it.
        states, vals = {}, [None] * len(configs)
        live, failure = len(runs), None
        for w0 in range(0, finest_n, window):
            if not live:
                break
            fine = rng.gaussian_increments(mc.seed, idx, window, h_fine, first_step=w0)
            for i, (j, cfg, negate) in enumerate(runs[:live]):
                m = finest_n // cfg.n_steps
                k0, k1 = w0 // m, (w0 + window) // m
                start = (k0, states.pop(i) if k0 else np.full(hi - lo, p.x0))
                try:
                    x = run_paths(p, cfg, _Level(fine, k1 - k0, negate), start=start)
                    failed = not np.isfinite(x).all()
                except NoConvergence:
                    failed = True
                if failed:
                    failure = _first_failure(p, cfg, _Level(fine, k1 - k0, negate), start)
                    live = i
                    break
                if k1 < cfg.n_steps:
                    states[i] = x
                    continue
                # Each payoff is halved before the sum, so a pair of finite
                # payoffs above half the largest float keeps a finite mean.
                v = np.asarray(p.f(x), dtype=float)
                vals[j] = 0.5 * vals[j] + 0.5 * v if negate else v
            del fine  # the next window is drawn without this one alive

        if failure is not None:
            (_, cfg, negate), (error, step, row, what) = runs[live], failure
            sign = (" on -dW" if negate else " on +dW") if mc.antithetic else ""
            text = f"level {cfg.n_steps}, path {lo + row}{sign}: {what}"
            if issubclass(error, NoConvergence):
                raise error(text, step_index=step, path_index=lo + row)
            raise FloatingPointError(text)
        ref = 2.0 * vals[-1] - vals[-2] if surrogate else exact
        where = "its state is finite at every step" + (" of both passes" if mc.antithetic else "")
        for j, cfg in enumerate(configs):
            finite = np.isfinite(vals[j])
            if not finite.all():
                i = int(np.argmin(finite))  # the batch's first non-finite payoff
                what = "the antithetic pair's mean payoff" if mc.antithetic else "the payoff"
                raise FloatingPointError(f"level {cfg.n_steps}, path {lo + i}: {what} is "
                                         f"{float(vals[j][i])!r}; {where}")
        err_rows = np.stack([v - ref for v in vals[:n_report]])
        return err_rows.sum(axis=1), err_rows @ err_rows.T, float(np.sum(ref))

    n_batches = (n_units + _BATCH - 1) // _BATCH
    workers = min(_n_workers(), n_batches)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_batch, range(n_batches)))
    else:
        partials = [run_batch(i) for i in range(n_batches)]

    sums = np.zeros(n_report)
    prods = np.zeros((n_report, n_report))
    ref_sum = 0.0
    for s, c, r in partials:  # fixed batch order: bitwise deterministic
        sums += s
        prods += c
        ref_sum += r

    n = n_units
    means = sums / n
    cov = (prods - np.outer(sums, sums) / n) / (n - 1)
    # Each batch sums at most _BATCH terms (pairwise, or in BLAS, in any
    # order), then the n_batches partials add in turn, so a level's sum of
    # squares P errs by at most about k*u*P with k = min(n, _BATCH) +
    # n_batches (u = 2**-53), and its sum by k*u*sqrt(n*P) (Cauchy-Schwarz):
    # P - sum**2/n errs by at most about 3*k*u*P.  A variance no larger than
    # that over n - 1 holds none of its own digits; its stderr would be
    # rounding noise, or 0.0 when the rounding came out negative.
    k = min(n, _BATCH) + n_batches
    floor = 1.5 * k * np.finfo(float).eps / (n - 1) * np.diag(prods)
    for j, nl in enumerate(levels):
        if not cov[j, j] > floor[j] and 0.0 < prods[j, j] < np.inf:
            raise FloatingPointError(
                f"level {nl}: the sample variance {float(cov[j, j])!r} is not above its "
                f"rounding bound {float(floor[j])!r} (3*k*u times the sum of squared "
                f"errors over n - 1, n = {n}, k = {k}), so its stderr would be noise")
    reference = ref_sum / n if surrogate else exact
    level_estimates = tuple(
        LevelEstimate(
            n_steps=nl,
            h=p.horizon / nl,
            estimate=float(means[j]),
            stderr=float(np.sqrt(max(cov[j, j], 0.0) / n)),
            source="mc",
        )
        for j, nl in enumerate(levels)
    )
    return WeakErrorReport(
        problem=p.name, scheme=kind, reference=float(reference),
        reference_source="surrogate" if surrogate else "exact",
        levels=level_estimates, covariance=cov, n_units=n,
    )


def richardson(report: WeakErrorReport) -> list:
    """First-order extrapolation on every matched (N, 2N) pair of levels.

    extrapolated_error(h) = 2 * estimate(2N) - estimate(N); the h-expansion
    of the weak error makes this O(h^2).  Standard errors come from the
    report's coupled-level covariance; a report without one must be
    noise-free, and its points get stderr 0.
    """
    order = {lv.n_steps: j for j, lv in enumerate(report.levels)}
    pairs = [(n, 2 * n) for n in sorted(order) if 2 * n in order]
    if not pairs:
        raise ValueError("report has no matched (N, 2N) level pair")
    cov = report.covariance
    if cov is None and any(lv.stderr for lv in report.levels):
        raise ValueError("a sampled report needs its level covariance for error bars")
    out = []
    for n, n2 in pairs:
        a, b = order[n], order[n2]
        la, lb = report.levels[a], report.levels[b]
        extrap = 2.0 * lb.estimate - la.estimate
        var = 0.0
        if cov is not None:
            var = (4.0 * cov[b, b] + cov[a, a] - 4.0 * cov[a, b]) / report.n_units
        stderr = float(np.sqrt(max(var, 0.0)))
        out.append(RichardsonPoint(h=la.h, extrapolated_error=float(extrap),
                                   stderr=stderr))
    return out
