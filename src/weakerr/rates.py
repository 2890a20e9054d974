"""Noise-free level reports, convergence-rate fitting and the expansion check.

A weak order of one means |E f(X^N_T) - E f(X_T)| <= C h; measured on a grid
of step sizes this reads as a log-log slope of about one.  Subtracting the
predicted first-order term h * C1 must leave an O(h^2) residual -- slope at
least about two -- which is the central experiment of this artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expansion import PSI_I, LeadingConstant, PsiKind, leading_constant
from .moments_oracle import weak_error_exact
from .montecarlo import LevelEstimate, WeakErrorReport
from .problems import Problem
from .schemes import SchemeConfig, level_set

# Errors at or below double-rounding scale carry no rate information.
NOISE_FLOOR = 1e-14

# Each fitted log-error residual carries rounding of about eps * max|log err|;
# log errors whose RMS spread is within this many of those are flat to
# rounding, and fit_rate reports R^2 = 1 for them, as for equal errors.
_FLAT_ULPS = 64


class TooFewPoints(ValueError):
    """Fewer than three usable points remain after noise-floor exclusion."""


def oracle_report(p: Problem, kind: str, levels) -> WeakErrorReport:
    """Noise-free weak errors on ``level_set(levels)`` from the moment oracle, as a report."""
    ests = tuple(
        LevelEstimate(n_steps=n, h=p.horizon / n,
                      estimate=weak_error_exact(p, SchemeConfig(n_steps=n, kind=kind)),
                      stderr=0.0, source="oracle")
        for n in level_set(levels)
    )
    return WeakErrorReport(problem=p.name, scheme=kind,
                           reference=p.exact_terminal(), reference_source="exact",
                           levels=ests)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log h, log |error|)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple
    n_excluded: int = 0


def fit_rate(points) -> RateFit:
    """Ordinary least squares on log-log pairs (h, |err|).

    Points with |err| below :data:`NOISE_FLOOR` are excluded (and counted);
    at least three usable points at two or more step sizes are required.
    ``r_squared`` lies in [0, 1]; errors flat to rounding give 1, as equal ones do.
    """
    usable = []
    excluded = 0
    for h, err in points:
        if h <= 0:
            raise ValueError("step sizes must be positive")
        if abs(err) < NOISE_FLOOR:
            excluded += 1
        else:
            usable.append((float(h), abs(float(err))))
    if len(usable) < 3:
        raise TooFewPoints(
            f"need at least 3 usable points, got {len(usable)} "
            f"({excluded} below the noise floor)")
    if len({h for h, _ in usable}) < 2:
        raise ValueError(f"a slope needs two distinct step sizes; every h is {usable[0][0]!r}")
    x = np.log([h for h, _ in usable])
    y = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= len(y) * (_FLAT_ULPS * np.finfo(float).eps * np.max(np.abs(y))) ** 2:
        r_squared = 1.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r_squared, points=tuple(usable), n_excluded=excluded)


@dataclass(frozen=True)
class ExpansionRow:
    n_steps: int
    h: float
    weak_err: float
    h_times_c1: float
    second_order_residual: float


@dataclass(frozen=True)
class ExpansionTable:
    """Oracle weak errors against the h * C1 prediction, level by level.

    ``residual_fit`` is None only when every residual sits below the noise
    floor (the driftless benchmark, where both sides vanish identically).
    """

    problem: str
    psi_name: str
    c1: LeadingConstant
    rows: tuple
    residual_fit: Optional[RateFit]


def expansion_check(p: Problem, levels, kind: PsiKind = PSI_I,
                    quad_nodes: int = 64) -> ExpansionTable:
    """Per level: oracle weak error, h * C1 prediction, and their difference.

    Reads the implicit scheme's :func:`oracle_report`; the density defaults to the
    implicit one (substituting the explicit density is the negative control:
    it fails to cancel the first-order term when b != 0).  Residuals that
    are not all below the noise floor but leave fewer than three usable
    points raise :class:`TooFewPoints`.
    """
    c1 = leading_constant(p, kind, quad_nodes=quad_nodes)
    rows = [ExpansionRow(n_steps=lv.n_steps, h=lv.h, weak_err=lv.estimate,
                         h_times_c1=lv.h * c1.value,
                         second_order_residual=lv.estimate - lv.h * c1.value)
            for lv in oracle_report(p, "implicit", levels).levels]
    residuals = [(r.h, r.second_order_residual) for r in rows]
    fit = (None if all(abs(e) < NOISE_FLOOR for _, e in residuals)
           else fit_rate(residuals))
    return ExpansionTable(problem=p.name, psi_name=kind.name, c1=c1,
                          rows=tuple(rows), residual_fit=fit)
