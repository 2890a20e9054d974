"""Exact moment propagation through affine Euler steps.

For the affine benchmarks both scheme kinds reduce to a step of the form

    X_{k+1} = alpha X_k + beta X_k dW + gamma dW,

with dW ~ N(0, h) independent of X_k.  Raising the step to the j-th power and
taking expectations turns a moment vector E X_k^j, j = 0..J, into the next one
through a fixed transfer matrix built from binomial coefficients and the
Gaussian moments E dW^{2m} = (2m-1)!! h^m (odd moments vanish).  The result is
E f(X_T^N) exact to rounding, which makes weak errors measurable with no Monte
Carlo noise.
"""

from __future__ import annotations

import math

from .problems import Problem, _powers
from .schemes import SchemeConfig, check_step_size, resolvent_den

MAX_ORDER = 8


def step_coefficients(p: Problem, cfg: SchemeConfig, h: float) -> tuple:
    """(alpha, beta, gamma) of the affine step for this problem/scheme.

    Explicit: X + b1 X h + (s0 + s1 X) dW.  Implicit: the drift moves to the
    next state, dividing everything by 1 - b1 h.
    """
    if p.affine is None:
        raise ValueError(f"problem {p.name!r} has no affine step; moment oracle unavailable")
    a = p.affine
    if cfg.kind == "explicit":
        return 1.0 + a.b1 * h, a.s1, a.s0
    den = resolvent_den(a.b1, h)
    return 1.0 / den, a.s1 / den, a.s0 / den


def _dw_moments(h: float, kmax: int) -> list:
    """E dW^k for k = 0..kmax, dW ~ N(0, h)."""
    out = [1.0, 0.0]
    for k in range(2, kmax + 1):
        out.append(0.0 if k % 2 else (k - 1) * out[k - 2] * h)
    return out[: kmax + 1]


def _transfer_matrix(alpha, beta, gamma, h, order):
    """T[j][m] so that E X_{k+1}^j = sum_m T[j][m] E X_k^m.

    Writing X_{k+1} = (alpha + beta dW) X + gamma dW and expanding both
    binomials, the dW powers integrate via the Gaussian moment table.
    """
    ew = _dw_moments(h, order)
    where = "in the moment recursion"
    pa = _powers(alpha, order, "alpha", "b1 and h", where)
    pb = _powers(beta, order, "beta", "s1", where)
    pg = _powers(gamma, order, "gamma", "s0", where)
    T = [[0.0] * (order + 1) for _ in range(order + 1)]
    for j in range(order + 1):
        for m in range(j + 1):
            n = j - m
            acc = 0.0
            for pw in range(m + 1):
                coef = math.comb(m, pw) * pa[m - pw] * pb[pw] * pg[n]
                if coef != 0.0:
                    acc += coef * ew[pw + n]
            T[j][m] = math.comb(j, m) * acc
    return T


def propagate_moments(p: Problem, cfg: SchemeConfig, order: int) -> tuple:
    """Exact moments E (X^N_{t_N})^j, j = 0..order, of an affine benchmark.

    Requires order <= 8 and, for weak-error use, a polynomial payoff of degree
    at most ``order``.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    h = check_step_size(p, cfg)
    T = _transfer_matrix(*step_coefficients(p, cfg, h), h, order)
    m = _powers(p.x0, order, "x0", "the initial value", "in the moment recursion")
    for _ in range(cfg.n_steps):
        m = [sum(T[j][i] * m[i] for i in range(j + 1)) for j in range(order + 1)]
    return tuple(m)


def weak_error_exact(p: Problem, cfg: SchemeConfig) -> float:
    """E f(X^N_T) - E f(X_T), both sides exact to rounding.

    Needs the affine moment recursion (polynomial f) and a closed-form
    terminal expectation.
    """
    if p.f_poly is None:
        raise ValueError(f"problem {p.name!r} has no polynomial payoff")
    if p.exact_terminal is None:
        raise ValueError(f"problem {p.name!r} has no exact terminal expectation")
    degree = len(p.f_poly) - 1
    while degree > 0 and p.f_poly[degree] == 0.0:
        degree -= 1
    m = propagate_moments(p, cfg, max(degree, 1))
    scheme_value = sum(c * m[j] for j, c in enumerate(p.f_poly[: degree + 1]))
    return scheme_value - p.exact_terminal()
