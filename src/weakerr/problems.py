"""Benchmark scalar SDE problems.

A :class:`Problem` bundles the drift b and diffusion sigma of
``dX = b(X) dt + sigma(X) dW`` as derivative jets, which serve the density
algebra and the path steppers alike, and the payoff f as a vectorized
callable, plus, where closed forms exist, the solution u(t, x) of the
backward equation

    du/dt + b du/dx + (1/2) sigma^2 d2u/dx2 = 0,   u(T, .) = f,

the terminal expectation E f(X_T) and the exact marginal law of X_t.

Two affine families cover the closed-form benchmarks; :func:`affine_problem`
builds both from an :class:`AffineModel`:

* mean-reverting family  b(x) = b1*x, sigma constant   (Brownian motion is
  the b1 = 0 case) -- Gaussian marginals, so E f(X_T | X_t = x) for a
  polynomial f is again a polynomial in x with exactly computable
  coefficients;
* proportional family    b(x) = b1*x, sigma(x) = s1*x  -- lognormal
  marginals, where monomial expectations pick up exponential factors.

The hyperbolic-drift benchmark (b = tanh, sigma = c*sqrt(1+x^2), f = cos) has
no closed forms and exercises the Monte Carlo route only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .jets import Jet4


def _require_finite(**params) -> None:
    """Refuse a NaN or infinite parameter (or payoff coefficient), naming it."""
    for key, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{key!r} must be finite")


@dataclass(frozen=True)
class AffineModel:
    """Coefficients of an affine benchmark: b(x) = b1*x, sigma(x) = s0 + s1*x.

    Exactly one of s0, s1 may be nonzero; s1 != 0 requires b of proportional
    form too (lognormal family).
    """

    b1: float
    s0: float
    s1: float

    def __post_init__(self):
        _require_finite(b1=self.b1, s0=self.s0, s1=self.s1)
        if self.s0 != 0.0 and self.s1 != 0.0:
            raise ValueError("diffusion must be either constant or proportional, not mixed")
        if self.s0 == 0.0 and self.s1 == 0.0:
            raise ValueError("diffusion must not vanish identically")


@dataclass(frozen=True)
class Problem:
    """An SDE benchmark: coefficients, payoff, and whatever closed forms exist.

    ``b_jet(x, order=4)`` and ``sigma_jet(x, order=4)`` are the only
    description of the coefficients.  A caller names the highest derivative
    it will read, and the jet holds at least ``min(order, 2) + 1`` slots:
    the steppers ask for order 0 (values) or 1 (b' for Newton and S_h), so
    the tanh jets skip the derivatives that only the densities read; the
    affine jets ignore ``order``.  ``u_jet``, when present, provides four
    derivatives and satisfies the backward PDE.  ``x`` may be a float or a
    numpy array of points, which gives a batch of jets (see
    :mod:`weakerr.jets`); ``f`` accepts either too.  ``u_jet(t, x)`` also
    takes an array of times that broadcasts against ``x``, with the bits of
    one scalar call per (t, x) pair.
    """

    name: str
    x0: float
    horizon: float
    lip_b: float
    b_jet: Callable[..., Jet4]
    sigma_jet: Callable[..., Jet4]
    f: Callable
    u_jet: Optional[Callable[..., Jet4]] = None
    exact_terminal: Optional[Callable[[], float]] = None
    f_poly: Optional[tuple] = None
    affine: Optional[AffineModel] = None

    def __post_init__(self):
        _require_finite(x0=self.x0, horizon=self.horizon)
        if not self.lip_b >= 0:  # NaN too; inf stays allowed
            raise ValueError(f"'lip_b' must be nonnegative, got {self.lip_b!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.affine is not None and self.affine.s1 != 0.0 and self.x0 <= 0:
            raise ValueError("proportional-diffusion problems need x0 > 0")


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

def _powers(value: float, order: int, name: str, source: str, where: str) -> list:
    """value**k for k = 0..order, by float ``**``, naming ``name``, its
    ``source`` and ``where`` it serves if ``**`` overflows (Python's message
    gives only errno's text)."""
    out = []
    for k in range(order + 1):
        try:
            out.append(value**k)
        except OverflowError:
            raise OverflowError(f"{name}**{k} overflows {where} at {name} = {value!r} "
                                f"(from {source})") from None
    return out


def _poly_jet(coeffs, x) -> Jet4:
    """Value and first four derivatives of sum c_j x^j at x (float or array).

    Each power x^e, e = 0..deg, is computed once and serves every (k, j)
    with j - k = e; the sums add ``c_j * j!/(j-k)! * x^(j-k)`` in order of j.
    Powers e >= 2 go through ``np.float_power``, which calls the C library's
    ``pow`` for floats and arrays alike; numpy's array ``**`` takes other
    routes (``x*x`` for squares, vector kernels for cubes) that can round the
    last bit differently, so an array x would no longer match scalar calls.
    Powers 0 and 1 skip ``pow``: C99 Annex F fixes pow(x, 0) = 1 for every
    x, NaN included, and pow(x, 1) = x is exact.  They keep float_power's
    result types (``np.float64`` for a scalar x).
    """
    x1 = np.asarray(x, dtype=float)[()]
    powers = [np.ones(np.shape(x1))[()], x1]
    powers += [np.float_power(x, e) for e in range(2, len(coeffs))]
    out = []
    for k in range(5):
        acc = 0.0
        for j in range(k, len(coeffs)):
            acc += coeffs[j] * math.perm(j, k) * powers[j - k]
        out.append(acc)
    return Jet4(tuple(out))


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

def _ou_transition(b1: float, sigma: float, dt):
    """Mean scale and variance of X_{t+dt} given X_t = x: (e^{b1 dt}, var)."""
    scale = float(np.exp(b1 * dt))
    if b1 == 0.0:
        var = sigma**2 * dt
    else:
        var = float(sigma**2 * np.expm1(2.0 * b1 * dt) / (2.0 * b1))
    return scale, var


def _gaussian_push(coeffs, b1: float, sigma: float) -> Callable[[float], tuple]:
    """tau -> coefficients of q(x) = E p(X_{t+tau} | X_t = x) for dX = b1 X dt + sigma dW.

    Here p = sum c_j x^j and X_{t+tau} = scale*x + Z with Z ~ N(0, var), so
    q gets, for each nonzero c_j and i <= j in order of j then i, the term
    ``c_j*C(j, i) * scale**i * (m * var**e)``: the central moment E Z^(j-i)
    is (j-i-1)!! var^((j-i)/2) for even j - i and ``0.0 * var**0`` for odd.
    The odd terms stay in, so that an overflowed scale (inf * 0) makes their
    coefficient NaN.  The rows (i, c_j*C(j, i), m, e) are tabled here, once
    per problem.
    """
    table = []
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for i in range(j + 1):
            k = j - i
            m, e = (0.0, 0) if k % 2 else (float(math.prod(range(1, k, 2))), k // 2)
            table.append((i, c * math.comb(j, i), m, e))

    def pushed(tau: float) -> tuple:
        scale, var = _ou_transition(b1, sigma, tau)
        out = [0.0] * len(coeffs)
        try:
            for i, cc, m, e in table:
                out[i] += cc * scale**i * (m * var**e)
        except OverflowError:
            # float ** names no operand: redo the powers row by row, so that
            # the first one to overflow raises with its name
            tau = float(tau)
            where = "in the closed-form expectation"
            for i, _, _, e in table:
                _powers(scale, i, "scale", f"e^(b1*tau), b1 = {b1!r}, tau = {tau!r}",
                        where)
                _powers(var, e, "var", f"the transition variance, b1 = {b1!r}, "
                        f"sigma = {sigma!r}, tau = {tau!r}", where)
            raise
        return tuple(out)

    return pushed


def affine_problem(name: str, model: AffineModel, f_poly, x0: float,
                   horizon: float) -> Problem:
    """The affine benchmark of ``model`` with polynomial payoff ``f_poly``.

    Every coefficient and closed form derives from ``model``: with s1 = 0
    the transition law is Gaussian and E f(X_T | X_t = x) is the payoff
    pushed through it; otherwise it is lognormal (x0 > 0 required), and
    E X_T^j given X_t = x equals x^j exp((j*b1 + j(j-1) s1^2/2) (T-t)).
    Either way u stays polynomial in x.
    """
    f_poly = tuple(float(c) for c in f_poly)
    _require_finite(f_poly=f_poly)
    if len(f_poly) > 5:
        raise ValueError("payoff degree above 4 is not representable in a Jet4")
    b1, s0, s1 = model.b1, model.s0, model.s1

    if s1 == 0.0:
        try:
            s0**2  # as _ou_transition squares it
        except OverflowError:
            raise ValueError(f"the closed-form variance sigma^2 is not finite at "
                             f"s0 = {s0!r}") from None

        def sigma_jet(x, order: int = 4) -> Jet4:
            return Jet4.constant(s0)

        pushed = _gaussian_push(f_poly, b1, s0)
    else:
        def sigma_jet(x, order: int = 4) -> Jet4:
            return Jet4((s1 * x, s1, 0.0, 0.0, 0.0))

        try:
            exponents = [j * b1 + 0.5 * j * (j - 1) * s1**2 for j in range(len(f_poly))]
        except OverflowError:
            exponents = [math.inf]
        if not all(math.isfinite(r) for r in exponents):
            raise ValueError(f"the closed-form exponents j*b1 + j(j-1)/2*s1^2 are not "
                             f"finite at b1 = {b1!r}, s1 = {s1!r}")

        def pushed(tau: float) -> tuple:
            try:
                return tuple(c * math.exp(r * tau) for c, r in zip(f_poly, exponents))
            except OverflowError:
                # math.exp says only "math range error": name the exponent
                for j, r in enumerate(exponents):
                    try:
                        math.exp(r * tau)
                    except OverflowError:
                        raise OverflowError(
                            f"exp(r{j}*tau) overflows in the closed-form expectation at "
                            f"r{j}*tau = {float(r * tau)!r} (from r{j} = {j}*b1 + "
                            f"{j * (j - 1) // 2}*s1^2, b1 = {b1!r}, s1 = {s1!r}, "
                            f"tau = {float(tau)!r})") from None
                raise

    def u_jet(t, x) -> Jet4:
        # One scalar push per time node, stacked in t's shape: no array exp
        # touches the time axis, so every node keeps the scalar bits.
        t = np.asarray(t)
        rows = np.array([pushed(horizon - s) for s in t.ravel()])
        return _poly_jet(tuple(col.reshape(t.shape) for col in rows.T), x)

    return Problem(
        name=name,
        x0=float(x0),
        horizon=float(horizon),
        lip_b=abs(b1),
        b_jet=lambda x, order=4: Jet4((b1 * x, b1, 0.0, 0.0, 0.0)),
        sigma_jet=sigma_jet,
        f=lambda x: np.polynomial.polynomial.polyval(x, f_poly),
        u_jet=u_jet,
        exact_terminal=lambda: float(np.polynomial.polynomial.polyval(x0, pushed(horizon))),
        f_poly=f_poly,
        affine=model,
    )


def ou_family_problem(name: str, theta: float, sigma: float, f_poly, x0: float,
                      horizon: float) -> Problem:
    """Mean-reverting benchmark: b(x) = -theta*x, constant sigma, polynomial f.

    theta = 0 gives driftless Brownian motion.
    """
    _require_finite(theta=theta, sigma=sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return affine_problem(name, AffineModel(b1=-float(theta), s0=float(sigma), s1=0.0),
                          f_poly, x0, horizon)


def gbm_family_problem(name: str, mu: float, s: float, f_poly, x0: float,
                       horizon: float) -> Problem:
    """Proportional benchmark: b(x) = mu*x, sigma(x) = s*x, polynomial f."""
    _require_finite(mu=mu, s=s)
    if s <= 0:
        raise ValueError("s must be positive")
    return affine_problem(name, AffineModel(b1=float(mu), s0=0.0, s1=float(s)),
                          f_poly, x0, horizon)


def tanh_problem(name: str = "tanh", c: float = 0.25, x0: float = 0.4,
                 horizon: float = 1.0) -> Problem:
    """Smooth nonlinear benchmark with no closed forms.

    b(x) = tanh(x), sigma(x) = c*sqrt(1+x^2), f(x) = cos(x).  sup|b'| = 1.
    """
    _require_finite(c=c)
    if c <= 0:
        raise ValueError("c must be positive")

    def b_jet(x, order: int = 4) -> Jet4:
        t = np.tanh(x)
        if order < 1:
            return Jet4((t,))
        sech2 = 1.0 - t * t
        if order < 2:
            return Jet4((t, sech2))
        return Jet4((t, sech2, -2.0 * t * sech2))

    def sigma_jet(x, order: int = 4) -> Jet4:
        r = np.sqrt(1.0 + x * x)
        if order < 1:
            return Jet4((c * r,))
        if order < 2:
            return Jet4((c * r, c * x / r))
        return Jet4((c * r, c * x / r, c / r**3))

    return Problem(
        name=name,
        x0=float(x0),
        horizon=float(horizon),
        lip_b=1.0,
        b_jet=b_jet,
        sigma_jet=sigma_jet,
        f=np.cos,
    )


def builtin_problems() -> list:
    """The four desk-scale benchmarks."""
    return [
        ou_family_problem("bm", theta=0.0, sigma=1.0,
                          f_poly=(0.0, 0.0, 0.0, 0.0, 1.0), x0=0.0, horizon=1.0),
        ou_family_problem("ou", theta=1.0, sigma=1.0,
                          f_poly=(0.0, 0.0, 1.0), x0=1.0, horizon=1.0),
        gbm_family_problem("gbm", mu=0.05, s=0.2,
                           f_poly=(0.0, 0.0, 1.0), x0=1.0, horizon=1.0),
        tanh_problem(),
    ]


def get_problem(name: str) -> Problem:
    problems = {p.name: p for p in builtin_problems()}
    if name not in problems:
        raise ValueError(f"unknown problem {name!r}; try one of {', '.join(problems)}")
    return problems[name]


# ---------------------------------------------------------------------------
# closed-form checks and laws
# ---------------------------------------------------------------------------

def kolmogorov_residual(p: Problem, t: float, x: float, dt_step: float) -> float:
    """|du/dt + b du/dx + (1/2) sigma^2 d2u/dx2| at (t, x).

    The time derivative is a second-order finite difference of u_jet values
    with step ``dt_step`` (one-sided at the t = 0 boundary); the spatial
    derivatives come from the jet itself.
    """
    if p.u_jet is None:
        raise ValueError(f"problem {p.name!r} has no closed-form u")
    if not 0.0 <= t < p.horizon:
        raise ValueError("need 0 <= t < horizon")
    if dt_step <= 0 or t + dt_step > p.horizon:
        raise ValueError("need dt_step > 0 and t + dt_step <= horizon")

    def uval(s: float) -> float:
        return p.u_jet(s, x).value()

    if t - dt_step >= 0.0:
        du_dt = (uval(t + dt_step) - uval(t - dt_step)) / (2.0 * dt_step)
    else:
        # one-sided 3-point stencil keeps O(dt^2) accuracy at the boundary
        du_dt = (-3.0 * uval(t) + 4.0 * uval(t + dt_step)
                 - uval(t + 2.0 * dt_step)) / (2.0 * dt_step)

    uj = p.u_jet(t, x)
    bval = p.b_jet(x).value()
    sval = p.sigma_jet(x).value()
    return abs(du_dt + bval * uj.deriv(1) + 0.5 * sval**2 * uj.deriv(2))


def marginal_law(p: Problem, t, z, out=None) -> np.ndarray:
    """Exact law of X_t for the affine benchmarks, as a map of a standard normal.

    ``t`` is a 1-D array of times in [0, T] and ``z`` a 1-D array of
    standard-normal points; the result, written into ``out`` when given, is
    the (len(t), len(z)) grid g(t_i, z_j), where g(t, Z) has the law of X_t.
    With constant diffusion g = m + s*z, m and s the mean and standard
    deviation of X_t; with proportional diffusion g = exp(m + s*z), m and s
    those of log X_t.  At t = 0, s = 0: every point maps to x0.  Each time's
    m and s^2 come from scalar code, since an array ``exp`` over the times
    rounds differently.
    """
    if p.affine is None:
        raise ValueError(f"problem {p.name!r} has no closed-form marginal law")
    t = np.asarray(t)
    if t.ndim != 1:
        raise ValueError(f"t must be a 1-D array of times, got shape {t.shape}")
    if not np.all((0.0 <= t) & (t <= p.horizon)):
        raise ValueError("need 0 <= t <= horizon")
    a = p.affine
    lognormal = a.s1 != 0.0
    if lognormal:
        moments = [(math.log(p.x0) + (a.b1 - 0.5 * a.s1**2) * s, a.s1**2 * s) for s in t]
    else:
        moments = [(p.x0 * scale, var)
                   for scale, var in (_ou_transition(a.b1, a.s0, s) for s in t)]
    m, var = np.array(moments).reshape(-1, 2).T
    out = np.multiply(np.sqrt(var)[:, None], z, out=out)
    np.add(m[:, None], out, out=out)
    if lognormal:
        np.exp(out, out=out)
    return out
