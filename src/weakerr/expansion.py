"""Leading-order weak-error densities and their integrals.

The weak error of an Euler scheme expands as h * E int_0^T psi(t, X_t) dt
+ O(h^2), where psi depends on the scheme.  With u the backward-equation
solution and all derivatives spatial:

* implicit scheme:

    psi_i = 1/2 b d(b du) + 1/4 s^2 D(b du) - 1/2 b^2 Du + 1/8 s^4 d4u
            - 1/4 b d(s^2 Du) - 1/8 s^2 D(s^2 Du),

  writing d for one derivative, D for two, s for sigma;

* explicit scheme (time derivatives already eliminated via the PDE):

    psi_e = 1/2 b^2 Du + 1/2 b s^2 d3u + 1/8 s^4 d4u - 1/2 b d(b du)
            - 1/4 b d(s^2 Du) - 1/4 s^2 D(b du) - 1/8 s^2 D(s^2 Du);

* the h-dependent intermediate density of the implicit analysis, built from
  the resolvent S_h = 1/(1 - h b'):

    psi_ih = 1/2 b d(b du) - 1/2 b^2 Du + 1/4 s^2 S_h^2 b'' du
             + 1/4 b s^2 d3u + 1/8 s^4 d4u + 1/2 b' S_h s^2 Du
             - 1/4 b d(s^2 Du) - 1/8 s^2 D(s^2 Du).

Everything is evaluated as jet algebra on (b, sigma, u) jets.  The exact
algebraic relations between the three densities ship alongside as residual
checks, and the leading constant C1 = E int_0^T psi(t, X_t) dt is computed by
Gauss-Legendre panels in time crossed with Gauss-Hermite in space under the
exact marginal law, which :func:`weakerr.problems.marginal_law` gives as a
map of a standard normal: it takes the Gauss-Hermite points to the nodes,
so this module does not know the problem's family.

The densities accept jets whose slots are arrays (a batch of points, see
:mod:`weakerr.jets`) and then return an array.  :func:`expect_psi` walks
any number of time nodes 64 at a time, so one density call covers the
Gauss-Hermite nodes of 64 time nodes, as a (time, space) grid.  Each time
node's law moments and u coefficients come from scalar code, since an
array ``exp`` over the times rounds differently; the u jet computes each
power of x once for the whole grid.  The grid's nodes, weighted terms and
row sums, and the three Leibniz products of the densities, go into arrays
that each thread keeps from grid to grid (``_Scratch``).  The sums run in the order of a
loop over scalar nodes: one ``np.add.accumulate`` from a zero column adds
each grid row left to right, and one more adds the weighted time nodes in
node order.  Squares go through ``np.float_power`` rather than ``**``:
numpy computes an array ``v**2`` as ``v*v``, which rounds differently from
the C library's ``pow`` that a float ``v**2`` calls, and the batch must
reproduce the scalar values bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counts import is_count
from .jets import Jet4, jet_derive, jet_mul
from .problems import Problem, marginal_law
from .schemes import resolvent

PSI_NAMES = ("psi_i", "psi_e", "psi_ih")

_GH_POINTS = 64
_GL_PER_PANEL = 8

# Probabilists' Gauss-Hermite rule, normalized so weights sum to one:
# sum_i w_i g(z_i) ~ E g(Z), Z ~ N(0, 1).
_GH_Z, _GH_W = np.polynomial.hermite_e.hermegauss(_GH_POINTS)
_GH_W = _GH_W / _GH_W.sum()

_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_PER_PANEL)

# Time nodes per expect_psi grid.  One grid amortises the jet algebra over
# (64, 64) nodes and adds about 0.5 MB to the peak memory of the per-node
# loop; all 1024 nodes of a 128-panel integral at once would add about 11 MB.
_T_CHUNK = 64


@dataclass(frozen=True)
class PsiKind:
    """Which density to evaluate; psi_ih carries its step size h."""

    name: str
    h: Optional[float] = None

    def __post_init__(self):
        if self.name not in PSI_NAMES:
            raise ValueError(f"kind must be one of {PSI_NAMES}, got {self.name!r}")
        if self.name == "psi_ih":
            if self.h is None or not 0 < self.h < math.inf:
                raise ValueError("psi_ih needs an associated finite h > 0")
        elif self.h is not None:
            raise ValueError(f"{self.name} is h-free; do not attach an h")


PSI_I = PsiKind("psi_i")
PSI_E = PsiKind("psi_e")


@dataclass(frozen=True)
class LeadingConstant:
    """C1 = E int_0^T psi(t, X_t) dt with a node-doubling error estimate."""

    value: float
    quad_nodes: int
    abs_err_est: float


def _require_orders(b: Jet4, sigma: Jet4, u: Jet4) -> None:
    # Raise through the jet accessors so the error message names the culprit.
    u.deriv(4)
    b.deriv(2)
    sigma.deriv(2)


def _pieces(b: Jet4, sigma: Jet4, u: Jet4, scratch=None):
    """The composite derivatives shared by all three densities.

    With a ``scratch``, the three Leibniz products are written into its arrays.
    """
    def product(name, x, y):
        return jet_mul(x, y, None if scratch is None else scratch.arrays(name, 5))

    du = jet_derive(u)
    lap_u = jet_derive(du)
    b_du = product("b_du", b, du)
    d_bdu = jet_derive(b_du)
    lap_bdu = jet_derive(d_bdu)
    sig2 = product("sig2", sigma, sigma)
    sig2_lap = product("sig2_lap", sig2, lap_u)
    d_sig2lap = jet_derive(sig2_lap)
    lap_sig2lap = jet_derive(d_sig2lap)
    return du, lap_u, d_bdu, lap_bdu, sig2, d_sig2lap, lap_sig2lap


def eval_psi(kind: PsiKind, b: Jet4, sigma: Jet4, u: Jet4, scratch=None):
    """Evaluate the selected density at one jet point or a batch of them.

    psi_ih takes its step size from ``kind``.  ``scratch`` is the arrays
    :func:`expect_psi` keeps for its grids; the value does not depend on it.
    """
    _require_orders(b, sigma, u)

    _, lap_u, d_bdu, lap_bdu, sig2, d_sig2lap, lap_sig2lap = _pieces(b, sigma, u, scratch)
    bv = b.value()
    s2 = sig2.value()
    lap = lap_u.value()
    d3u = u.deriv(3)
    d4u = u.deriv(4)

    if kind.name == "psi_i":
        return (0.5 * bv * d_bdu.value()
                + 0.25 * s2 * lap_bdu.value()
                - 0.5 * np.float_power(bv, 2) * lap
                + 0.125 * np.float_power(s2, 2) * d4u
                - 0.25 * bv * d_sig2lap.value()
                - 0.125 * s2 * lap_sig2lap.value())

    if kind.name == "psi_e":
        return (0.5 * np.float_power(bv, 2) * lap
                + 0.5 * bv * s2 * d3u
                + 0.125 * np.float_power(s2, 2) * d4u
                - 0.5 * bv * d_bdu.value()
                - 0.25 * bv * d_sig2lap.value()
                - 0.25 * s2 * lap_bdu.value()
                - 0.125 * s2 * lap_sig2lap.value())

    sh = resolvent(b.deriv(1), kind.h)
    return (0.5 * bv * d_bdu.value()
            - 0.5 * np.float_power(bv, 2) * lap
            + 0.25 * s2 * np.float_power(sh, 2) * b.deriv(2) * u.deriv(1)
            + 0.25 * bv * s2 * d3u
            + 0.125 * np.float_power(s2, 2) * d4u
            + 0.5 * b.deriv(1) * sh * s2 * lap
            - 0.25 * bv * d_sig2lap.value()
            - 0.125 * s2 * lap_sig2lap.value())


def eval_psi_i_expanded(b: Jet4, sigma: Jet4, u: Jet4):
    """Independent implementation of the implicit density.

    All six terms are written out through explicit Leibniz formulas in
    (b, b', b'', sigma, sigma', sigma'', du..d4u) with no jet operations, as a
    cross-check on the algebraic route in :func:`eval_psi`.
    """
    _require_orders(b, sigma, u)
    b0, b1, b2 = b.deriv(0), b.deriv(1), b.deriv(2)
    s0, s1, s2 = sigma.deriv(0), sigma.deriv(1), sigma.deriv(2)
    u1, u2, u3, u4 = u.deriv(1), u.deriv(2), u.deriv(3), u.deriv(4)
    v = s0 * s0
    d_bdu = b1 * u1 + b0 * u2
    lap_bdu = b2 * u1 + 2.0 * b1 * u2 + b0 * u3
    d_v = 2.0 * s0 * s1
    lap_v = 2.0 * s1 * s1 + 2.0 * s0 * s2
    d_vlap = d_v * u2 + v * u3
    lap_vlap = lap_v * u2 + 2.0 * d_v * u3 + v * u4
    return (0.5 * b0 * d_bdu
            + 0.25 * v * lap_bdu
            - 0.5 * b0 * b0 * u2
            + 0.125 * v * v * u4
            - 0.25 * b0 * d_vlap
            - 0.125 * v * lap_vlap)


def psi_identity_residual(b: Jet4, sigma: Jet4, u: Jet4):
    """Residual of the algebraic relation tying the two scheme densities:

        psi_i = psi_e - b^2 Du + 1/2 s^2 D(b du) + b d(b du) - 1/2 b s^2 d3u.
    """
    _require_orders(b, sigma, u)
    _, lap_u, d_bdu, lap_bdu, sig2, _, _ = _pieces(b, sigma, u)
    bv = b.value()
    s2 = sig2.value()
    lhs = eval_psi(PSI_I, b, sigma, u)
    rhs = (eval_psi(PSI_E, b, sigma, u)
           - np.float_power(bv, 2) * lap_u.value()
           + 0.5 * s2 * lap_bdu.value()
           + bv * d_bdu.value()
           - 0.5 * bv * s2 * u.deriv(3))
    return abs(lhs - rhs)


def psi_ih_gap(b: Jet4, sigma: Jet4, u: Jet4, h: float):
    """(psi_ih - psi_i, closed form) at one jet point or a batch of them.

    The closed form is 1/4 s^2 (S_h^2 - 1) b'' du + 1/2 b' (S_h - 1) s^2 Du;
    since S_h - 1 = h b' / (1 - h b'), the gap is O(h).
    """
    gap = (eval_psi(PsiKind("psi_ih", h=float(h)), b, sigma, u)
           - eval_psi(PSI_I, b, sigma, u))
    sh = resolvent(b.deriv(1), h)
    s2 = jet_mul(sigma, sigma).value()
    lap = jet_derive(jet_derive(u)).value()
    closed = (0.25 * s2 * (np.float_power(sh, 2) - 1.0) * b.deriv(2) * u.deriv(1)
              + 0.5 * b.deriv(1) * (sh - 1.0) * s2 * lap)
    return gap, closed


# ---------------------------------------------------------------------------
# integration against the exact law of X_t
# ---------------------------------------------------------------------------

def psi_at(p: Problem, kind: PsiKind, t, x, scratch=None):
    """The selected density at (t, x) using the problem's coefficient jets.

    ``x`` may be an array of points, and ``t`` an array of times that
    broadcasts against it; the result is then the array of values.
    ``scratch`` is passed on to :func:`eval_psi`.
    """
    if p.u_jet is None:
        raise ValueError(f"problem {p.name!r} has no closed-form u")
    return eval_psi(kind, p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x), scratch=scratch)


class _Scratch:
    """Grid arrays that :func:`expect_psi` writes into instead of new ones.

    Each name gets its arrays of ``_T_CHUNK`` time rows the first time it is
    asked for, and keeps them; ``rows``, set per grid, cuts them to the
    grid's time nodes.  Every array is written before it is read.
    """

    def __init__(self):
        self.rows = _T_CHUNK
        self._arrays = {}

    def arrays(self, name: str, count: int, cols: int = _GH_POINTS) -> list:
        kept = self._arrays.get(name)
        if kept is None:
            kept = self._arrays[name] = [np.empty((_T_CHUNK, cols)) for _ in range(count)]
        return [a[:self.rows] for a in kept]


# One _Scratch of _T_CHUNK rows per thread, kept for the thread's life (about
# 0.6 MB).  When each grid allocated these arrays afresh, glibc gave the freed
# memory back to the system after every grid and the next grid paged it in
# again: over a thousand minor faults per expand-affine job, unless a large
# block freed earlier (importing scipy.special frees one) had raised glibc's
# trim threshold.
_THREAD = threading.local()


def expect_psi(p: Problem, kind: PsiKind, t) -> np.ndarray:
    """E psi(t, X_t) under the exact marginal law, by Gauss-Hermite.

    ``t`` is a 1-D array of times, of any length (an empty one gives an
    empty result); any other shape is refused.  The times go ``_T_CHUNK``
    at a time onto (times, nodes) grids in this thread's scratch: one
    :func:`marginal_law` call maps the Gauss-Hermite points to a grid's
    nodes and one :func:`psi_at` call evaluates them, so the working memory
    is one grid's, whatever the length.  The result is a new array.
    """
    ts = np.asarray(t)
    if ts.ndim != 1:
        raise ValueError(f"t must be a 1-D array of times, got shape {ts.shape}")
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None:
        scratch = _THREAD.scratch = _Scratch()
    out = np.empty(ts.size)
    for lo in range(0, ts.size, _T_CHUNK):
        chunk = ts[lo:lo + _T_CHUNK]
        scratch.rows = chunk.size
        xs = marginal_law(p, chunk, _GH_Z, out=scratch.arrays("nodes", 1)[0])
        terms, sums = scratch.arrays("terms", 2, cols=1 + _GH_POINTS)
        terms[:, 0] = 0.0
        np.multiply(_GH_W, psi_at(p, kind, chunk[:, None], xs, scratch=scratch),
                    out=terms[:, 1:])
        # Each row is added left to right from 0, as the builtin sum over
        # scalar nodes would; np.sum adds pairwise and would change the bits.
        out[lo:lo + _T_CHUNK] = np.add.accumulate(terms, axis=1, out=sums)[:, -1]
    return out


def _time_integral(p: Problem, kind: PsiKind, panels: int) -> float:
    """Composite Gauss-Legendre integral of E psi(t, X_t) over [0, T].

    All nodes go to one :func:`expect_psi` call, and the weighted values
    are added one by one in node order, from 0.
    """
    width = p.horizon / panels
    ts = (((np.arange(panels) + 0.5) * width)[:, None] + 0.5 * width * _GL_X).ravel()
    terms = np.zeros(1 + ts.size)
    terms[1:] = np.tile(0.5 * width * _GL_W, panels) * expect_psi(p, kind, ts)
    return float(np.add.accumulate(terms)[-1])


def leading_constant(p: Problem, kind: PsiKind, quad_nodes: int = 64) -> LeadingConstant:
    """C1 = E int_0^T psi(t, X_t) dt by quadrature with error control.

    ``quad_nodes`` counts Gauss-Legendre panels in time (8 points each); the
    inner spatial expectation uses 64 Gauss-Hermite nodes.  The error estimate
    is the change under panel doubling.  A problem without a closed-form law
    or u fails at the first grid, with :func:`marginal_law`'s ``ValueError``.
    """
    if not is_count(quad_nodes):
        raise ValueError("quad_nodes must be a positive integer")
    value = _time_integral(p, kind, quad_nodes)
    refined = _time_integral(p, kind, 2 * quad_nodes)
    return LeadingConstant(value=value, quad_nodes=quad_nodes,
                           abs_err_est=abs(refined - value))

