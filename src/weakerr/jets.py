"""Truncated spatial-derivative jets up to order 4.

A :class:`Jet4` stores the value of a scalar function at a fixed point together
with its first four spatial derivatives.  Sums, Leibniz products and derivative
shifts of jets reproduce the corresponding operations on the underlying
functions exactly (through the truncation order), so quantities assembled from
b, sigma, u and their derivatives can be evaluated as plain algebra on
derivative tables instead of by symbolic differentiation.

A slot holds a float or a numpy array.  A jet whose slots are arrays of one
shape is a batch of jets, one per point of an array of points; every
operation below acts elementwise, so it gives bit for bit the results of the
scalar jets at each point.  Scalar and array slots mix by broadcasting (a
constant diffusion jet times a batch of payoff jets, say).

Each jet carries a ``valid_order``: the highest derivative slot that is
trustworthy.  Differentiating shifts entries left and lowers ``valid_order``
by one; binary operations propagate the minimum.  Reading a slot beyond
``valid_order`` raises :class:`InsufficientJetOrder` instead of returning
silent garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JET_ORDER = 4

# _BINOM[k][j] = C(k, j), needed by the Leibniz product rule.
_BINOM = tuple(tuple(math.comb(k, j) for j in range(k + 1)) for k in range(JET_ORDER + 1))


class InsufficientJetOrder(Exception):
    """A jet entry beyond the trustworthy order was requested."""


@dataclass(frozen=True)
class Jet4:
    """Function germ at a point: ``d[k]`` is the k-th spatial derivative.

    ``d[0]`` is the value, ``d[2]`` the Laplacian slot.  Each entry is a
    float or an array of the batch's shape.  Entries above ``valid_order``
    are zero-filled placeholders and must not be read.
    """

    d: tuple
    valid_order: int = JET_ORDER

    def __post_init__(self):
        if len(self.d) != JET_ORDER + 1:
            raise ValueError(f"Jet4 needs {JET_ORDER + 1} entries, got {len(self.d)}")
        if not 0 <= self.valid_order <= JET_ORDER:
            raise ValueError(f"valid_order must be in 0..{JET_ORDER}, got {self.valid_order}")

    @staticmethod
    def constant(c: float) -> "Jet4":
        """Jet of the constant function x -> c (all derivatives known and zero)."""
        return Jet4((float(c), 0.0, 0.0, 0.0, 0.0))

    def value(self):
        return self.d[0]

    def deriv(self, k: int):
        """k-th derivative entry; raises beyond the trustworthy order."""
        if not 0 <= k <= JET_ORDER:
            raise ValueError(f"derivative order must be in 0..{JET_ORDER}, got {k}")
        if k > self.valid_order:
            raise InsufficientJetOrder(
                f"order-{k} entry requested from a jet valid through order {self.valid_order}"
            )
        return self.d[k]

    # Operator sugar keeps the density formulas readable.
    def __add__(self, other):
        if isinstance(other, Jet4):
            return jet_add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Jet4):
            return jet_add(self, -other)
        return NotImplemented

    def __neg__(self):
        return Jet4(tuple(-v for v in self.d), self.valid_order)

    def __mul__(self, other):
        if isinstance(other, Jet4):
            return jet_mul(self, other)
        if isinstance(other, (int, float)):
            return Jet4(tuple(other * v for v in self.d), self.valid_order)
        return NotImplemented

    __rmul__ = __mul__


def _masked(d: tuple, valid_order: int) -> tuple:
    """Zero the placeholder slots above valid_order."""
    if valid_order >= JET_ORDER:
        return d
    return d[: valid_order + 1] + (0.0,) * (JET_ORDER - valid_order)


def jet_add(a: Jet4, b: Jet4) -> Jet4:
    """Componentwise sum; trustworthy through min(valid orders)."""
    order = min(a.valid_order, b.valid_order)
    d = tuple(x + y for x, y in zip(a.d, b.d))
    return Jet4(_masked(d, order), order)


def jet_mul(a: Jet4, b: Jet4, out=None) -> Jet4:
    """Leibniz product, trustworthy through min(valid orders).

    ``result.d[k] = sum_j C(k, j) * a.d[j] * b.d[k-j]``, added left to right
    from 0 as the builtin ``sum`` would, for each k up to that order; the
    slots above it are placeholders and are not computed.

    ``out``, if given, holds one array per slot, shaped like the batch and
    sharing no memory with ``a`` or ``b``.  A slot whose sum is an array is
    then summed into ``out[k]`` instead of a new array, with the same bits.
    """
    order = min(a.valid_order, b.valid_order)
    d = []
    for k in range(order + 1):
        acc = 0
        for j in range(k + 1):
            term = _BINOM[k][j] * a.d[j] * b.d[k - j]
            if out is not None and (isinstance(acc, np.ndarray)
                                    or isinstance(term, np.ndarray)):
                acc = np.add(acc, term, out=out[k])
            else:
                acc = acc + term
        d.append(acc)
    return Jet4(tuple(d) + (0.0,) * (JET_ORDER - order), order)


def jet_derive(a: Jet4) -> Jet4:
    """Differentiate once: left shift, dropping one order of validity.

    The vacated top slot is a zero-filled placeholder, unreadable through
    :meth:`Jet4.deriv` on the result.
    """
    if a.valid_order == 0:
        raise InsufficientJetOrder("cannot differentiate a jet with no trustworthy derivatives")
    order = a.valid_order - 1
    d = a.d[1:] + (0.0,)
    return Jet4(_masked(d, order), order)
