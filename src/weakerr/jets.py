"""Truncated spatial-derivative jets up to order 4.

A :class:`Jet4` stores the value of a scalar function at a fixed point together
with its first derivatives, up to the fourth.  Leibniz products and derivative
shifts of jets reproduce the corresponding operations on the underlying
functions exactly (through the truncation order), so quantities assembled from
b, sigma, u and their derivatives can be evaluated as plain algebra on
derivative tables instead of by symbolic differentiation.

A slot holds a float or a numpy array.  A jet whose slots are arrays of one
shape is a batch of jets, one per point of an array of points; every
operation below acts elementwise, so it gives bit for bit the results of the
scalar jets at each point.  Scalar and array slots mix by broadcasting (a
constant diffusion jet times a batch of payoff jets, say).

A jet holds only its trustworthy derivatives, so its order is its number of
slots less one.  Differentiating drops the value slot; a product has as many
slots as the shorter factor.  Reading a derivative the jet does not hold
raises :class:`InsufficientJetOrder` instead of returning silent garbage.
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
    float or an array of the batch's shape.  ``d`` holds 1 to 5 entries,
    each one trustworthy.
    """

    d: tuple

    def __post_init__(self):
        if not 1 <= len(self.d) <= JET_ORDER + 1:
            raise ValueError(f"Jet4 needs 1 to {JET_ORDER + 1} entries, got {len(self.d)}")

    @property
    def valid_order(self) -> int:
        """The highest derivative the jet holds."""
        return len(self.d) - 1

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
        if k >= len(self.d):
            raise InsufficientJetOrder(
                f"order-{k} entry requested from a jet valid through order {self.valid_order}"
            )
        return self.d[k]


def jet_mul(a: Jet4, b: Jet4, out=None) -> Jet4:
    """Leibniz product, with as many slots as the shorter factor.

    ``result.d[k] = sum_j C(k, j) * a.d[j] * b.d[k-j]``, added left to right
    from 0 as the builtin ``sum`` would, for each k the result holds.

    ``out``, if given, holds one array per slot, shaped like the batch and
    sharing no memory with ``a`` or ``b``.  A slot whose sum is an array is
    then summed into ``out[k]`` instead of a new array, with the same bits.
    """
    d = []
    for k in range(min(len(a.d), len(b.d))):
        acc = 0
        for j in range(k + 1):
            term = _BINOM[k][j] * a.d[j] * b.d[k - j]
            if out is not None and (isinstance(acc, np.ndarray)
                                    or isinstance(term, np.ndarray)):
                acc = np.add(acc, term, out=out[k])
            else:
                acc = acc + term
        d.append(acc)
    return Jet4(tuple(d))


def jet_derive(a: Jet4) -> Jet4:
    """Differentiate once: drop the value slot, one order fewer."""
    if len(a.d) == 1:
        raise InsufficientJetOrder("cannot differentiate a jet with no trustworthy derivatives")
    return Jet4(a.d[1:])
