"""The integer tests shared by every layer, from the generator up.

They live in a leaf module so that ``rng`` can use them without importing the
schemes above it.
"""

from __future__ import annotations

import numbers


def is_count(n, least: int = 1) -> bool:
    """Whether n is an integer >= least; numpy integers pass, floats do not."""
    return isinstance(n, numbers.Integral) and n >= least


def is_uint64(n) -> bool:
    """Whether n is an integer that fits in 64 unsigned bits (a seed or a path index)."""
    return is_count(n, 0) and n < 2**64
