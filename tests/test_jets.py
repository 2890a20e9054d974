import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakerr.jets import JET_ORDER, InsufficientJetOrder, Jet4, jet_derive, jet_mul

entries = st.floats(min_value=-2.0, max_value=2.0)
full_jets = st.builds(lambda v: Jet4(tuple(v)), st.lists(entries, min_size=5, max_size=5))


def jet_x2(x):
    return Jet4((x * x, 2.0 * x, 2.0, 0.0, 0.0))


def jet_x3(x):
    return Jet4((x**3, 3.0 * x * x, 6.0 * x, 6.0, 0.0))


def assert_close_rel(a, b, rel=1e-12):
    scale = max(1.0, abs(a), abs(b))
    assert abs(a - b) <= rel * scale, (a, b)


def slot_sum(a, b):
    """The jet of the sum of two functions: slotwise, as long as the shorter."""
    return Jet4(tuple(x + y for x, y in zip(a.d, b.d)))


class TestMul:
    def test_constant_one_is_identity(self):
        a = Jet4((0.7, 1.1, -0.4, 2.2, 0.9))
        assert jet_mul(a, Jet4.constant(1.0)).d == a.d

    def test_x_squared_at_two(self):
        x = Jet4((2.0, 1.0, 0.0, 0.0, 0.0))
        assert jet_mul(x, x).d == (4.0, 4.0, 2.0, 0.0, 0.0)

    def test_x2_times_x3_is_x5_at_one(self):
        # derivatives of x^5 at x = 1: (1, 5, 20, 60, 120), by hand
        out = jet_mul(jet_x2(1.0), jet_x3(1.0))
        assert out.d == (1.0, 5.0, 20.0, 60.0, 120.0)

    @given(full_jets, full_jets)
    def test_commutative(self, a, b):
        ab, ba = jet_mul(a, b), jet_mul(b, a)
        for u, v in zip(ab.d, ba.d):
            assert_close_rel(u, v)

    @given(full_jets, full_jets, full_jets)
    def test_associative(self, a, b, c):
        left = jet_mul(jet_mul(a, b), c)
        right = jet_mul(a, jet_mul(b, c))
        for u, v in zip(left.d, right.d):
            assert_close_rel(u, v, rel=1e-12 * 64.0)

    @given(full_jets, full_jets, full_jets)
    def test_distributes_over_add(self, a, b, c):
        left = jet_mul(a, slot_sum(b, c))
        right = slot_sum(jet_mul(a, b), jet_mul(a, c))
        for u, v in zip(left.d, right.d):
            assert_close_rel(u, v)


class TestDerive:
    def test_shift_of_x4(self):
        out = jet_derive(Jet4((0.0, 0.0, 0.0, 0.0, 24.0)))
        assert out.d == (0.0, 0.0, 0.0, 24.0)
        assert out.valid_order == 3
        with pytest.raises(InsufficientJetOrder):
            out.deriv(4)

    def test_derive_constant_is_zero(self):
        out = jet_derive(Jet4.constant(5.0))
        assert out.d == (0.0, 0.0, 0.0, 0.0)

    def test_double_derive_x2_at_three(self):
        out = jet_derive(jet_derive(jet_x2(3.0)))
        assert out.value() == 2.0
        assert out.valid_order == 2

    def test_valid_order_zero_cannot_derive(self):
        a = Jet4((1.0,))
        with pytest.raises(InsufficientJetOrder):
            jet_derive(a)

    @given(full_jets, full_jets)
    def test_leibniz_rule(self, a, b):
        # d(ab) = (da) b + a (db), trustworthy through order 3
        left = jet_derive(jet_mul(a, b))
        right = slot_sum(jet_mul(jet_derive(a), b), jet_mul(a, jet_derive(b)))
        assert left.valid_order == right.valid_order == 3
        for k in range(4):
            assert_close_rel(left.deriv(k), right.deriv(k))


class TestValidOrder:
    def test_binary_ops_propagate_minimum(self):
        a = Jet4((1.0, 2.0, 3.0))
        b = Jet4((4.0, 5.0, 6.0, 7.0, 8.0))
        assert jet_mul(a, b).valid_order == jet_mul(b, a).valid_order == 2

    def test_reading_beyond_valid_order_raises(self):
        a = Jet4((1.0, 2.0))
        assert a.deriv(1) == 2.0
        with pytest.raises(InsufficientJetOrder,
                           match="order-2 entry requested from a jet valid through order 1"):
            a.deriv(2)

    def test_product_holds_the_shorter_length(self):
        a = Jet4((1.0, 2.0, 3.0))
        b = Jet4((4.0, 5.0, 6.0, 7.0, 8.0))
        out = jet_mul(a, b)
        assert out.d == (4.0, 13.0, 38.0)
        with pytest.raises(InsufficientJetOrder):
            out.deriv(3)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Jet4(())
        with pytest.raises(ValueError):
            Jet4((0.0,) * 6)
        assert Jet4((1.0, 2.0)).valid_order == 1

    def test_valid_order_is_read_only(self):
        with pytest.raises(AttributeError):
            Jet4((1.0, 2.0)).valid_order = 4

    @given(full_jets, full_jets)
    def test_finite_entries_stay_finite(self, a, b):
        for out in (slot_sum(a, b), jet_mul(a, b), jet_derive(a)):
            assert all(math.isfinite(v) for v in out.d)


class TestPolynomialIdentities:
    @pytest.mark.parametrize("x", [-1.5, 0.0, 0.7, 2.0])
    def test_product_rule_matches_hand_expansion(self, x):
        # p = x^2 + 1, q = 2x^3 - x; p*q = 2x^5 + x^3 - x, derivatives by hand
        p = Jet4((x * x + 1.0, 2.0 * x, 2.0, 0.0, 0.0))
        q = Jet4((2.0 * x**3 - x, 6.0 * x * x - 1.0, 12.0 * x, 12.0, 0.0))
        pq = jet_mul(p, q)
        expected = (
            2 * x**5 + x**3 - x,
            10 * x**4 + 3 * x**2 - 1,
            40 * x**3 + 6 * x,
            120 * x**2 + 6,
            240 * x,
        )
        for got, want in zip(pq.d, expected):
            assert_close_rel(got, want)


def _batch(jets):
    """One jet whose slots are arrays, element i taken from jets[i]."""
    return Jet4(tuple(np.array([j.d[k] for j in jets])
                      for k in range(min(len(j.d) for j in jets))))


def _element(jet, i, n):
    """Element i of a batch of n jets, as a scalar-slot tuple."""
    return tuple(float(np.broadcast_to(v, (n,))[i]) for v in jet.d)


jet_lists = st.lists(st.tuples(full_jets, full_jets), min_size=1, max_size=6)


class TestArraySlots:
    """A jet with array slots is the batch of its per-element scalar jets, bit
    for bit, under every rule."""

    @given(jet_lists)
    def test_add_and_product_rules(self, pairs):
        a, b = _batch([p[0] for p in pairs]), _batch([p[1] for p in pairs])
        for op in (slot_sum, jet_mul):
            out = op(a, b)
            for i, (x, y) in enumerate(pairs):
                assert _element(out, i, len(pairs)) == op(x, y).d

    @given(jet_lists)
    def test_shift_rule(self, pairs):
        a = _batch([p[0] for p in pairs])
        twice = jet_derive(jet_derive(a))
        assert twice.valid_order == 2
        for i, (x, _) in enumerate(pairs):
            assert _element(twice, i, len(pairs)) == jet_derive(jet_derive(x)).d

    @given(jet_lists, entries)
    def test_scalar_slots_broadcast(self, pairs, c):
        # a scalar jet (constant diffusion, say) times a batch
        a = _batch([p[0] for p in pairs])
        out = jet_mul(Jet4.constant(c), a)
        for i, (x, _) in enumerate(pairs):
            assert _element(out, i, len(pairs)) == jet_mul(Jet4.constant(c), x).d

    def test_short_batch_gives_short_product(self):
        a = Jet4((np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        b = _batch([jet_x3(0.5), jet_x3(-1.5)])
        out = jet_mul(a, b)
        assert len(out.d) == 2
        assert np.array_equal(out.deriv(1), [3.0 * 0.125 + 0.75, 4.0 * -3.375 + 2.0 * 6.75])


def _bits(jet):
    return [np.asarray(v, dtype=float).tobytes() for v in jet.d]


class TestProductInto:
    """``jet_mul(a, b, out)`` sums the array slots into ``out``, bit for bit
    as without it, and computes no slot above the valid order."""

    @given(jet_lists)
    def test_same_bits_as_new_arrays(self, pairs):
        a, b = _batch([p[0] for p in pairs]), _batch([p[1] for p in pairs])
        out = [np.full(len(pairs), np.nan) for _ in range(5)]
        got = jet_mul(a, b, out)
        assert _bits(got) == _bits(jet_mul(a, b))
        assert all(got.d[k] is out[k] for k in range(got.valid_order + 1))

    def test_scalar_and_non_finite_slots(self):
        # 0 * inf terms must still make NaN, and all-scalar slots stay scalars
        x = np.array([np.inf, -0.0, 1e308, np.nan])
        a = Jet4((x, 2.0, 0.0, 0.0, 0.0))
        b = Jet4((x, -x, 3.0, 0.0))
        c = Jet4.constant(0.5)
        for lhs, rhs in ((a, b), (b, a), (a, c), (c, a), (c, c)):
            out = [np.empty(4) for _ in range(5)]
            with np.errstate(over="ignore", invalid="ignore"):
                got = jet_mul(lhs, rhs, out)
                want = jet_mul(lhs, rhs)
            assert _bits(got) == _bits(want)
            for g, w in zip(got.d, want.d):
                assert isinstance(g, np.ndarray) == isinstance(w, np.ndarray)

    @pytest.mark.parametrize("order", range(JET_ORDER + 1))
    def test_slots_above_the_shorter_factor_are_not_computed(self, order):
        a = Jet4(tuple(np.arange(1.0, 4.0) + k for k in range(order + 1)))
        b = _batch([jet_x3(0.5), jet_x3(-1.5), jet_x3(2.0)])
        out = [np.full(3, np.nan) for _ in range(5)]
        got = jet_mul(a, b, out)
        assert len(got.d) == order + 1
        for k in range(order + 1, JET_ORDER + 1):
            assert np.isnan(out[k]).all()  # never written
            with pytest.raises(InsufficientJetOrder):
                got.deriv(k)
        assert _bits(got) == _bits(jet_mul(a, b))
