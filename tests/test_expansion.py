import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakerr as we
from weakerr.expansion import (_GH_W, _GH_Z, _GL_W, _GL_X, PSI_E, PSI_I, PsiKind, eval_psi,
                               eval_psi_i_expanded, expect_psi, leading_constant, psi_at,
                               psi_identity_residual, psi_ih_gap)
from weakerr.jets import InsufficientJetOrder, Jet4

entries = st.floats(min_value=-2.0, max_value=2.0)
jets4 = st.builds(lambda v: Jet4(tuple(v)), st.lists(entries, min_size=5, max_size=5))
jets2 = st.builds(lambda v: Jet4(tuple(v)), st.lists(entries, min_size=3, max_size=3))


def psi_i_ou_hand(theta, sigma, horizon, t, x):
    """By hand from the six terms: third/fourth derivatives of u vanish,
    leaving theta * e^{-2 theta (T-t)} * (theta x^2 - sigma^2)."""
    return theta * math.exp(-2 * theta * (horizon - t)) * (theta * x * x - sigma**2)


def psi_i_gbm_hand(mu, s, horizon, t, x):
    """By hand: (mu^2 - s^4/2) x^2 e^{(2 mu + s^2)(T - t)}."""
    return (mu**2 - 0.5 * s**4) * x * x * math.exp((2 * mu + s**2) * (horizon - t))


def c1_ou_hand(theta, sigma, x0, horizon):
    """Time integral of E psi_i(t, X_t) under the exact OU marginal, by hand."""
    e2t = math.exp(-2 * theta * horizon)
    return (theta * horizon * e2t * (theta * x0**2 - sigma**2 / 2)
            - sigma**2 / 4 * (1 - e2t))


def c1_gbm_hand(mu, s, x0, horizon):
    """E psi_i(t, X_t) is constant in t for this family."""
    return horizon * (mu**2 - 0.5 * s**4) * x0**2 * math.exp((2 * mu + s**2) * horizon)


def _term_scale(b, sigma, u):
    """Magnitude of the individual density terms, for relative tolerances."""
    b0, b1, b2 = b.d[0], b.d[1], b.d[2]
    s0, s1, s2 = sigma.d[0], sigma.d[1], sigma.d[2]
    u1, u2, u3, u4 = u.d[1], u.d[2], u.d[3], u.d[4]
    v = s0 * s0
    return 1.0 + sum(abs(t) for t in (
        b0 * (b1 * u1 + b0 * u2),
        v * (b2 * u1 + 2 * b1 * u2 + b0 * u3),
        b0 * b0 * u2,
        v * v * u4,
        b0 * (2 * s0 * s1 * u2 + v * u3),
        v * ((2 * s1**2 + 2 * s0 * s2) * u2 + 4 * s0 * s1 * u3 + v * u4),
    ))


class TestEvalPsiOracles:
    @pytest.mark.parametrize("t,x", [(0.0, 1.0), (0.3, -1.7), (0.85, 2.4)])
    def test_ou_matches_hand_formula(self, problems, t, x):
        p = problems["ou"]
        got = psi_at(p, PSI_I, t, x)
        assert got == pytest.approx(psi_i_ou_hand(1.0, 1.0, 1.0, t, x), rel=1e-12)

    @pytest.mark.parametrize("t,x", [(0.0, 1.0), (0.5, 0.3), (0.9, 1.9)])
    def test_gbm_matches_hand_formula(self, problems, t, x):
        p = problems["gbm"]
        got = psi_at(p, PSI_I, t, x)
        assert got == pytest.approx(psi_i_gbm_hand(0.05, 0.2, 1.0, t, x), rel=1e-12)

    def test_ou_explicit_density_is_mirror(self, problems):
        # psi_e = -psi_i for this drift/payoff pair, by hand
        p = problems["ou"]
        for t, x in [(0.2, 1.4), (0.7, -0.5)]:
            assert psi_at(p, PSI_E, t, x) == pytest.approx(-psi_at(p, PSI_I, t, x),
                                                           rel=1e-12)

    def test_bm_density_vanishes(self, problems):
        p = problems["bm"]
        for t, x in [(0.0, 0.0), (0.4, 1.2), (0.9, -2.5)]:
            assert abs(psi_at(p, PSI_I, t, x)) <= 1e-12

    @given(jets2, jets2, jets4)
    @settings(max_examples=200)
    def test_driftless_schemes_share_one_density(self, b_any, sigma, u):
        # kill the drift: both densities collapse to the shared sigma-only form
        b = Jet4((0.0,) * 5)
        pi = eval_psi(PSI_I, b, sigma, u)
        pe = eval_psi(PSI_E, b, sigma, u)
        s0, s1, s2 = sigma.d[0], sigma.d[1], sigma.d[2]
        v = s0 * s0
        lap_vlap = (2 * s1**2 + 2 * s0 * s2) * u.d[2] + 4 * s0 * s1 * u.d[3] + v * u.d[4]
        direct = 0.125 * v * v * u.d[4] - 0.125 * v * lap_vlap
        scale = _term_scale(b, sigma, u)
        assert abs(pi - pe) <= 1e-13 * scale
        assert abs(pi - direct) <= 1e-12 * scale

    def test_constant_sigma_zero_drift_gives_zero(self):
        b = Jet4((0.0,) * 5)
        sigma = Jet4.constant(1.7)
        u = Jet4((0.3, -1.1, 0.8, 2.0, -0.6))
        assert eval_psi(PSI_I, b, sigma, u) == pytest.approx(0.0, abs=1e-14)


class TestDualImplementation:
    @given(jets2, jets2, jets4)
    @settings(max_examples=500)
    def test_jet_route_equals_expanded_route(self, b, sigma, u):
        a = eval_psi(PSI_I, b, sigma, u)
        bb = eval_psi_i_expanded(b, sigma, u)
        assert abs(a - bb) <= 1e-12 * _term_scale(b, sigma, u)


class TestIdentityResidual:
    @given(jets2, jets2, jets4)
    @settings(max_examples=300)
    def test_relation_holds_on_random_jets(self, b, sigma, u):
        assert psi_identity_residual(b, sigma, u) <= 1e-12 * _term_scale(b, sigma, u)

    def test_zero_drift_is_exact(self):
        b = Jet4((0.0,) * 5)
        sigma = Jet4((1.3, -0.2, 0.4))
        u = Jet4((0.5, 1.0, -2.0, 0.7, 1.1))
        assert psi_identity_residual(b, sigma, u) == 0.0

    def test_zero_u_is_exact(self):
        b = Jet4((0.7, -0.3, 0.2))
        sigma = Jet4((1.3, -0.2, 0.4))
        assert psi_identity_residual(b, sigma, Jet4((0.0,) * 5)) == 0.0


class TestPsiIhGap:
    def test_affine_flat_drift_has_no_gap(self):
        b = Jet4((0.9, 0.0, 0.0, 0.0, 0.0))  # b' = b'' = 0 so S_h = 1
        sigma = Jet4((1.1, 0.3, -0.2))
        u = Jet4((0.2, -0.7, 1.4, 0.8, -1.9))
        gap, closed = psi_ih_gap(b, sigma, u, h=0.1)
        assert gap == pytest.approx(0.0, abs=1e-14)
        assert closed == 0.0

    def test_ou_jets_single_surviving_term(self, problems):
        # b'' = 0, so gap = 1/2 b' (S_h - 1) sigma^2 lap_u, by hand
        p, h, t, x = problems["ou"], 0.05, 0.3, 1.2
        b, sg, u = p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x)
        gap, closed = psi_ih_gap(b, sg, u, h)
        sh = 1.0 / (1.0 + h)
        hand = 0.5 * (-1.0) * (sh - 1.0) * 1.0 * u.deriv(2)
        assert closed == pytest.approx(hand, rel=1e-13)
        assert gap == pytest.approx(hand, rel=1e-12)

    @given(jets2, jets2, jets4, st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=300)
    def test_closed_form_agreement(self, b, sigma, u, h):
        gap, closed = psi_ih_gap(b, sigma, u, h)
        assert abs(gap - closed) <= 1e-12 * _term_scale(b, sigma, u)

    def test_gap_halves_with_h(self, problems):
        p, t, x = problems["ou"], 0.4, 0.8
        b, sg, u = p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x)
        g1, _ = psi_ih_gap(b, sg, u, 0.05)
        g2, _ = psi_ih_gap(b, sg, u, 0.025)
        assert g2 / g1 == pytest.approx(0.5, abs=0.05)

    def test_gap_linear_in_h_against_bound(self, problems):
        p, t, x = problems["ou"], 0.2, 1.0
        b, sg, u = p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x)
        for h in (0.04, 0.02, 0.01):
            gap, _ = psi_ih_gap(b, sg, u, h)
            bound = h * abs(u.deriv(2)) * 2.0  # |b'| = sigma = 1 here
            assert abs(gap) <= bound


class TestPsiKindValidation:
    def test_names(self):
        with pytest.raises(ValueError):
            PsiKind("psi_x")
        with pytest.raises(ValueError):
            PsiKind("psi_i", h=0.1)
        with pytest.raises(ValueError):
            PsiKind("psi_ih")

    def test_insufficient_jet_order(self):
        b = Jet4((0.5, -1.0, 0.0, 0.0, 0.0))
        sigma = Jet4.constant(1.0)
        u3 = Jet4((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(InsufficientJetOrder):
            eval_psi(PSI_I, b, sigma, u3)
        b1 = Jet4((0.5, -1.0))
        with pytest.raises(InsufficientJetOrder):
            eval_psi(PSI_I, b1, sigma, Jet4((1.0,) * 5))

    def test_singular_resolvent(self):
        b = Jet4((0.0, 10.0, 0.0, 0.0, 0.0))
        sigma = Jet4.constant(1.0)
        u = Jet4((1.0, 1.0, 1.0, 0.0, 0.0))
        with pytest.raises(we.SingularSh):
            eval_psi(PsiKind("psi_ih", h=0.1), b, sigma, u)


class TestLeadingConstant:
    def test_ou_matches_hand_integral(self, problems):
        lc = leading_constant(problems["ou"], PSI_I, quad_nodes=32)
        assert lc.value == pytest.approx(c1_ou_hand(1.0, 1.0, 1.0, 1.0), abs=1e-12)
        assert lc.abs_err_est <= 1e-12

    def test_gbm_matches_hand_integral(self, problems):
        lc = leading_constant(problems["gbm"], PSI_I, quad_nodes=32)
        assert lc.value == pytest.approx(c1_gbm_hand(0.05, 0.2, 1.0, 1.0), abs=1e-12)

    def test_bm_vanishes(self, problems):
        assert leading_constant(problems["bm"], PSI_I, quad_nodes=8).value == \
            pytest.approx(0.0, abs=1e-13)

    def test_invariant_under_node_doubling(self, problems):
        for name in ("ou", "gbm"):
            a = leading_constant(problems[name], PSI_I, quad_nodes=64).value
            b = leading_constant(problems[name], PSI_I, quad_nodes=128).value
            assert abs(a - b) <= 1e-8

    def test_error_estimate_shrinks_under_refinement(self, problems):
        coarse = leading_constant(problems["ou"], PSI_I, quad_nodes=1)
        fine = leading_constant(problems["ou"], PSI_I, quad_nodes=4)
        assert coarse.abs_err_est >= 0.0
        assert fine.abs_err_est <= coarse.abs_err_est + 1e-15

    def test_monte_carlo_time_integral_cross_check(self, problems):
        # independent route: T * mean of psi_hand(t_i, X_i), t uniform,
        # X_i from the exact marginal
        p = problems["ou"]
        n = 1_000_000
        rng = np.random.default_rng(2024)
        t = rng.uniform(0.0, 1.0, n)
        mean = p.x0 * np.exp(-t)
        var = (1.0 - np.exp(-2.0 * t)) / 2.0
        x = mean + np.sqrt(var) * rng.standard_normal(n)
        vals = np.exp(-2.0 * (1.0 - t)) * (x * x - 1.0)
        est, stderr = vals.mean(), vals.std() / math.sqrt(n)
        assert abs(est - c1_ou_hand(1.0, 1.0, 1.0, 1.0)) <= 4 * stderr

    def test_gbm_sign_agrees_with_measured_weak_error(self, problems):
        p = problems["gbm"]
        lc = leading_constant(p, PSI_I, quad_nodes=16)
        fine = we.weak_error_exact(p, we.SchemeConfig(n_steps=512))
        assert math.copysign(1.0, lc.value) == math.copysign(1.0, fine / (1.0 / 512))

    def test_preconditions(self, problems):
        with pytest.raises(ValueError):
            leading_constant(problems["tanh"], PSI_I)

    def test_psi_ih_constant_approaches_psi_i_constant(self, problems):
        p = problems["ou"]
        base = leading_constant(p, PSI_I, quad_nodes=16).value
        gaps = [abs(leading_constant(p, PsiKind("psi_ih", h=h), quad_nodes=16).value - base)
                for h in (0.05, 0.025)]
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.1)


class TestRiemannSum:
    def test_expect_psi_dirac_at_time_zero(self, problems):
        p = problems["ou"]
        assert expect_psi(p, PSI_I, [0.0])[0] == pytest.approx(psi_at(p, PSI_I, 0.0, p.x0),
                                                               rel=1e-14)


def _gh_nodes(p, t):
    """The Gauss-Hermite nodes expect_psi places under the law of X_t."""
    return we.marginal_law(p, [t], _GH_Z)[0]


class TestArrayPath:
    """One psi_at call over all Gauss-Hermite nodes equals the scalar calls."""

    KINDS = [PSI_I, PSI_E, PsiKind("psi_ih", h=0.03)]
    # Quartic payoffs put cubes and squares of x into every density term,
    # where numpy's array ``**`` and the C library's pow round differently.
    QUARTIC = {
        "ou4": we.ou_family_problem("ou4", theta=0.7, sigma=0.6,
                                    f_poly=(0.3, -0.2, 0.5, 0.1, 0.05), x0=0.8,
                                    horizon=1.0),
        "gbm4": we.gbm_family_problem("gbm4", mu=0.1, s=0.3,
                                      f_poly=(0.3, -0.2, 0.5, 0.1, 0.05), x0=1.2,
                                      horizon=1.0),
    }

    # leading_constant(p, kind, quad_nodes=64) when it evaluated one scalar
    # jet per node (psi_i), and when it called expect_psi once per scalar
    # time node (psi_e, psi_ih): (value, abs_err_est) as float hex.
    PINNED_C1 = {
        ("ou", "psi_i"): ("-0x1.3020005305ea9p-3", "0x1.8000000000000p-54"),
        ("ou", "psi_e"): ("0x1.3020005305ea8p-3", "0x1.0000000000000p-54"),
        ("ou", "psi_ih"): ("-0x1.16560f3b0ac5ap-3", "0x1.0000000000000p-55"),
        ("gbm", "psi_i"): ("0x1.004e8861b256dp-9", "0x1.b800000000000p-56"),
        ("gbm", "psi_e"): ("-0x1.13272177f061cp-7", "0x1.c000000000000p-56"),
        ("gbm", "psi_ih"): ("0x1.00c27f3df3ebfp-9", "0x1.0000000000000p-56"),
    }

    @pytest.mark.parametrize("name,kind", sorted(PINNED_C1))
    def test_leading_constant_bits_pinned(self, problems, name, kind):
        kinds = {k.name: k for k in self.KINDS}
        lc = leading_constant(problems[name], kinds[kind], quad_nodes=64)
        value, err = self.PINNED_C1[name, kind]
        assert lc.value == float.fromhex(value)
        assert lc.abs_err_est == float.fromhex(err)

    @pytest.mark.parametrize("name", ["bm", "ou", "gbm", "ou4", "gbm4"])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_node_batch_equals_scalar_calls(self, problems, name, kind):
        p = self.QUARTIC.get(name) or problems[name]
        for t in (0.05, 0.5, 0.99):
            xs = _gh_nodes(p, t)
            batch = psi_at(p, kind, t, xs)
            assert batch.shape == xs.shape
            for x, v in zip(xs, batch):
                assert v == psi_at(p, kind, t, float(x))

    @pytest.mark.parametrize("name", ["ou4", "gbm4"])
    def test_gap_and_residual_on_a_batch(self, name):
        p = self.QUARTIC[name]
        t, h = 0.4, 0.03
        xs = _gh_nodes(p, t)
        gap, closed = psi_ih_gap(p.b_jet(xs), p.sigma_jet(xs), p.u_jet(t, xs), h)
        res = psi_identity_residual(p.b_jet(xs), p.sigma_jet(xs), p.u_jet(t, xs))
        for i, x in enumerate(map(float, xs)):
            jets = (p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x))
            assert (gap[i], closed[i]) == psi_ih_gap(*jets, h)
            assert res[i] == psi_identity_residual(*jets)


def _per_node_time_integral(p, kind, panels):
    """The C1 time integral with one scalar time node per psi_at call: the
    body of the quadrature before time nodes were batched."""
    width = p.horizon / panels
    total = 0.0
    for i in range(panels):
        mid = (i + 0.5) * width
        for xi, w in zip(_GL_X, _GL_W):
            t = mid + 0.5 * width * xi
            e = float(sum(_GH_W * psi_at(p, kind, t, _gh_nodes(p, t))))
            total += 0.5 * width * w * e
    return float(total)


class TestTimeBatch:
    """Batching the time nodes of C1 changes no bit of any node or sum."""

    PROBLEMS = {
        **TestArrayPath.QUARTIC,
        "gbm3": we.gbm_family_problem("gbm3", mu=-0.3, s=0.4, f_poly=(0.1, -0.4, 0.3, 0.2),
                                      x0=1.0, horizon=2.5),
    }

    def problem(self, problems, name):
        return self.PROBLEMS.get(name) or problems[name]

    # 64 time nodes go to one expect_psi call; odd panel counts (8 nodes
    # each) leave a partial last chunk.
    @pytest.mark.parametrize("panels", [1, 3, 5, 37, 64])
    @pytest.mark.parametrize("name", ["bm", "ou", "gbm", "ou4", "gbm4", "gbm3"])
    @pytest.mark.parametrize("kind", TestArrayPath.KINDS, ids=lambda k: k.name)
    def test_batched_c1_equals_per_node_loop(self, problems, name, kind, panels):
        p = self.problem(problems, name)
        got = leading_constant(p, kind, quad_nodes=panels).value
        assert got.hex() == _per_node_time_integral(p, kind, panels).hex()

    @pytest.mark.parametrize("name", ["bm", "ou", "gbm", "ou4", "gbm4", "gbm3"])
    def test_u_jet_time_array_equals_scalar_slots(self, problems, name):
        p = self.problem(problems, name)
        ts = np.linspace(0.0, p.horizon, 7)
        xs = _gh_nodes(p, 0.5 * p.horizon)[::8]
        for t, x in ((ts[:, None], xs), (ts, np.linspace(p.x0 - 1.0, p.x0 + 1.0, 7))):
            batch = p.u_jet(t, x)
            assert batch.valid_order == 4
            tt, xx = np.broadcast_arrays(t, x)
            for idx in np.ndindex(tt.shape):
                scalar = p.u_jet(float(tt[idx]), float(xx[idx])).d
                for k in range(5):
                    assert np.broadcast_to(batch.d[k], tt.shape)[idx] == scalar[k]

    @pytest.mark.parametrize("name", ["ou", "gbm3"])
    @pytest.mark.parametrize("kind", TestArrayPath.KINDS, ids=lambda k: k.name)
    def test_expect_psi_time_array_equals_float_calls(self, problems, name, kind):
        p = self.problem(problems, name)
        ts = np.linspace(0.0, p.horizon, 5)
        batch = expect_psi(p, kind, ts)
        assert batch.shape == ts.shape
        for t, v in zip(ts, batch):
            e = expect_psi(p, kind, [t])[0]
            assert e == v
            assert e == float(sum(_GH_W * psi_at(p, kind, t, _gh_nodes(p, t))))


class TestExpectPsiShapes:
    def test_empty_time_array_gives_empty_result(self, problems):
        for name in ("ou", "gbm"):
            got = expect_psi(problems[name], PSI_I, np.array([]))
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 1), (1, 1, 2), (0, 2), ()])
    def test_times_of_two_or_more_dimensions_are_refused(self, problems, shape):
        # a 0-d time is refused too: the result is always an array
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            expect_psi(problems["ou"], PSI_I, np.full(shape, 0.5))


class TestGaussHermiteRowSum:
    """expect_psi's one accumulate per grid adds each row as the loop did."""

    @staticmethod
    def loop_sums(v):
        # the row loop expect_psi ran before the accumulate
        acc = 0
        for j, w in enumerate(_GH_W):
            acc = acc + w * v[:, j]
        return acc

    def test_accumulate_equals_the_loop(self, problems, monkeypatch):
        rng = np.random.default_rng(7)
        v = rng.normal(scale=1e3, size=(9, 64))
        v[0] = -0.0
        v[1, 0] = -0.0
        v[2, :3] = -0.0
        v[3, 5] = np.inf
        v[4, 60] = -np.inf
        v[5, [1, 40]] = [np.inf, -np.inf]
        v[6, 0] = np.nan
        v[7] = 1e308
        monkeypatch.setattr(we.expansion, "psi_at", lambda p, kind, t, x, scratch=None: v)
        with np.errstate(invalid="ignore", over="ignore"):
            got = expect_psi(problems["ou"], PSI_I, np.linspace(0.1, 0.9, 9))
            want = self.loop_sums(v)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert got[0].hex() == "0x0.0p+0"
        assert np.isposinf(got[3]) and np.isneginf(got[4]) and np.isnan(got[5])


class TestScratch:
    """expect_psi's grids reuse one set of arrays per thread, with the bits of
    new arrays, and hand no scratch memory to the caller."""

    def test_results_do_not_share_the_scratch(self, problems):
        p = problems["gbm"]
        first = expect_psi(p, PSI_I, np.linspace(0.1, 0.9, 64))
        kept = first.copy()
        expect_psi(p, PSI_E, np.linspace(0.2, 0.3, 64))
        assert first.tobytes() == kept.tobytes()

    def test_long_time_array_equals_chunks(self, problems):
        # more time nodes than one kept scratch holds, then a short grid
        p = problems["gbm"]
        ts = np.linspace(0.0, 1.0, 150)
        whole = expect_psi(p, PSI_I, ts)
        parts = [expect_psi(p, PSI_I, ts[lo:lo + 64]) for lo in range(0, 150, 64)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        assert expect_psi(p, PSI_I, ts[:3]).tobytes() == whole[:3].tobytes()

    def test_threads_keep_their_own_scratch(self, problems):
        # more threads than cores, switching often, each integrating its own
        # problem and density: every result must equal the serial one
        jobs = [(problems[name], kind) for name in ("ou", "gbm", "bm")
                for kind in (PSI_I, PSI_E)]
        serial = [leading_constant(p, kind, quad_nodes=13) for p, kind in jobs]
        barrier = threading.Barrier(len(jobs), timeout=60)
        results = [None] * len(jobs)

        def run(i):
            barrier.wait()
            results[i] = leading_constant(*jobs[i], quad_nodes=13)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial


def test_expect_psi_working_memory_is_one_grid(problems):
    # 1024 time nodes walk the thread's kept (64, 64) grid arrays 64 rows at
    # a time, so a warm call needs about one grid's temporaries (0.34 MB),
    # not the 13 MB of one (1024, 64) grid
    p = problems["gbm"]
    ts = np.linspace(0.0, 1.0, 1024)
    expect_psi(p, PSI_I, ts)
    tracemalloc.start()
    try:
        expect_psi(p, PSI_I, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


# Minor page faults of expand jobs (ou and gbm, 64 panels: 48 grids of
# 64 x 64 nodes) in a fresh interpreter without scipy.special, after two
# jobs that fill the caches; prints the faults of each of five more jobs.
FAULT_PROBE = """
import resource, sys
import weakerr
from weakerr.expansion import PSI_I
from weakerr.rates import expansion_check
assert "scipy.special" not in sys.modules
problems = [weakerr.get_problem(name) for name in ("ou", "gbm")]

def job():
    for p in problems:
        expansion_check(p, (16, 32, 64, 128, 256, 512), kind=PSI_I, quad_nodes=64)

job(); job()
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    job()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="the fault count follows glibc's heap trimming")
def test_c1_working_memory_stays_resident(tmp_path):
    # glibc gives the top of its heap back to the system once more than
    # 128 KB of it is free; a C1 grid that allocated its ~0.5 MB of
    # temporaries afresh paged them in again every grid, over a thousand
    # faults per job, whenever no large block freed earlier (scipy.special's
    # import frees one) had raised that threshold.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(we.__file__)))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = sorted(int(v) for v in proc.stdout.split())
    assert faults[len(faults) // 2] <= 364, faults
