import math

import numpy as np
import pytest

import weakerr as we
from weakerr.moments_oracle import propagate_moments, step_coefficients
from weakerr.schemes import SchemeConfig


def ou_implicit_m2(theta, sigma, x0, horizon, n):
    """Independent closed form: m2 <- (m2 + sigma^2 h) / (1 + theta h)^2."""
    h = horizon / n
    a = 1.0 / (1.0 + theta * h) ** 2
    return a**n * x0**2 + (a * sigma**2 * h) * (1 - a**n) / (1 - a)


class TestStepCoefficients:
    def test_ou_implicit(self, problems):
        alpha, beta, gamma = step_coefficients(
            problems["ou"], SchemeConfig(n_steps=10), 0.1)
        assert alpha == pytest.approx(1 / 1.1, abs=1e-15)
        assert beta == 0.0
        assert gamma == pytest.approx(1 / 1.1, abs=1e-15)

    def test_gbm_explicit(self, problems):
        alpha, beta, gamma = step_coefficients(
            problems["gbm"], SchemeConfig(n_steps=10, kind="explicit"), 0.1)
        assert alpha == pytest.approx(1.005, abs=1e-15)
        assert beta == 0.2
        assert gamma == 0.0

    def test_tanh_rejected(self, problems):
        with pytest.raises(ValueError):
            step_coefficients(problems["tanh"], SchemeConfig(n_steps=10), 0.1)


class TestPropagateMoments:
    @pytest.mark.parametrize("n", [1, 4, 32, 257])
    def test_bm_fourth_moment_is_exact(self, problems, n):
        # sum of independent N(0, h) increments: E X_T^4 = 3 T^2 for every N
        mv = propagate_moments(problems["bm"], SchemeConfig(n_steps=n), order=4)
        assert mv[4] == pytest.approx(3.0, abs=1e-12)
        assert mv[2] == pytest.approx(1.0, abs=1e-13)
        assert mv[1] == pytest.approx(0.0, abs=1e-14)

    def test_ou_two_step_hand_recursion(self, problems):
        # two steps of m2 <- (m2 + h) / (1 + h)^2 at h = 1/2, by hand
        mv = propagate_moments(problems["ou"], SchemeConfig(n_steps=2), order=2)
        expected = ((1 + 0.5) / 2.25 + 0.5) / 2.25
        assert mv[2] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_ou_matches_independent_recursion(self, problems, n):
        mv = propagate_moments(problems["ou"], SchemeConfig(n_steps=n), order=2)
        assert mv[2] == pytest.approx(ou_implicit_m2(1.0, 1.0, 1.0, 1.0, n), rel=1e-13)

    def test_ou_converges_to_exact_at_rate_one(self, problems):
        p = problems["ou"]
        exact = p.exact_terminal()
        gaps = [abs(propagate_moments(p, SchemeConfig(n_steps=n), order=2)[2] - exact)
                for n in (32, 64, 128, 256)]
        fit = we.fit_rate([(1.0 / n, g) for n, g in zip((32, 64, 128, 256), gaps)])
        assert 0.9 <= fit.slope <= 1.1

    @pytest.mark.parametrize("name", ["bm", "ou", "gbm"])
    @pytest.mark.parametrize("kind", ["explicit", "implicit"])
    def test_moment_vector_invariants(self, problems, name, kind):
        mv = propagate_moments(problems[name], SchemeConfig(n_steps=16, kind=kind),
                               order=8)
        assert mv[0] == 1.0
        assert all(mv[j] >= 0.0 for j in range(0, 9, 2))
        assert mv[2] >= mv[1] ** 2 - 1e-12  # Jensen

    def test_scheme_kinds_differ_but_converge(self, problems):
        p = problems["ou"]
        gaps = []
        for n in (16, 32, 64, 128):
            me = propagate_moments(p, SchemeConfig(n_steps=n, kind="explicit"), 2)[2]
            mi = propagate_moments(p, SchemeConfig(n_steps=n, kind="implicit"), 2)[2]
            gaps.append(abs(me - mi))
        assert gaps[0] > 1e-3  # genuinely different at coarse h
        fit = we.fit_rate([(1.0 / n, g) for n, g in zip((16, 32, 64, 128), gaps)])
        assert fit.slope >= 0.95

    def test_order_validation(self, problems):
        with pytest.raises(ValueError):
            propagate_moments(problems["ou"], SchemeConfig(n_steps=8), order=9)
        with pytest.raises(ValueError):
            propagate_moments(problems["ou"], SchemeConfig(n_steps=8), order=0)

    def test_returns_order_plus_one_moments(self, problems):
        m = propagate_moments(problems["ou"], SchemeConfig(n_steps=8), order=2)
        assert len(m) == 3 and m[0] == 1.0

    def test_overflowing_start_moment_names_x0(self):
        # x0**2 raises OverflowError in float arithmetic; the message names the
        # moment and the parameter, not the C library's errno
        p = we.gbm_family_problem("big", mu=0.05, s=0.2, f_poly=(0, 0, 1), x0=1e200,
                                  horizon=1.0)
        with pytest.raises(OverflowError) as exc:
            propagate_moments(p, SchemeConfig(n_steps=8), order=2)
        assert str(exc.value) == ("x0**2 overflows in the moment recursion at x0 = 1e+200 "
                                  "(from the initial value)")

    @pytest.mark.parametrize("kind,gamma", [("explicit", "1e+100"),
                                            ("implicit", "8.88888888888889e+99")])
    def test_overflowing_step_power_names_its_coefficient(self, kind, gamma):
        # gamma = s0 (explicit) or s0 / (1 + theta h) (implicit); gamma**4
        # enters the fourth moment's row of the transfer matrix
        p = we.ou_family_problem("loud", theta=1.0, sigma=1e100, f_poly=(0, 0, 0, 0, 1),
                                 x0=1.0, horizon=1.0)
        with pytest.raises(OverflowError) as exc:
            propagate_moments(p, SchemeConfig(n_steps=8, kind=kind), order=4)
        assert str(exc.value) == (f"gamma**4 overflows in the moment recursion at "
                                  f"gamma = {gamma} (from s0)")


class TestWeakErrorExact:
    def test_bm_is_zero_to_rounding(self, problems):
        for n in (8, 64, 512):
            we_val = we.weak_error_exact(problems["bm"], SchemeConfig(n_steps=n))
            assert abs(we_val) <= 1e-12

    @pytest.mark.parametrize("name", ["ou", "gbm"])
    def test_halving_property(self, problems, name):
        p = problems[name]
        e64 = we.weak_error_exact(p, SchemeConfig(n_steps=64))
        e128 = we.weak_error_exact(p, SchemeConfig(n_steps=128))
        assert abs(e64 / e128) == pytest.approx(2.0, rel=0.05)

    def test_explicit_weak_error_mirrors_implicit_for_ou(self, problems):
        # for this drift the two schemes' leading constants have opposite sign
        p = problems["ou"]
        ei = we.weak_error_exact(p, SchemeConfig(n_steps=128))
        ee = we.weak_error_exact(p, SchemeConfig(n_steps=128, kind="explicit"))
        assert ei < 0 < ee
        assert abs(ei + ee) <= 0.05 * abs(ei)

    def test_requires_polynomial_payoff(self, problems):
        with pytest.raises(ValueError):
            we.weak_error_exact(problems["tanh"], SchemeConfig(n_steps=16))

    def test_step_guard_propagates(self, problems):
        with pytest.raises(we.StepSizeError):
            we.weak_error_exact(problems["ou"], SchemeConfig(n_steps=1))

    def test_oracle_matches_tiny_monte_carlo(self, problems):
        # coarse cross-check; the tight 4-sigma version is acceptance work
        p = problems["ou"]
        n, paths = 16, 200_000
        from weakerr import rng
        z = rng.gaussian_increments(11, np.arange(paths, dtype=np.uint64), n, 1.0 / n)
        term = we.run_paths(p, SchemeConfig(n_steps=n), z)
        est = float(np.mean(term**2)) - p.exact_terminal()
        stderr = float(np.std(term**2) / math.sqrt(paths))
        oracle = we.weak_error_exact(p, SchemeConfig(n_steps=n))
        assert abs(est - oracle) <= 4 * stderr
