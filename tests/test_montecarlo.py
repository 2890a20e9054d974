import contextlib
import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

import weakerr as we
from weakerr import montecarlo, rng
from weakerr.montecarlo import McConfig, estimate_weak_error, richardson
from weakerr.rates import oracle_report
from weakerr.reports import render
from weakerr.schemes import NoConvergence, NonFiniteResidual, SchemeConfig, iter_paths, run_paths


def _reshape_sum(fine, n_steps):
    """The ``n_steps`` level of ``fine`` by numpy's reshape-sum over C-ordered rows."""
    rows, n_fine = fine.shape
    return np.ascontiguousarray(fine).reshape(rows, n_steps, n_fine // n_steps).sum(axis=2)


def _draw(mc, n_steps):
    """Every sampling unit's ``n_steps`` fine increments of ``mc`` on horizon 1, in one draw."""
    n = mc.n_paths // 2 if mc.antithetic else mc.n_paths
    return rng.gaussian_increments(mc.seed, np.arange(n, dtype=np.uint64), n_steps, 1 / n_steps)


def _batch_failure(p, cfg, fine):
    """The first failure of level ``cfg.n_steps`` of the whole draw ``fine`` on +dW.

    The draw is summed by numpy's reshape-sum and stepped by ``iter_paths``:
    (FloatingPointError, step, row, text) at the first step whose states are
    not all finite, naming its first such row, or the solver's error type,
    step, path and text.
    """
    try:
        with np.errstate(all="ignore"):
            for k, x in enumerate(iter_paths(p, cfg, _reshape_sum(fine, cfg.n_steps))):
                bad = np.flatnonzero(~np.isfinite(x))
                if bad.size:
                    row = int(bad[0])
                    return FloatingPointError, k, row, f"step {k}: its state is {float(x[row])!r}"
    except NoConvergence as err:
        return type(err), err.step_index, err.path_index, str(err)
    raise AssertionError(f"level {cfg.n_steps} does not fail")


def _assert_named(err, n_steps, want, antithetic):
    """``err`` is the failure ``want`` of :func:`_batch_failure`, named for its level."""
    kind, _, row, text = want
    sign = " on +dW" if antithetic else ""
    assert type(err) is kind
    assert str(err) == f"level {n_steps}, path {row}{sign}: {text}"


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=50, seed=0, finest_n=64, levels=(16,))
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, seed=0, finest_n=48, levels=(16,))
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, seed=0, finest_n=64, levels=(24,))
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, seed=0, finest_n=64, levels=())
        with pytest.raises(ValueError):
            McConfig(n_paths=101, seed=0, finest_n=64, levels=(16,), antithetic=True)
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, seed=-1, finest_n=64, levels=(16,))

    def test_defaults_and_level_order(self):
        mc = McConfig(levels=(16, 4, 16, 8))
        assert (mc.levels, mc.n_paths, mc.seed, mc.finest_n, mc.antithetic) == \
            ((4, 8, 16), 1_000_000, 0, None, True)

    @pytest.mark.parametrize("levels,message", [
        ((12,), "the largest level 12 must be a positive power of two"),
        ((3, 8), "level 3 does not divide the largest level 8"),
    ])
    def test_derived_finest_grid_names_the_levels(self, levels, message):
        with pytest.raises(ValueError, match=message):
            McConfig(levels=levels)


class TestSampleIncrements:
    """One path's finest-grid increments, as a Monte Carlo batch draws them."""

    def test_reproducible_in_isolation(self):
        a = rng.gaussian_increments(7, [12], 128, 1.0 / 128)[0]
        b = rng.gaussian_increments(7, [12], 128, 1.0 / 128)[0]
        assert np.array_equal(a, b)
        assert a.shape == (128,)

    def test_coarse_increment_is_exact_pair_sum(self):
        fine = rng.gaussian_increments(3, [5], 64, 1.0 / 64)[0]
        coarse = fine.reshape(32, 2).sum(axis=1)
        for k in range(32):
            assert coarse[k] == fine[2 * k] + fine[2 * k + 1]

    def test_variance(self):
        dt = 2.0 / 1024
        draws = np.concatenate([rng.gaussian_increments(1, [i], 1024, dt)[0]
                                for i in range(512)])
        assert abs(draws.var() / dt - 1.0) <= 0.01


class TestEstimateWeakError:
    def test_bm_estimates_zero_within_four_stderr(self, problems):
        mc = McConfig(n_paths=20_000, seed=5, finest_n=16, levels=(8, 16))
        rep = estimate_weak_error(problems["bm"], mc, "implicit")
        assert rep.reference_source == "exact"
        assert rep.reference == pytest.approx(3.0, abs=1e-12)
        for lv in rep.levels:
            assert abs(lv.estimate) <= 4.0 * lv.stderr

    @pytest.mark.parametrize("name", ["ou", "gbm"])
    def test_matches_oracle_within_four_stderr(self, problems, name):
        p = problems[name]
        mc = McConfig(n_paths=100_000, seed=42, finest_n=64, levels=(16, 64))
        rep = estimate_weak_error(p, mc, "implicit")
        for lv in rep.levels:
            oracle = we.weak_error_exact(p, SchemeConfig(n_steps=lv.n_steps))
            assert abs(lv.estimate - oracle) <= 4.0 * lv.stderr

    def test_bitwise_deterministic(self, problems):
        mc = McConfig(n_paths=4_000, seed=11, finest_n=32, levels=(8, 32))
        a = estimate_weak_error(problems["ou"], mc, "implicit")
        b = estimate_weak_error(problems["ou"], mc, "implicit")
        assert render(a, "json") == render(b, "json")
        assert np.array_equal(a.covariance, b.covariance)

    def test_worker_count_does_not_change_results(self, problems, monkeypatch):
        mc = McConfig(n_paths=40_000, seed=13, finest_n=32, levels=(16,))
        serial = estimate_weak_error(problems["ou"], mc, "implicit")
        monkeypatch.setenv("WEAKERR_THREADS", "4")
        threaded = estimate_weak_error(problems["ou"], mc, "implicit")
        assert render(serial, "json") == render(threaded, "json")

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
    def test_malformed_thread_count_is_refused(self, problems, monkeypatch, value):
        monkeypatch.setenv("WEAKERR_THREADS", value)
        mc = McConfig(n_paths=1000, seed=0, finest_n=16, levels=(16,))
        with pytest.raises(ValueError, match="WEAKERR_THREADS"):
            estimate_weak_error(problems["ou"], mc, "implicit")

    def test_explicit_kind(self, problems):
        mc = McConfig(n_paths=50_000, seed=21, finest_n=32, levels=(32,))
        rep = estimate_weak_error(problems["ou"], mc, "explicit")
        oracle = we.weak_error_exact(problems["ou"],
                                     SchemeConfig(n_steps=32, kind="explicit"))
        assert abs(rep.levels[0].estimate - oracle) <= 4.0 * rep.levels[0].stderr

    @pytest.mark.parametrize("given", [
        {"solver": "newton"}, {"solver": "fixed_point"}, {"fp_tol": 1e-9},
        {"fp_max_iter": 5},
        {"solver": "closed_form_affine", "fp_tol": 1e-9, "fp_max_iter": 5},
    ])
    def test_explicit_kind_refuses_solver_settings(self, problems, given):
        # the explicit scheme solves no implicit step, so it could only ignore them
        mc = McConfig(n_paths=200, seed=1, finest_n=16, levels=(16,))
        with pytest.raises(ValueError, match="explicit") as exc:
            estimate_weak_error(problems["ou"], mc, "explicit", **given)
        assert all(name in str(exc.value) for name in given)

    @staticmethod
    def _forbid_draws(monkeypatch):
        """Make every draw fail; the list it returns counts the draws tried."""
        drawn = []

        def draw(*args, **kwargs):
            drawn.append(args)
            raise AssertionError("a window was drawn before the set-up was settled")

        monkeypatch.setattr(rng, "gaussian_increments", draw)
        return drawn

    @staticmethod
    def _raise_overflow():
        raise OverflowError("E f(X_T) overflows")

    # gbm with s = 12 and f = x^4: exp(r4*tau) overflows in E f(X_T), the
    # problem of the CLI's r4 case
    OVERFLOW = ("exp(r4*tau) overflows in the closed-form expectation at r4*tau = 864.2 "
                "(from r4 = 4*b1 + 6*s1^2, b1 = 0.05, s1 = 12.0, tau = 1.0)")

    @pytest.mark.parametrize("case", ["coarse", "coarse and overflowing", "overflowing"])
    def test_set_up_is_settled_before_the_first_draw(self, problems, monkeypatch, case):
        # every level's step size, then the exact reference, each refused
        # with no window drawn; level 1 is too coarse for tanh, level 2 is not
        tanh, coarse = problems["tanh"], (we.StepSizeError, "raise n_steps to at least 2$")
        p, levels, (error, match) = {
            "coarse": (tanh, (1, 2), coarse),
            "coarse and overflowing": (
                dataclasses.replace(tanh, exact_terminal=self._raise_overflow), (1, 2), coarse),
            "overflowing": (
                we.gbm_family_problem("x", mu=0.05, s=12.0, f_poly=(0, 0, 0, 0, 1), x0=1.0,
                                      horizon=1.0),
                (16, 32), (OverflowError, re.escape(self.OVERFLOW))),
        }[case]
        drawn = self._forbid_draws(monkeypatch)
        with pytest.raises(error, match=match):
            estimate_weak_error(p, McConfig(levels=levels, n_paths=200), "implicit")
        assert drawn == []

    @pytest.mark.parametrize("levels, finest_n", [((2**34,), None), ((8,), 2**34)])
    def test_a_finest_grid_past_the_generator_is_refused_before_a_draw(
            self, problems, monkeypatch, levels, finest_n):
        # the generator draws steps 0 .. rng.STEP_LIMIT - 1 of a path
        drawn = self._forbid_draws(monkeypatch)
        mc = McConfig(levels=levels, n_paths=100, finest_n=finest_n)
        with pytest.raises(ValueError, match="finest_n = 17179869184 exceeds the "
                                             "generator's 8589934592 steps"):
            estimate_weak_error(problems["bm"], mc, "implicit")
        assert drawn == []

    def test_the_exact_reference_is_taken_once(self, problems, monkeypatch):
        # five batches subtract the one float E f(X_T): the bytes of a
        # reference read in every batch
        p = problems["ou"]
        calls = []

        def exact_terminal():
            calls.append(None)
            return p.exact_terminal()

        monkeypatch.setattr(montecarlo, "_BATCH", 100)
        mc = McConfig(levels=(8, 16), n_paths=1000, seed=2)
        counted = dataclasses.replace(p, exact_terminal=exact_terminal)
        rep = estimate_weak_error(counted, mc, "implicit")
        assert len(calls) == 1
        assert render(rep, "json") == render(estimate_weak_error(p, mc, "implicit"), "json")

    def test_antithetic_toggle(self, problems):
        base = dict(n_paths=20_000, seed=9, finest_n=16, levels=(16,))
        on = estimate_weak_error(problems["ou"], McConfig(**base), "implicit")
        off = estimate_weak_error(problems["ou"], McConfig(**base, antithetic=False),
                                  "implicit")
        assert on.n_units == 10_000 and off.n_units == 20_000
        assert abs(on.levels[0].estimate - off.levels[0].estimate) <= \
            4.0 * math.hypot(on.levels[0].stderr, off.levels[0].stderr)

    def test_surrogate_reference_close_to_exact(self, problems):
        # hide the closed form: forces the fine-grid Richardson surrogate
        p = dataclasses.replace(problems["ou"], exact_terminal=None, f_poly=None)
        mc = McConfig(n_paths=50_000, seed=17, finest_n=256, levels=(8, 16, 32))
        rep = estimate_weak_error(p, mc, "implicit")
        assert rep.reference_source == "surrogate"
        exact = problems["ou"].exact_terminal()
        assert rep.reference == pytest.approx(exact, abs=5e-3)
        for lv in rep.levels:
            oracle = we.weak_error_exact(problems["ou"],
                                         SchemeConfig(n_steps=lv.n_steps))
            assert abs(lv.estimate - oracle) <= 4.0 * lv.stderr + 1e-4

    def test_derived_finest_grid_matches_explicit(self, problems):
        # exact reference: the largest level; surrogate: SURROGATE_MARGIN times it
        for name, finest in (("ou", 16), ("tanh", 8 * 16)):
            base = dict(n_paths=1000, seed=6, levels=(8, 16))
            derived = estimate_weak_error(problems[name], McConfig(**base), "implicit")
            given = estimate_weak_error(problems[name], McConfig(**base, finest_n=finest),
                                        "implicit")
            assert render(derived, "json") == render(given, "json")

    def test_surrogate_needs_margin(self, problems):
        mc = McConfig(n_paths=1000, seed=0, finest_n=64, levels=(16,))
        with pytest.raises(ValueError):
            estimate_weak_error(problems["tanh"], mc, "implicit")

    def test_unbiased_across_seeds(self, problems):
        # mean over 50 independent seeds within 4 combined stderr of the oracle
        p = problems["ou"]
        oracle = we.weak_error_exact(p, SchemeConfig(n_steps=16))
        ests, variances = [], []
        for seed in range(50):
            mc = McConfig(n_paths=10_000, seed=seed, finest_n=16, levels=(16,))
            lv = estimate_weak_error(p, mc, "implicit").levels[0]
            ests.append(lv.estimate)
            variances.append(lv.stderr**2)
        combined = math.sqrt(sum(variances)) / 50
        assert abs(np.mean(ests) - oracle) <= 4.0 * combined

    @pytest.mark.parametrize("s", [4.0, 6.0])
    def test_cancelled_variance_is_a_numerical_failure(self, s):
        # E X_T^4 is about 8e93 at s = 6: every sampled error sits near
        # -reference, and the one-pass sum of squares less the squared sum
        # keeps none of the variance's digits (it came out negative, and the
        # stderr printed as 0.0).
        p = we.gbm_family_problem("heavy", mu=0.05, s=s, f_poly=(0, 0, 0, 0, 1),
                                  x0=1.0, horizon=1.0)
        mc = McConfig(n_paths=2000, seed=0, levels=(16, 32, 64))
        with pytest.raises(FloatingPointError, match=r"^level 16: the sample variance "):
            estimate_weak_error(p, mc, "implicit")

    def test_rounding_bound_follows_the_batched_summation(self, problems):
        # 20000 antithetic units make two batches, so the sums run over
        # k = _BATCH + 2 terms in turn, not n.  A reference shifted by c keeps
        # the errors' variance and puts it at 6e-12 of the raw second moment:
        # above 3*k*u (5.5e-12) but below 3*n*u (6.7e-12), which refused it.
        u = np.finfo(float).eps / 2
        n = 20_000
        k = montecarlo._BATCH + 2
        assert n > montecarlo._BATCH and 3 * k * u < 6e-12 < 3 * n * u
        p, mc = problems["ou"], McConfig(n_paths=2 * n, seed=0, levels=(8, 16))
        var = estimate_weak_error(p, mc, "implicit").covariance[0, 0]
        c = math.sqrt(var / 6e-12)
        shifted = dataclasses.replace(p, exact_terminal=lambda: p.exact_terminal() + c)
        rep = estimate_weak_error(shifted, mc, "implicit")
        ratio = rep.covariance[0, 0] / (rep.levels[0].estimate**2 + rep.covariance[0, 0])
        assert 3 * k * u < ratio < 3 * n * u
        assert all(lv.stderr > 0.0 for lv in rep.levels)
        # the cancelled heavy-tailed variance is still refused at this n
        heavy = we.gbm_family_problem("heavy", mu=0.05, s=6.0, f_poly=(0, 0, 0, 0, 1),
                                      x0=1.0, horizon=1.0)
        with pytest.raises(FloatingPointError, match=r"^level 8: the sample variance "):
            estimate_weak_error(heavy, mc, "implicit")

    def test_exactly_zero_errors_keep_a_zero_stderr(self, problems):
        # a constant payoff makes every error 0: no variance to lose
        p = dataclasses.replace(problems["ou"], f=lambda x: np.ones_like(x),
                                exact_terminal=lambda: 1.0)
        rep = estimate_weak_error(p, McConfig(n_paths=1000, seed=3, levels=(8, 16)),
                                  "implicit")
        assert [(lv.estimate, lv.stderr) for lv in rep.levels] == [(0.0, 0.0)] * 2

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_non_finite_payoff_names_its_level_and_path(self, monkeypatch, antithetic):
        # x^2 overflows where |X_T| > sqrt(max float), and so does the mean
        # of an antithetic pair's two equal payoffs, halved before they add.
        # Here X_T = sigma * W_T up to rounding, and sigma lies between the
        # bounds at which the largest and the second largest |W_T| of the run
        # overflow, so exactly one path's payoff is inf, in the fifth of ten
        # batches.  Its states are finite.
        monkeypatch.setattr(montecarlo, "_BATCH", 100)
        n = 1000
        walks = rng.gaussian_increments(1, np.arange(n, dtype=np.uint64), 16,
                                        1 / 16).sum(axis=1)
        order = np.argsort(np.abs(walks))
        top = int(order[-1])
        assert top // 100 == 4
        sigma = math.sqrt(np.finfo(float).max / abs(walks[top] * walks[order[-2]]))
        p = we.ou_family_problem("wide", theta=0.0, sigma=sigma, f_poly=(0, 0, 1),
                                 x0=0.0, horizon=1.0)
        mc = McConfig(levels=(8, 16), n_paths=2 * n if antithetic else n, seed=1,
                      antithetic=antithetic)
        with pytest.raises(FloatingPointError) as exc, np.errstate(over="ignore"):
            estimate_weak_error(p, mc, "implicit")
        what = "the antithetic pair's mean payoff" if antithetic else "the payoff"
        where = "its state is finite at every step" + (" of both passes" if antithetic else "")
        assert str(exc.value) == f"level 8, path {top}: {what} is inf; {where}"

    def test_finite_antithetic_payoffs_above_half_the_largest_float(self, problems):
        # every pair's payoffs would sum to inf; halved first, only path 7's
        # mean is not finite
        def f(x):
            v = np.full(np.shape(x), 1.2e308)
            v[7] = np.inf
            return v

        p = dataclasses.replace(problems["ou"], f=f)
        with pytest.raises(FloatingPointError) as exc:
            estimate_weak_error(p, McConfig(levels=(8, 16), n_paths=200, seed=1), "implicit")
        assert str(exc.value) == ("level 8, path 7: the antithetic pair's mean payoff is inf; "
                                  "its state is finite at every step of both passes")

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_non_finite_state_names_its_step(self, antithetic):
        # sigma(x) = c sqrt(1 + x^2) with c = 1e100 takes the explicit state
        # past the floats within a few steps of the +dW pass.
        p = we.tanh_problem(c=1e100)
        mc = McConfig(levels=(8, 16), n_paths=200, seed=1, antithetic=antithetic)
        with pytest.raises(FloatingPointError) as exc, np.errstate(all="ignore"):
            estimate_weak_error(p, mc, "explicit")
        finest = montecarlo.SURROGATE_MARGIN * 16
        want = _batch_failure(p, SchemeConfig(8, "explicit"), _draw(mc, finest))
        assert want[0] is FloatingPointError
        _assert_named(exc.value, 8, want, antithetic)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("solver, kind, text", [
        # the fixed-point test passes at +-inf, where tanh reads equal, so the
        # state leaves the floats at step 2, a step before the residual is NaN
        ("fixed_point", FloatingPointError, "step 2: its state is inf"),
        # Newton's residual is NaN at the step that would leave the floats
        ("newton", NonFiniteResidual, "step 2: newton residual is nan")])
    def test_nan_residual_names_where_the_state_left_the_floats(self, antithetic, solver,
                                                                kind, text):
        # c = 1e100 takes the implicit states past the floats within a few
        # steps of the +dW pass.  The solver raises at its first NaN residual
        # instead of spending fp_max_iter iterations, and the first step whose
        # states are not all finite or whose solver fails is named.  An
        # implicit step depends on the rest of the batch, so the reference
        # steps the whole batch.
        p = we.tanh_problem(c=1e100)
        mc = McConfig(levels=(8,), n_paths=200, seed=1, antithetic=antithetic)
        with pytest.raises(FloatingPointError) as exc, np.errstate(all="ignore"):
            estimate_weak_error(p, mc, "implicit", solver=solver)
        fine = _draw(mc, 64)
        want = _batch_failure(p, SchemeConfig(8, solver=solver), fine)
        assert want[0] is kind and want[3] == text
        _assert_named(exc.value, 8, want, antithetic)
        if kind is NonFiniteResidual:
            assert (exc.value.step_index, exc.value.path_index) == (2, want[2])
        else:  # stepped on past its state, the fixed-point residual is NaN at step 3
            with pytest.raises(NonFiniteResidual) as ref, np.errstate(all="ignore"):
                run_paths(p, SchemeConfig(8, solver=solver), _reshape_sum(fine, 8))
            assert ref.value.step_index == 3

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("kind", ["implicit", "explicit"])
    def test_infinite_state_under_a_bounded_payoff_is_named(self, kind, antithetic):
        # c = 1e24 takes every state to +-inf by the last step.  The fixed-point
        # test passes at +-inf, where tanh reads equal, and tanh(+-inf) = +-1
        # is a finite payoff: opposite infinite states of a pair once gave the
        # estimate 0.0 with stderr 0.0.
        p = dataclasses.replace(we.tanh_problem(c=1e24), f=np.tanh,
                                exact_terminal=lambda: 0.0)
        mc = McConfig(levels=(8,), n_paths=200, seed=1, antithetic=antithetic)
        with pytest.raises(FloatingPointError) as exc, np.errstate(all="ignore"):
            estimate_weak_error(p, mc, kind)
        want = _batch_failure(p, SchemeConfig(8, kind), _draw(mc, 8))
        assert want[0] is FloatingPointError
        _assert_named(exc.value, 8, want, antithetic)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_the_first_failed_level_and_sign_is_named(self, antithetic):
        # sigma(x) = s x with s = 1e40 multiplies a state by about 1e40 |dW|
        # a step, so every level leaves the floats near its step 7.  The
        # 512-step draw comes in eight windows of 64: level 64 (eight steps a
        # window) fails in the first, level 8 (a step a window) only in the
        # last.  Level 8 on +dW is named, with the message one pass over the
        # whole draw gives.
        p = we.gbm_family_problem("wide", mu=0.05, s=1e40, f_poly=(0, 1), x0=1.0,
                                  horizon=1.0)
        mc = McConfig(levels=(8, 64), n_paths=200, seed=1, finest_n=512,
                      antithetic=antithetic)
        fine = _draw(mc, 512)
        want = {n: _batch_failure(p, SchemeConfig(n, solver="closed_form_affine"), fine)
                for n in mc.levels}
        assert [want[n][1] * (512 // n) // 64 for n in mc.levels] == [7, 0]
        with pytest.raises(FloatingPointError) as later, np.errstate(all="ignore"):
            estimate_weak_error(p, dataclasses.replace(mc, levels=(64,)), "implicit")
        _assert_named(later.value, 64, want[64], antithetic)
        with pytest.raises(FloatingPointError) as exc, np.errstate(all="ignore"):
            estimate_weak_error(p, mc, "implicit")
        _assert_named(exc.value, 8, want[8], antithetic)

    def test_no_convergence_carries_context(self, monkeypatch):
        # The drift vanishes on [-3, 3], where one fixed-point iteration is
        # exact, so a path fails at the first step that leaves the band.  The
        # states until then are the Brownian sums, which locate the failure.
        def b_jet(x, order=4):
            return we.Jet4((np.tanh(x - np.clip(x, -3.0, 3.0)),))

        p = we.Problem(name="banded", x0=0.0, horizon=1.0, lip_b=1.0, b_jet=b_jet,
                       sigma_jet=lambda x, order=4: we.Jet4.constant(1.0), f=np.cos,
                       exact_terminal=lambda: 0.0)
        monkeypatch.setattr("weakerr.montecarlo._BATCH", 100)
        mc = McConfig(n_paths=1000, seed=4, finest_n=64, levels=(64,))
        walks = np.cumsum(rng.gaussian_increments(4, np.arange(500, dtype=np.uint64),
                                                  64, 1 / 64), axis=1)
        steps = np.where(np.abs(walks) > 3.0, np.arange(64), 64).min(axis=1)
        batch = np.flatnonzero(steps < 64)[0] // 100
        rows = steps[100 * batch:100 * (batch + 1)]
        assert batch > 0 and np.sum(rows == rows.min()) == 1
        with pytest.raises(we.NoConvergence) as exc:
            estimate_weak_error(p, mc, "implicit", fp_tol=1e-16, fp_max_iter=1)
        assert exc.value.step_index == rows.min()
        assert exc.value.path_index == 100 * batch + int(np.argmin(rows))
        assert f"path {exc.value.path_index} on +dW: step {rows.min()}: " in str(exc.value)

    @pytest.mark.parametrize("kind, solver, c, message", [
        ("explicit", None, 1e100, "level 8, path 0 on +dW: step 2: its state is inf"),
        ("implicit", "fixed_point", 1e100, "level 8, path 0 on +dW: step 2: its state is inf"),
        ("implicit", "newton", 1e100, "level 8, path 0 on +dW: step 2: newton residual is nan"),
        ("implicit", None, 1e24, "level 8, path 0 on +dW: step 7: its state is -inf")])
    def test_the_failure_does_not_depend_on_the_windows(self, monkeypatch, kind, solver, c,
                                                        message):
        # 2 to 64 fine steps a window give 8, 4, 2 or 1 windows of the 64-step
        # draw (a window holds at least one step of level 8); c = 1e24 has a
        # bounded payoff and an exact reference, so level 8 alone is stepped
        p = we.tanh_problem(c=c)
        if c == 1e24:
            p = dataclasses.replace(p, f=np.tanh, exact_terminal=lambda: 0.0)
        mc = McConfig(levels=(8,), n_paths=200, seed=1, finest_n=64)
        seen = set()
        for steps in (2, 4, 8, 16, 32, 64):
            monkeypatch.setattr(montecarlo, "_WINDOW_STEPS", steps)
            with pytest.raises(FloatingPointError) as exc, np.errstate(all="ignore"):
                estimate_weak_error(p, mc, kind, **({} if solver is None else {"solver": solver}))
            seen.add((type(exc.value), str(exc.value)))
        assert seen == {(NonFiniteResidual if solver == "newton" else FloatingPointError,
                         message)}


@pytest.mark.parametrize("name", ["ou", "gbm"])
def test_stderr_covers_the_oracle_at_95_percent(problems, name):
    # z = (MC - oracle) / stderr on 400 seeds of 2000 paths.  The levels of
    # one report share their paths, so each seed counts one level, taken in
    # turn.  If the stderr means what it says, the count with |z| <= 1.96 is
    # Binomial(400, 0.95): it falls outside 362..396 (90.5%..99%) with
    # probability 7.0e-5.  A stderr 25% too small gives about 88%, one twice
    # too large about 100%, and a stderr of 0.0 an infinite z.
    p = problems[name]
    levels = (16, 32, 64)
    oracle = {n: we.weak_error_exact(p, SchemeConfig(n_steps=n)) for n in levels}
    inside = 0
    for seed in range(400):
        rep = estimate_weak_error(p, McConfig(levels=levels, n_paths=2000, seed=seed),
                                  "implicit")
        lv = rep.levels[seed % len(levels)]
        inside += abs(lv.estimate - oracle[lv.n_steps]) <= 1.96 * lv.stderr
    assert 362 <= inside <= 396


class TestMultiBatchPins:
    """SHA-256 of the estimate, stderr and covariance bytes of runs that span
    more than one batch, pinned before levels were stored step-major."""

    @staticmethod
    def _digest(rep):
        h = hashlib.sha256()
        h.update(np.array([lv.estimate for lv in rep.levels]).tobytes())
        h.update(np.array([lv.stderr for lv in rep.levels]).tobytes())
        h.update(rep.covariance.tobytes())
        return h.hexdigest()

    def test_tanh_two_batches_with_remainder(self, problems):
        # 2^14 + 37 antithetic pairs: a full batch and a 37-unit remainder,
        # on 512-step rows with the surrogate levels 256 and 512
        mc = McConfig(levels=(16, 32, 64), n_paths=2 * ((1 << 14) + 37), seed=314)
        rep = estimate_weak_error(problems["tanh"], mc, "implicit")
        assert rep.n_units == (1 << 14) + 37 and rep.reference_source == "surrogate"
        assert self._digest(rep) == (
            "ab73016dd08033ae7484340dc0326de85c16c881d6c1f87705eaa570065ca772")

    def test_ou_without_antithetic_at_the_finest_level(self, problems):
        # finest_n is the largest level, so level 64 runs the fine batch itself
        mc = McConfig(levels=(8, 16, 64), n_paths=2 * (1 << 14) + 37, seed=315,
                      finest_n=64, antithetic=False)
        rep = estimate_weak_error(problems["ou"], mc, "implicit")
        assert rep.n_units == 2 * (1 << 14) + 37
        assert self._digest(rep) == (
            "f18419531e310d46a0f739b5b88b56913672dd5479edc3f676404169aba71b0d")

    def test_ou_with_antithetic_below_the_finest_grid(self, problems):
        # finest_n is above every level, so level 16 is summed into the draw's
        # leading columns from the draw as it stands, then negated in place
        mc = McConfig(levels=(8, 16), n_paths=2 * ((1 << 14) + 37), seed=316,
                      finest_n=64)
        rep = estimate_weak_error(problems["ou"], mc, "implicit")
        assert rep.n_units == (1 << 14) + 37 and rep.reference_source == "exact"
        assert self._digest(rep) == (
            "dfa53f70f9662e2b9f9b1679600679c759a863d9baccbcd59fe64f556fadc2e4")


def _level_inputs(n_fine):
    """Normal rows, then rows of +-0.0, +-inf, NaN and 5e-324 (the smallest
    subnormal), including rows of one value only: all -0.0 must sum to +0.0."""
    gen = np.random.default_rng(n_fine)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0])
    mixed = gen.choice(specials, size=(6, n_fine))
    # sparse specials among normals, so most sums stay finite
    sparse = gen.normal(size=(3, n_fine))
    hits = gen.random(size=sparse.shape) < 0.02
    sparse[hits] = gen.choice(specials[:6], size=hits.sum())
    single = np.repeat(np.array([[-0.0], [0.0], [5e-324], [-5e-324], [np.nan]]),
                       n_fine, axis=1)
    return np.vstack([gen.normal(size=(4, n_fine)), mixed, sparse, single])


def _assert_same_sums(got, want, label):
    """Every bit of every non-NaN sum, signed zeros included.  Where two NaNs
    meet, IEEE 754 leaves open which one propagates (compilers swap the
    operands of +), so a NaN sum need only be NaN, as float.hex reads it."""
    assert got.shape == want.shape
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    nan = np.isnan(want)
    if got[~nan].tobytes() != want[~nan].tobytes() or not np.isnan(got[nan]).all():
        bad = np.flatnonzero(((got.view(np.uint64) != want.view(np.uint64)) & ~nan)
                             | (nan & ~np.isnan(got)))
        pairs = [(float(got.flat[i]).hex(), float(want.flat[i]).hex()) for i in bad[:5]]
        raise AssertionError(f"{label}: {bad.size} sums differ, e.g. {pairs}")


def _read_level(fine, n_steps, negate):
    """Every column the level reader gives, each copied before the next read."""
    level = montecarlo._Level(fine, n_steps, negate)
    rows = fine.shape[0]
    assert (level.shape, level.size) == ((rows, n_steps), rows * n_steps)
    return np.column_stack([level[:, k].copy() for k in range(n_steps)])


def _layouts(fine_c):
    """``fine_c`` C-ordered, Fortran-ordered and as every other column of a wider array."""
    rows, n_fine = fine_c.shape
    wide = np.zeros((rows, 2 * n_fine))
    wide[:, ::2] = fine_c
    return {"C": fine_c, "F": np.asfortranarray(fine_c), "strided": wide[:, ::2]}


def _assert_reshape_sum_bits(fine_c, m):
    """The level reader, column by column on each layout and sign, against
    numpy's reshape-sum on C-ordered rows, negated for -dW.  With m = 1 the
    level is the draw itself, so a -0.0 there stays -0.0."""
    rows, n_fine = fine_c.shape
    n = n_fine // m
    with np.errstate(invalid="ignore", over="ignore"):
        want = fine_c if m == 1 else fine_c.reshape(rows, n, m).sum(axis=2)
        for layout, fine in _layouts(fine_c).items():
            for negate in (False, True):
                got = _read_level(fine, n, negate)
                _assert_same_sums(got, -want if negate else want,
                                  f"m = {m}, {layout}, negate = {negate}")
            if m == 1:  # +dW reads the draw's own column
                assert np.shares_memory(montecarlo._Level(fine, n, False)[:, 0], fine)


class TestLevelReader:
    """Each column of a coarse level is summed from the intact fine draw as
    it is read, and keeps the bits of ``fine.reshape(rows, n, m).sum(axis=2)``
    over C-ordered rows: numpy's pairwise order (left to right below 8
    terms; eight strided accumulators up to 128; halves split at a multiple
    of 8 above), from +0.0, then negated on -dW.  A read needs a few columns
    of working memory, not a share of the batch, and writes no draw."""

    @pytest.mark.parametrize("n_fine", [2048, 1020, 8 * 127, 8 * 129, 8 * 136, 3 * 300])
    def test_every_divisor_keeps_the_reshape_sum_bits(self, n_fine):
        fine_c = _level_inputs(n_fine)
        for m in range(1, 1025):
            if n_fine % m == 0:
                _assert_reshape_sum_bits(fine_c, m)

    def test_every_group_size_up_to_1024(self):
        for m in range(1, 1025):
            _assert_reshape_sum_bits(_level_inputs(m), m)

    @pytest.mark.parametrize("n_fine", [2048, 1020, 900])
    def test_reads_never_write_the_draw(self, n_fine):
        fine = np.asfortranarray(_level_inputs(n_fine))
        before = fine.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            for m in range(1, n_fine + 1):
                if n_fine % m == 0:
                    for negate in (False, True):
                        _read_level(fine, n_fine // m, negate)
        assert fine.tobytes() == before

    @pytest.mark.parametrize("rows", [848, 1 << 14])
    def test_working_memory_does_not_grow_with_the_batch(self, rows):
        # The traced peak of reading every column of a level of a 512-step
        # draw, in columns of the batch: the kept column and the pairwise
        # sums of one coarse column, at most eight.  848 rows is the size of
        # mc-tanh's last batch.
        draw = np.asfortranarray(np.random.default_rng(rows).normal(size=(rows, 512)))
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            for negate in (False, True):
                tracemalloc.start()
                try:
                    level = montecarlo._Level(draw, n, negate)
                    for k in range(n):
                        level[:, k]
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 10 * rows * 8, f"{n} steps: {peak / (rows * 8):.1f} columns"


class TestBatchLayout:
    """What ``run_batch`` draws and hands to ``run_paths``, recorded at each
    call: the windows tile the fine grid, each is as long as a step of the
    coarsest level or 64 fine steps, whichever is more, and within each
    window the levels ascend and each level and sign is one call.  Each call
    gets a level reader over that window alone, which holds no array but the
    window and one column, and continues its paths from the step the last
    window left.  No window is written."""

    @staticmethod
    def _record(monkeypatch, p, mc, finest):
        drawn, stepped = [], []
        draw, step = rng.gaussian_increments, montecarlo.run_paths

        def recording_draw(seed, paths, n_steps, dt, first_step):
            window = draw(seed, paths, n_steps, dt, first_step=first_step)
            drawn.append((int(paths[0]), first_step, window))
            return window

        def recording_step(p, cfg, incs, start):
            _, first, window = drawn[-1]
            rows, width = window.shape
            m = finest // cfg.n_steps
            assert type(incs) is montecarlo._Level and incs._fine is window
            assert incs.shape == (rows, width // m) and start[0] == first // m
            held = [a for a in vars(incs).values() if isinstance(a, np.ndarray)]
            assert all(a is window or a.shape == (rows,) for a in held)
            stepped.append((len(drawn) - 1, cfg.n_steps, "-" if incs._negate else "+"))
            return step(p, cfg, incs, start=start)

        monkeypatch.setattr(rng, "gaussian_increments", recording_draw)
        monkeypatch.setattr(montecarlo, "run_paths", recording_step)
        monkeypatch.setattr(montecarlo, "_BATCH", 100)
        estimate_weak_error(p, mc, "implicit")
        for lo, first, z in drawn:  # no level wrote its window
            assert z.flags.f_contiguous
            paths = np.arange(lo, lo + z.shape[0], dtype=np.uint64)
            redrawn = draw(mc.seed, paths, z.shape[1], p.horizon / finest, first_step=first)
            assert z.tobytes() == redrawn.tobytes()
        return [(lo, first, z.shape) for lo, first, z in drawn], stepped

    @staticmethod
    def _calls(stepped, window):
        return [c[1:] for c in stepped if c[0] == window]

    def test_tanh_levels_ascend_in_each_64_step_window(self, problems, monkeypatch):
        mc = McConfig(levels=(8, 16), n_paths=300, seed=3)  # surrogate: finest_n 128
        drawn, stepped = self._record(monkeypatch, problems["tanh"], mc, 128)
        assert drawn == [(0, 0, (100, 64)), (0, 64, (100, 64)),
                         (100, 0, (50, 64)), (100, 64, (50, 64))]
        for w in range(4):
            assert self._calls(stepped, w) == [(n, sign) for n in (8, 16, 64, 128)
                                               for sign in "+-"]

    def test_a_coarse_step_longer_than_64_sets_the_window(self, problems, monkeypatch):
        # a step of level 2 is 128 fine steps, so each window is one of its steps
        mc = McConfig(levels=(2, 256), n_paths=200, seed=4, finest_n=256)
        drawn, stepped = self._record(monkeypatch, problems["ou"], mc, 256)
        assert drawn == [(0, 0, (100, 128)), (0, 128, (100, 128))]
        for w in range(2):
            assert self._calls(stepped, w) == [(2, "+"), (2, "-"), (256, "+"), (256, "-")]

    def test_ou_finest_level_without_antithetic(self, problems, monkeypatch):
        mc = McConfig(levels=(8, 32), n_paths=150, seed=4, finest_n=32, antithetic=False)
        drawn, stepped = self._record(monkeypatch, problems["ou"], mc, 32)
        assert drawn == [(0, 0, (100, 32)), (100, 0, (50, 32))]
        assert stepped == [(0, 8, "+"), (0, 32, "+"), (1, 8, "+"), (1, 32, "+")]

    def test_finer_draw_than_any_level_is_never_stepped(self, problems, monkeypatch):
        mc = McConfig(levels=(8, 16), n_paths=200, seed=4, finest_n=64)
        drawn, stepped = self._record(monkeypatch, problems["ou"], mc, 64)
        assert drawn == [(0, 0, (100, 64))]
        assert [c[1:] for c in stepped] == [(8, "+"), (8, "-"), (16, "+"), (16, "-")]


def _batch_peak(p, monkeypatch, fails):
    """Traced peak of one 4096-unit batch on 512-step rows, over its 16 MiB
    draw; with ``fails`` the batch must raise a FloatingPointError."""
    import scipy.special  # noqa: F401 -- the first draw imports it; keep that out of the peak
    monkeypatch.setattr(montecarlo, "_BATCH", 4096)
    mc = McConfig(levels=(16, 32, 64), n_paths=2 * 4096, seed=5, finest_n=512)
    tracemalloc.start()
    try:
        with (pytest.raises(FloatingPointError) if fails else contextlib.nullcontext()), \
                np.errstate(all="ignore"):
            estimate_weak_error(p, mc, "implicit")
        return tracemalloc.get_traced_memory()[1] / (4096 * 512 * 8)
    finally:
        tracemalloc.stop()


def test_batch_peak_stays_below_0_35x_the_fine_draw(problems, monkeypatch):
    # one 4096-unit tanh batch on 512-step rows, drawn in 64-step windows:
    # one window (2 MiB, 0.125x the 16 MiB draw), the generator's chunk
    # buffer and Philox word arrays while it draws (about 2 MB), and a state
    # or payoff column per level and sign.  Measured 0.274x; the bound leaves
    # a quarter of that as margin.  The whole draw held at once read 1.13x.
    peak = _batch_peak(problems["tanh"], monkeypatch, fails=False)
    assert peak < 0.35, f"peak {peak:.3f}x the fine draw"


def test_failing_batch_peak_stays_below_0_35x_the_fine_draw(monkeypatch):
    # the same batch with c = 1e24, whose states leave the floats: the failed
    # window is stepped again from the states it began with and nothing is
    # drawn again.  Drawing the batch again whole to find the step read 1.274x.
    p = dataclasses.replace(we.tanh_problem(c=1e24), f=np.tanh, exact_terminal=None)
    peak = _batch_peak(p, monkeypatch, fails=True)
    assert peak < 0.35, f"peak {peak:.3f}x the fine draw"


class TestCrnCoupling:
    def test_coupled_difference_variance_reduction(self, problems):
        p = problems["ou"]
        n = 40_000
        fine = rng.gaussian_increments(31, np.arange(n, dtype=np.uint64), 32, 1 / 32)
        cfg16, cfg32 = SchemeConfig(n_steps=16), SchemeConfig(n_steps=32)
        f32 = we.run_paths(p, cfg32, fine) ** 2
        f16 = we.run_paths(p, cfg16, fine.reshape(n, 16, 2).sum(axis=2)) ** 2
        coupled_var = np.var(f32 - f16)
        other = rng.gaussian_increments(77, np.arange(n, dtype=np.uint64), 16, 1 / 16)
        f16_ind = we.run_paths(p, cfg16, other) ** 2
        independent_var = np.var(f32 - f16_ind)
        assert independent_var / coupled_var >= 2.0


class TestRichardson:
    def test_bm_extrapolation_is_statistical_zero(self, problems):
        mc = McConfig(n_paths=20_000, seed=23, finest_n=16, levels=(8, 16))
        pts = richardson(estimate_weak_error(problems["bm"], mc, "implicit"))
        assert len(pts) == 1
        assert abs(pts[0].extrapolated_error) <= 4.0 * pts[0].stderr

    def test_oracle_extrapolation_has_second_order_slope(self, problems):
        rep = oracle_report(problems["ou"], "implicit", (16, 32, 64, 128, 256, 512))
        pts = richardson(rep)
        assert all(pt.stderr == 0.0 for pt in pts)
        fit = we.fit_rate([(pt.h, pt.extrapolated_error) for pt in pts])
        assert fit.slope >= 1.9

    def test_mc_extrapolation_consistent_with_oracle(self, problems):
        p = problems["ou"]
        mc = McConfig(n_paths=200_000, seed=3, finest_n=32, levels=(16, 32))
        pts = richardson(estimate_weak_error(p, mc, "implicit"))
        rep = oracle_report(p, "implicit", (16, 32))
        want = richardson(rep)[0].extrapolated_error
        assert abs(pts[0].extrapolated_error - want) <= 4.0 * pts[0].stderr

    def test_crn_shrinks_extrapolation_stderr(self, problems):
        # the coupled covariance must beat independent-levels error propagation
        mc = McConfig(n_paths=50_000, seed=4, finest_n=32, levels=(16, 32))
        rep = estimate_weak_error(problems["ou"], mc, "implicit")
        pt = richardson(rep)[0]
        naive = math.hypot(2.0 * rep.levels[1].stderr, rep.levels[0].stderr)
        assert pt.stderr < naive / 2.0

    def test_sampled_report_without_covariance_raises(self, problems):
        # coupled levels are correlated: without the covariance there is no
        # honest error bar for 2 E_{h/2} - E_h
        mc = McConfig(n_paths=2_000, seed=4, finest_n=32, levels=(16, 32))
        rep = estimate_weak_error(problems["ou"], mc, "implicit")
        with pytest.raises(ValueError, match="covariance"):
            richardson(dataclasses.replace(rep, covariance=None))

    def test_covariance_needs_sampling_units(self, problems):
        rep = oracle_report(problems["ou"], "implicit", (16, 32))
        with pytest.raises(ValueError, match="n_units"):
            dataclasses.replace(rep, covariance=np.zeros((2, 2)))

    def test_unmatched_levels_raise(self, problems):
        rep = oracle_report(problems["ou"], "implicit", (16, 48))
        with pytest.raises(ValueError):
            richardson(rep)

    def test_oracle_report_matches_module(self, problems):
        rep = oracle_report(problems["gbm"], "implicit", (16, 32))
        for lv in rep.levels:
            assert lv.source == "oracle"
            assert lv.stderr == 0.0
            assert lv.estimate == we.weak_error_exact(
                problems["gbm"], SchemeConfig(n_steps=lv.n_steps))
