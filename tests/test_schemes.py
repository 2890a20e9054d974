import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakerr as we
from weakerr.schemes import (MAX_H_LIP, NonFiniteResidual, SchemeConfig, check_step_size,
                             resolvent)


def _random_states(p, rng, n):
    if p.name == "gbm":
        return rng.uniform(0.5, 2.0, n)
    return rng.uniform(-2.0, 2.0, n)


class TestSh:
    """The resolvent S_h(x) = 1 / (1 - h b'(x)) at a problem's b'(x)."""

    def test_zero_drift_slope(self, problems):
        assert resolvent(problems["bm"].b_jet(1.7, order=1).deriv(1), 0.3) == 1.0

    def test_ou(self, problems):
        assert resolvent(problems["ou"].b_jet(0.0, order=1).deriv(1), 0.1) == \
            pytest.approx(1.0 / 1.1, abs=1e-15)

    def test_gbm(self, problems):
        assert resolvent(problems["gbm"].b_jet(2.0, order=1).deriv(1), 0.1) == \
            pytest.approx(1.0 / 0.995, abs=1e-15)

    def test_singular_resolvent(self):
        p = we.gbm_family_problem("steep", mu=10.0, s=0.2, f_poly=(0, 0, 1),
                                  x0=1.0, horizon=1.0)
        with pytest.raises(we.SingularSh):
            resolvent(p.b_jet(1.0, order=1).deriv(1), 0.1)


class TestExplicitStep:
    def test_pure_diffusion(self, problems):
        assert we.explicit_step(problems["bm"], 0.25, 0.0, 0.3) == pytest.approx(0.3)

    def test_zero_h_zero_dw_is_identity(self, problems):
        assert we.explicit_step(problems["ou"], 0.0, 1.3, 0.0) == 1.3

    def test_ou_by_hand(self, problems):
        # 1 - 0.1*1 + 0.2 = 1.1
        assert we.explicit_step(problems["ou"], 0.1, 1.0, 0.2) == pytest.approx(1.1, abs=1e-15)

    def test_vectorized(self, problems):
        x = np.array([0.0, 1.0, -1.0])
        out = we.explicit_step(problems["ou"], 0.1, x, np.zeros(3))
        assert np.allclose(out, 0.9 * x)


class TestImplicitStep:
    def test_zero_drift_reduces_to_explicit_bitwise(self, problems):
        p = problems["bm"]
        cfg = SchemeConfig(n_steps=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, dw, h = rng.normal(), rng.normal(0, 0.3), rng.uniform(0.01, 0.4)
            x_next, iters = we.implicit_step(p, cfg, h, x, dw)
            assert x_next == we.explicit_step(p, h, x, dw)
            assert iters <= 1

    def test_ou_closed_form_value(self, problems):
        p = problems["ou"]
        for solver in ("fixed_point", "newton", "closed_form_affine"):
            cfg = SchemeConfig(n_steps=10, solver=solver)
            x_next, _ = we.implicit_step(p, cfg, 0.1, 1.0, 0.0)
            assert x_next == pytest.approx(1.0 / 1.1, abs=1e-12)

    def test_solver_agreement_on_affine(self, problems):
        rng = np.random.default_rng(1)
        for name in ("ou", "gbm"):
            p = problems[name]
            for _ in range(25):
                x = float(_random_states(p, rng, 1)[0])
                dw, h = rng.normal(0, 0.2), rng.uniform(0.01, 0.4)
                outs = [we.implicit_step(p, SchemeConfig(n_steps=8, solver=s), h, x, dw)[0]
                        for s in ("fixed_point", "newton", "closed_form_affine")]
                assert max(outs) - min(outs) <= 10 * 1e-12

    def test_newton_is_exact_in_one_update_on_affine(self, problems):
        cfg = SchemeConfig(n_steps=10, solver="newton", fp_tol=1e-13)
        x_next, iters = we.implicit_step(problems["ou"], cfg, 0.1, 1.0, 0.2)
        assert iters == 1
        assert x_next == pytest.approx(1.2 / 1.1, abs=1e-14)

    def test_tanh_fixed_point_at_origin(self, problems):
        x_next, iters = we.implicit_step(problems["tanh"], SchemeConfig(n_steps=10),
                                         0.1, 0.0, 0.0)
        assert x_next == 0.0
        assert iters <= 2

    def test_residual_contract(self, problems):
        p = problems["tanh"]
        cfg = SchemeConfig(n_steps=10, fp_tol=1e-13)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, dw, h = rng.normal(), rng.normal(0, 0.3), rng.uniform(0.01, 0.4)
            y, _ = we.implicit_step(p, cfg, h, x, dw)
            xi = x + p.sigma_jet(x, order=0).value() * dw
            assert abs(y - xi - h * p.b_jet(y, order=0).value()) <= cfg.fp_tol

    def test_start_point_independence(self, problems):
        p = problems["tanh"]
        cfg = SchemeConfig(n_steps=10, fp_tol=1e-14)
        y_default, _ = we.implicit_step(p, cfg, 0.1, 0.7, 0.2)
        y_zero, _ = we.implicit_step(p, cfg, 0.1, 0.7, 0.2, start=0.0)
        assert abs(y_default - y_zero) <= 1e-12

    def test_no_convergence_raises(self, problems):
        cfg = SchemeConfig(n_steps=4, fp_tol=1e-16, fp_max_iter=1)
        with pytest.raises(we.NoConvergence) as exc:
            we.implicit_step(problems["tanh"], cfg, 0.25, 0.9, 0.5)
        assert exc.value.path_index is None  # a scalar state has no worst path

    def test_newton_names_the_largest_absolute_residual(self, problems):
        # Newton's first residual is y - h b(y) - xi = -h tanh(xi) at y = xi:
        # largest signed at path 1, largest in magnitude at path 2
        p = problems["tanh"]
        dw = np.array([0.1, -0.9, 0.3])
        cfg = SchemeConfig(n_steps=2, solver="newton", fp_tol=1e-16, fp_max_iter=1)
        with pytest.raises(we.NoConvergence) as exc:
            we.implicit_step(p, cfg, 0.5, np.full(3, p.x0), dw)
        res = -0.5 * np.tanh(p.x0 + p.sigma_jet(p.x0, order=0).value() * dw)
        assert (int(np.argmax(res)), int(np.argmax(np.abs(res)))) == (1, 2)
        assert exc.value.path_index == 2

    @pytest.mark.parametrize("solver", ["fixed_point", "newton"])
    def test_nan_residual_stops_the_solver_at_once(self, problems, solver):
        # a NaN state can never converge: the solver names its first lane
        # after one drift evaluation past the start, not after fp_max_iter
        p = problems["tanh"]
        calls = []

        def b_jet(x, order=4):
            calls.append(order)
            return p.b_jet(x, order)

        counted = dataclasses.replace(p, b_jet=b_jet)
        x = np.array([0.1, 0.2, np.nan, 0.4, np.nan])
        with pytest.raises(FloatingPointError) as exc:
            we.implicit_step(counted, SchemeConfig(n_steps=4, solver=solver), 0.25, x,
                             np.zeros(5))
        name = "fixed-point" if solver == "fixed_point" else "newton"
        assert str(exc.value) == f"{name} residual is nan"
        assert exc.value.path_index == 2
        assert len(calls) == (2 if solver == "fixed_point" else 1)
        with pytest.raises(FloatingPointError) as run:
            we.run_paths(p, SchemeConfig(n_steps=4, solver=solver), np.full((2, 4), np.nan))
        assert (str(run.value), run.value.step_index, run.value.path_index) == \
            (f"step 0: {name} residual is nan", 0, 0)

    def test_closed_form_rejects_nonaffine(self, problems):
        cfg = SchemeConfig(n_steps=10, solver="closed_form_affine")
        with pytest.raises(we.InvalidSolver):
            we.implicit_step(problems["tanh"], cfg, 0.1, 0.5, 0.0)

    def test_closed_form_rejects_nonaffine_at_inflection(self):
        # b'' vanishes at x = 0, so probing the drift there would let tanh
        # pass as affine and linearise every step taken from the origin.
        p = we.tanh_problem(x0=0.0)
        cfg = SchemeConfig(n_steps=4, solver="closed_form_affine")
        with pytest.raises(we.InvalidSolver):
            we.run_paths(p, cfg, np.zeros((3, 4)))

    def test_step_size_guard(self, problems):
        cfg = SchemeConfig(n_steps=1)
        with pytest.raises(we.StepSizeError) as step:
            we.implicit_step(problems["ou"], cfg, 1.0, 1.0, 0.0)
        with pytest.raises(we.StepSizeError) as grid:
            check_step_size(problems["ou"], cfg)
        assert str(step.value) == str(grid.value)

    @pytest.mark.parametrize("p", [
        we.get_problem("ou"),
        we.get_problem("tanh"),
        we.ou_family_problem("stiff", theta=12345.6, sigma=1.0, f_poly=(0.0, 0.0, 1.0),
                             x0=1.0, horizon=1.0),
        # the ceiling of T * lip_b / 0.5 is 955007 here, but 955006 passes
        we.ou_family_problem("ceiling-above", theta=43409.36363636364, sigma=1.0,
                             f_poly=(0.0, 0.0, 1.0), x0=1.0, horizon=11.0),
        # and 768775 here, which fails
        we.ou_family_problem("ceiling-below", theta=63492.32763791287, sigma=1.0,
                             f_poly=(0.0, 0.0, 1.0), x0=1.0, horizon=6.054077938236943),
        # 2**53 is the largest grid whose T / n still tells it from n - 1
        dataclasses.replace(we.get_problem("tanh"), name="at-2**53", lip_b=2.0**52),
    ], ids=lambda p: p.name)
    def test_guard_names_the_least_passing_grid(self, p):
        with pytest.raises(we.StepSizeError) as err:
            check_step_size(p, SchemeConfig(n_steps=1))
        n = int(re.search(r"raise n_steps to at least (\d+)$", str(err.value)).group(1))
        assert check_step_size(p, SchemeConfig(n_steps=n)) == p.horizon / n
        with pytest.raises(we.StepSizeError):
            check_step_size(p, SchemeConfig(n_steps=n - 1))

    @pytest.mark.parametrize("p", [
        we.ou_family_problem("ou", theta=1e30, sigma=1.0, f_poly=(0.0, 0.0, 1.0),
                             x0=1.0, horizon=1.0),
        we.gbm_family_problem("gbm", mu=1e30, s=0.2, f_poly=(0.0, 0.0, 1.0),
                              x0=1.0, horizon=1.0),
    ], ids=lambda p: p.name)
    def test_guard_past_float_resolution_names_the_bound(self, p):
        # T / n cannot tell n from n +- 1 near 2e30, so no integer is named
        fix = re.escape("raise n_steps above 2e+30") + "$"
        with pytest.raises(we.StepSizeError, match=fix):
            check_step_size(p, SchemeConfig(n_steps=64))
        with pytest.raises(we.StepSizeError, match=fix):
            we.implicit_step(p, SchemeConfig(n_steps=64), 1 / 64, 1.0, 0.0)

    def test_guard_with_infinite_lip_b_names_no_grid(self, problems):
        p = dataclasses.replace(problems["tanh"], lip_b=math.inf)
        with pytest.raises(we.StepSizeError, match="no grid passes$"):
            check_step_size(p, SchemeConfig(n_steps=10**6))


_STEPPERS = [(name, kind, solver) for name in ("bm", "ou", "gbm", "tanh")
             for kind, solver in (("explicit", None), ("implicit", "fixed_point"),
                                  ("implicit", "newton"))]
_STEPPERS += [("ou", "implicit", "closed_form_affine"),
              ("gbm", "implicit", "closed_form_affine")]


@pytest.mark.parametrize("name, kind, solver", _STEPPERS)
@given(bad=st.sampled_from([math.inf, -math.inf, math.nan]),
       bad_dw=st.floats(allow_nan=False, allow_infinity=False),
       rows=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), max_size=4),
       at=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_a_state_off_the_floats_stays_off_them(problems, name, kind, solver, bad, bad_dw,
                                               rows, at):
    # Each step adds its terms to the last state (x + sigma(x) dW first), so
    # a row whose state is +-inf or NaN is not finite after the step either,
    # or the step raises on it.  The Monte Carlo failure check relies on
    # this when it reads only the last states of a window.
    p = problems[name]
    at = min(at, len(rows))
    x = np.array([r[0] for r in rows[:at]] + [bad] + [r[0] for r in rows[at:]])
    dw = np.array([r[1] for r in rows[:at]] + [bad_dw] + [r[1] for r in rows[at:]])
    h = 1.0 / 16
    with np.errstate(all="ignore"):
        if kind == "explicit":
            y = we.explicit_step(p, h, x, dw)
        else:
            try:
                y, _ = we.implicit_step(p, SchemeConfig(n_steps=16, solver=solver), h, x, dw)
            except NonFiniteResidual:
                return
    assert not math.isfinite(y[at])


class TestContraction:
    @pytest.mark.parametrize("name", ["ou", "gbm", "tanh"])
    def test_iteration_error_ratio_bounded(self, problems, name):
        p = problems[name]
        h = 0.4 / max(p.lip_b, 0.8)
        bound = h * p.lip_b + 1e-9
        cfg = SchemeConfig(n_steps=max(1, math.ceil(p.horizon / h)))
        h = check_step_size(p, cfg)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = float(_random_states(p, rng, 1)[0])
            dw = rng.normal(0, math.sqrt(h))
            x_star, _ = we.implicit_step(
                p, SchemeConfig(n_steps=cfg.n_steps, fp_tol=1e-15, fp_max_iter=300),
                h, x, dw)
            xi = x + p.sigma_jet(x, order=0).value() * dw
            y, err_prev = xi, abs(xi - x_star)
            for _ in range(12):
                y = xi + h * p.b_jet(y, order=0).value()
                err = abs(y - x_star)
                if err_prev <= 1e-8:
                    break
                assert err <= bound * err_prev + 1e-15
                err_prev = err


@pytest.fixture
def run_path(full_paths):
    """One path through ``iter_paths``: its N+1 grid values."""
    return lambda p, cfg, increments: full_paths(p, cfg, np.atleast_2d(increments))[0]


class TestRunPath:
    def test_constant_path_for_zero_increments(self, problems, run_path):
        out = run_path(problems["bm"], SchemeConfig(n_steps=5), np.zeros(5))
        assert np.array_equal(out, np.zeros(6))

    def test_single_explicit_step(self, problems, run_path):
        # gbm keeps h * lip_b inside the guard even at N = 1
        p = problems["gbm"]
        cfg = SchemeConfig(n_steps=1, kind="explicit")
        out = run_path(p, cfg, [0.3])
        assert out[0] == p.x0
        assert out[1] == we.explicit_step(p, 1.0, p.x0, 0.3)

    def test_solvers_agree_along_paths(self, problems, run_path):
        p = problems["ou"]
        incs = np.random.default_rng(4).normal(0, 0.25, 16)
        path_fp = run_path(p, SchemeConfig(n_steps=16, solver="fixed_point"), incs)
        path_cf = run_path(p, SchemeConfig(n_steps=16, solver="closed_form_affine"), incs)
        assert np.max(np.abs(path_fp - path_cf)) <= 16 * 1e-12

    def test_wrong_length_rejected(self, problems, run_path):
        with pytest.raises(ValueError):
            run_path(problems["bm"], SchemeConfig(n_steps=4), np.zeros(5))

    def test_step_guard_applies(self, problems, run_path):
        with pytest.raises(we.StepSizeError):
            run_path(problems["tanh"], SchemeConfig(n_steps=1), [0.1])

    def test_failure_reports_step_index(self, problems, run_path):
        cfg = SchemeConfig(n_steps=4, fp_tol=1e-16, fp_max_iter=1)
        with pytest.raises(we.NoConvergence) as exc:
            run_path(problems["tanh"], cfg, [0.5, 0.5, 0.5, 0.5])
        assert exc.value.step_index == 0

    def test_iter_paths_checks_at_the_call(self, problems):
        # refused when the generator is made, before any state is asked for
        with pytest.raises(ValueError):
            we.iter_paths(problems["bm"], SchemeConfig(n_steps=4), np.zeros((1, 5)))
        with pytest.raises(we.StepSizeError):
            we.iter_paths(problems["tanh"], SchemeConfig(n_steps=1), [[0.1]])

    SPLIT_RUNS = [("tanh", "implicit", "fixed_point"), ("tanh", "implicit", "newton"),
                  ("ou", "implicit", "closed_form_affine"), ("tanh", "explicit", None)]

    @pytest.mark.parametrize("name, kind, solver", SPLIT_RUNS)
    def test_a_run_split_anywhere_keeps_the_bytes_of_the_whole(self, problems, name, kind,
                                                               solver):
        # continued with start=(k0, x), at every split and in one-step pieces;
        # the fixed-point count of each step is still the whole batch's
        p = problems[name]
        incs = we.rng.gaussian_increments(5, np.arange(300), 16, p.horizon / 16)
        cfg = SchemeConfig(n_steps=16, kind=kind, solver=solver)
        whole = we.run_paths(p, cfg, incs).tobytes()
        x0 = np.full(300, p.x0)
        for k0 in range(1, 16):
            head = we.run_paths(p, cfg, incs[:, :k0], start=(0, x0))
            assert we.run_paths(p, cfg, incs[:, k0:], start=(k0, head)).tobytes() == whole
        x = x0
        for k in range(16):
            x = we.run_paths(p, cfg, incs[:, k:k + 1], start=(k, x))
        assert x.tobytes() == whole

    @pytest.mark.parametrize("k0, width, n_states", [
        (6, 3, 2),    # runs past step 8
        (8, 1, 2),    # starts at the end
        (2, 0, 2),    # no step to take
        (-2, 2, 2),   # before the start
        (2.0, 2, 2),  # not a step number
        (2, 2, 3),    # three states for two rows
    ])
    def test_a_continued_run_is_checked_at_the_call(self, problems, k0, width, n_states):
        p, cfg = problems["ou"], SchemeConfig(n_steps=8)
        with pytest.raises(ValueError, match="the run ends at step 8"):
            we.iter_paths(p, cfg, np.zeros((2, width)), start=(k0, np.zeros(n_states)))
        assert we.run_paths(p, cfg, np.zeros((2, 2)), start=(6, np.zeros(2))).shape == (2,)

    def test_a_continued_run_names_the_step_of_the_whole_run(self, problems):
        cfg = SchemeConfig(n_steps=4, fp_tol=1e-16, fp_max_iter=1)
        with pytest.raises(we.NoConvergence) as exc:
            we.run_paths(problems["tanh"], cfg, [[0.5, 0.5]], start=(2, np.array([0.4])))
        assert exc.value.step_index == 2 and str(exc.value).startswith("step 2: ")

    def test_failure_reports_worst_path(self, problems):
        p = problems["tanh"]
        cfg = SchemeConfig(n_steps=2, fp_tol=1e-16, fp_max_iter=1)
        incs = np.array([[0.1, 0.0], [-0.2, 0.0], [0.3, 0.0], [0.9, 0.0], [-0.4, 0.0]])
        with pytest.raises(we.NoConvergence) as step:
            we.implicit_step(p, cfg, 0.5, np.full(5, p.x0), incs[:, 0])
        with pytest.raises(we.NoConvergence) as run:
            we.run_paths(p, cfg, incs)
        assert step.value.path_index == 3
        assert (run.value.step_index, run.value.path_index) == (0, 3)

    # SHA-256 of the full (2000, 65) grid of a 2000 x 64 tanh batch, pinned
    # before the fixed-point loop stopped forming h |b(y_next) - b(y)| arrays.
    TANH_PATH_SHA256 = {
        ("implicit", "fixed_point"):
            "6bd0419d9651be777f46438302e3d725e3f47e03f034b1e361fc1617498b6940",
        ("implicit", "newton"):
            "10536e08b2fb8a40a05fb5ae1d1e110c82faad63f9cf3fe7c417d790f39a5220",
        ("explicit", None):
            "0e919e645bd95381deef3a9cb123fc8b427f3853ed4b41bedf705c13c10d81c6",
    }

    @pytest.mark.parametrize("kind, solver", sorted(TANH_PATH_SHA256))
    def test_tanh_batch_bytes_pinned(self, problems, kind, solver, full_paths):
        p = problems["tanh"]
        incs = we.rng.gaussian_increments(5, np.arange(2000), 64, p.horizon / 64)
        cfg = SchemeConfig(n_steps=64, kind=kind, solver=solver)
        out = full_paths(p, cfg, incs)
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.TANH_PATH_SHA256[kind, solver]

    # closed_form_affine on ou, same increments; pinned before Monte Carlo
    # levels were handed to run_paths step-major.
    OU_CLOSED_FORM_SHA256 = "e71f3114c6f6c18d936ce867fc1c175470de7e422971e6b870530422f404e8dd"

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("name, kind, solver", [
        ("tanh", "implicit", "fixed_point"), ("tanh", "implicit", "newton"),
        ("tanh", "explicit", None), ("ou", "implicit", "closed_form_affine")])
    def test_memory_order_cannot_change_a_bit(self, problems, full_paths, name, kind, solver,
                                              layout):
        p = problems[name]
        incs = we.rng.gaussian_increments(5, np.arange(2000), 64, p.horizon / 64)
        if layout == "C":
            incs = np.ascontiguousarray(incs)
            assert incs.flags.c_contiguous and not incs.flags.f_contiguous
        elif layout == "F":
            incs = np.asfortranarray(incs)
            assert incs.flags.f_contiguous and not incs.flags.c_contiguous
        elif layout == "strided":
            wide = np.zeros((2000, 128))
            wide[:, ::2] = incs
            incs = wide[:, ::2]  # every other column of a wider array
            assert not (incs.flags.c_contiguous or incs.flags.f_contiguous)
        cfg = SchemeConfig(n_steps=64, kind=kind, solver=solver)
        out = full_paths(p, cfg, incs)
        want = (self.OU_CLOSED_FORM_SHA256 if name == "ou"
                else self.TANH_PATH_SHA256[kind, solver])
        assert hashlib.sha256(out.tobytes()).hexdigest() == want

    def test_run_paths_matches_run_path(self, problems, run_path, full_paths):
        p = problems["gbm"]
        cfg = SchemeConfig(n_steps=8)
        incs = np.random.default_rng(5).normal(0, 0.35, (6, 8))
        full = full_paths(p, cfg, incs)
        assert full.shape == (6, 9) and full.flags.c_contiguous
        for i in range(6):
            assert full[i, 0] == p.x0
            assert np.array_equal(full[i], run_path(p, cfg, incs[i]))
        terminal = we.run_paths(p, cfg, incs)
        assert np.array_equal(terminal, full[:, -1])

    def test_moment_boundedness_smoke(self, problems, full_paths):
        # full 1e5-path sweep lives in the acceptance suite
        p = problems["tanh"]
        rng = np.random.default_rng(6)
        sups = []
        for n in (8, 64):
            incs = rng.normal(0, math.sqrt(p.horizon / n), (2000, n))
            path = full_paths(p, SchemeConfig(n_steps=n), incs)
            sups.append(np.max(np.mean(path**4, axis=0)))
        assert max(sups) / min(sups) < 2.0


class TestPathwiseDerivative:
    def test_pure_diffusion_is_exact(self, problems):
        fd, theory = we.pathwise_derivative_check(
            problems["bm"], SchemeConfig(n_steps=8), 0.125, 0.4, 0.2, eps=1e-4)
        assert fd == pytest.approx(1.0, abs=1e-12)
        assert theory == 1.0

    def test_ou_matches_resolvent(self, problems):
        cfg = SchemeConfig(n_steps=10, fp_tol=1e-14, fp_max_iter=200)
        fd, theory = we.pathwise_derivative_check(problems["ou"], cfg, 0.1, 1.0, 0.3,
                                                  eps=1e-4)
        assert theory == pytest.approx(1.0 / 1.1, abs=1e-14)
        assert abs(fd - theory) <= 1e-8

    def test_tanh_central_difference(self, problems):
        cfg = SchemeConfig(n_steps=10, fp_tol=1e-14, fp_max_iter=200)
        fd, theory = we.pathwise_derivative_check(problems["tanh"], cfg, 0.1, 0.0, 0.1,
                                                  eps=1e-5)
        assert abs(fd - theory) <= 1e-7

    def test_requires_implicit_kind(self, problems):
        with pytest.raises(ValueError):
            we.pathwise_derivative_check(problems["ou"],
                                         SchemeConfig(n_steps=8, kind="explicit"),
                                         0.125, 1.0, 0.0, eps=1e-5)


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(n_steps=0)
        with pytest.raises(ValueError):
            SchemeConfig(n_steps=4, kind="midpoint")
        with pytest.raises(ValueError):
            SchemeConfig(n_steps=4, solver="bisect")
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SchemeConfig(n_steps=4, fp_tol=tol)

    @pytest.mark.parametrize("given", [
        {"solver": "newton"}, {"solver": "closed_form_affine"}, {"fp_tol": 1e-3},
        {"fp_max_iter": 1},
        {"solver": "newton", "fp_tol": 1e-3, "fp_max_iter": 1},
    ])
    def test_explicit_kind_refuses_solver_settings(self, given):
        # the explicit scheme solves no implicit step, so it could only ignore them
        with pytest.raises(ValueError, match="explicit") as exc:
            SchemeConfig(n_steps=8, kind="explicit", **given)
        assert all(name in str(exc.value) for name in given)

    @pytest.mark.parametrize("given", [
        {"solver": "fixed_point"}, {"fp_tol": 1e-12}, {"fp_max_iter": 100},
        {"fp_max_iter": 100, "fp_tol": 1e-12, "solver": "fixed_point"},
    ])
    def test_explicit_kind_refuses_the_implicit_defaults_too(self, given):
        # a setting given is refused whatever its value, named in the order
        # solver, fp_tol, fp_max_iter
        with pytest.raises(ValueError) as exc:
            SchemeConfig(n_steps=8, kind="explicit", **given)
        names = ", ".join(n for n in ("solver", "fp_tol", "fp_max_iter") if n in given)
        assert str(exc.value) == f"the explicit scheme solves no implicit step; got {names}"

    def test_settings_left_out(self):
        implicit = SchemeConfig(n_steps=8)
        assert (implicit.solver, implicit.fp_tol, implicit.fp_max_iter) == \
            ("fixed_point", 1e-12, 100)
        assert implicit == SchemeConfig(n_steps=8, solver="fixed_point", fp_tol=1e-12,
                                        fp_max_iter=100)
        explicit = SchemeConfig(n_steps=8, kind="explicit")
        assert (explicit.solver, explicit.fp_tol, explicit.fp_max_iter) == (None, None, None)

    def test_step_guard_constant(self, problems):
        # h * lip_b = 0.5 is allowed, anything beyond is not
        assert check_step_size(problems["tanh"], SchemeConfig(n_steps=2)) == 0.5
        assert MAX_H_LIP == 0.5


class TestCountsAndLevels:
    """Grid levels and every count are integers, checked by one rule in schemes."""

    COUNTS = {
        "n_paths": lambda p: we.McConfig(levels=(16,), n_paths=1000.0),
        "seed": lambda p: we.McConfig(levels=(16,), seed=1.5),
        "finest_n": lambda p: we.McConfig(levels=(16,), finest_n=64.0),
        "n_steps": lambda p: SchemeConfig(n_steps=8.5),
        "fp_max_iter": lambda p: SchemeConfig(n_steps=8, fp_max_iter=2.5),
        "quad_nodes": lambda p: we.leading_constant(p, we.PSI_I, quad_nodes=2.5),
    }

    @pytest.mark.parametrize("field", sorted(COUNTS))
    def test_non_integer_count_refused(self, problems, field):
        # each was accepted, then failed later with a TypeError or ran a
        # truncated value
        with pytest.raises(ValueError, match=field):
            self.COUNTS[field](problems["ou"])

    LEVEL_CALLERS = {
        "McConfig": lambda p, levels: we.McConfig(levels=levels),
        "oracle_report": lambda p, levels: we.oracle_report(p, "implicit", levels),
        "expansion_check": lambda p, levels: we.expansion_check(p, levels, quad_nodes=1),
    }

    @pytest.mark.parametrize("levels,message", [
        ((16.7, 32), "level 16.7 is not a positive integer"),
        ((0, 16), "level 0 is not a positive integer"),
        ((), "levels must be nonempty"),
    ], ids=["16.7", "0", "empty"])
    @pytest.mark.parametrize("caller", sorted(LEVEL_CALLERS))
    def test_bad_level_set_refused(self, problems, caller, levels, message):
        with pytest.raises(ValueError, match=message):
            self.LEVEL_CALLERS[caller](problems["ou"], levels)

    def test_level_set_sorts_and_returns_python_ints(self):
        levels = we.schemes.level_set((np.int64(64), 16, np.int32(16), 32))
        assert levels == (16, 32, 64)
        assert all(type(n) is int for n in levels)
