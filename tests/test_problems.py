import dataclasses
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.integrate import quad

import weakerr as we
from weakerr.cli import parse_problem_config
from weakerr.problems import ou_family_problem


def test_builtin_names(problems):
    assert sorted(problems) == ["bm", "gbm", "ou", "tanh"]
    assert we.get_problem("ou").name == "ou"
    with pytest.raises(ValueError):
        we.get_problem("nope")


def test_unknown_problem_lists_every_builtin(monkeypatch):
    with pytest.raises(ValueError) as err:
        we.get_problem("nope")
    assert str(err.value) == "unknown problem 'nope'; try one of bm, ou, gbm, tanh"
    # a new builtin is listed without an edit to the message
    extra = we.builtin_problems() + [we.tanh_problem("wide", c=0.5)]
    monkeypatch.setattr("weakerr.problems.builtin_problems", lambda: extra)
    with pytest.raises(ValueError, match="try one of bm, ou, gbm, tanh, wide$"):
        we.get_problem("nope")
    assert we.get_problem("wide") is extra[-1]


class TestExactTerminal:
    def test_bm_fourth_moment(self, problems):
        # E W_1^4 = 3, standard Gaussian fourth moment
        assert problems["bm"].exact_terminal() == pytest.approx(3.0, abs=1e-14)

    def test_ou_closed_form(self, problems):
        expected = math.exp(-2.0) + (1.0 - math.exp(-2.0)) / 2.0
        assert problems["ou"].exact_terminal() == pytest.approx(expected, abs=1e-14)

    def test_ou_against_transition_density_quadrature(self, problems):
        # independent oracle: integrate x^2 against the N(m, v) density
        m, v = math.exp(-1.0), (1.0 - math.exp(-2.0)) / 2.0
        val, _ = quad(lambda x: x * x * math.exp(-((x - m) ** 2) / (2 * v))
                      / math.sqrt(2 * math.pi * v), -12, 12)
        assert problems["ou"].exact_terminal() == pytest.approx(val, abs=1e-9)

    def test_gbm_closed_form_and_lognormal_moment(self, problems):
        assert problems["gbm"].exact_terminal() == pytest.approx(math.exp(0.14), abs=1e-14)
        # cross-check: second moment of lognormal(ln 1 + (mu - s^2/2)T, s^2 T)
        mu_log, var_log = 0.05 - 0.02, 0.04
        assert math.exp(2 * mu_log + 2 * var_log) == pytest.approx(math.exp(0.14), abs=1e-14)

    def test_tanh_has_no_closed_forms(self, problems):
        assert problems["tanh"].exact_terminal is None
        assert problems["tanh"].u_jet is None


class TestUJet:
    @pytest.mark.parametrize("name", ["bm", "ou", "gbm"])
    def test_terminal_condition_all_derivatives(self, problems, name):
        p = problems[name]
        for x in np.linspace(p.x0 - 3, p.x0 + 3, 9):
            uT = p.u_jet(p.horizon, x)
            for k in range(5):
                fk = P.polyval(x, P.polyder(p.f_poly, k))
                assert abs(uT.deriv(k) - fk) <= 1e-10 * max(1.0, abs(fk))

    @pytest.mark.parametrize("name", ["bm", "ou", "gbm"])
    def test_spatial_derivatives_match_finite_differences(self, problems, name):
        # independent oracle for the polynomial-jet code: central differences
        p = problems[name]
        t, dx = 0.3, 1e-5
        for x in (p.x0 - 1.0, p.x0 + 0.5):
            uj = p.u_jet(t, x)
            fd1 = (p.u_jet(t, x + dx).value() - p.u_jet(t, x - dx).value()) / (2 * dx)
            fd2 = (p.u_jet(t, x + dx).value() - 2 * uj.value()
                   + p.u_jet(t, x - dx).value()) / dx**2
            assert uj.deriv(1) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
            assert uj.deriv(2) == pytest.approx(fd2, rel=1e-5, abs=1e-4)

    def test_u_jet_has_full_valid_order(self, problems):
        assert problems["ou"].u_jet(0.5, 1.0).valid_order == 4


class TestKolmogorovResidual:
    def test_ou_spot_checks(self, problems):
        p = problems["ou"]
        for t, x in [(0.0, 1.0), (0.5, -2.0), (0.9, 3.5)]:
            assert we.kolmogorov_residual(p, t, x, 1e-5) <= 1e-8

    def test_gbm_spot_check(self, problems):
        assert we.kolmogorov_residual(problems["gbm"], 0.5, 1.0, 1e-5) <= 1e-8

    def test_constant_u_zero_drift_is_exactly_zero(self):
        p = ou_family_problem("const", theta=0.0, sigma=1.0, f_poly=(2.0,),
                              x0=0.0, horizon=1.0)
        assert we.kolmogorov_residual(p, 0.4, 0.3, 1e-5) == 0.0

    def test_preconditions(self, problems):
        with pytest.raises(ValueError):
            we.kolmogorov_residual(problems["tanh"], 0.1, 0.0, 1e-5)
        with pytest.raises(ValueError):
            we.kolmogorov_residual(problems["ou"], 1.0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            we.kolmogorov_residual(problems["ou"], 0.99999, 0.0, 1e-3)


def _law(p, t, log=False):
    """(m, s) of the map g = m + s*z, or of log g with ``log``, read at z = 0 and 1."""
    g = we.marginal_law(p, [t], [0.0, 1.0])[0]
    if log:
        g = np.log(g)
    return g[0], g[1] - g[0]


class TestMarginalLaw:
    def test_t_zero_is_dirac(self, problems):
        # every standard-normal point maps to x0, in both families
        z = np.linspace(-5.0, 5.0, 11)
        for name in ("ou", "gbm"):
            p = problems[name]
            grid = we.marginal_law(p, [0.0, 0.5], z)
            assert grid.shape == (2, 11)
            assert (grid[0] == p.x0).all()
            assert (grid[1] != p.x0).any()

    def test_bm_is_standard_gaussian_at_one(self, problems):
        m, sd = _law(problems["bm"], 1.0)
        assert m == pytest.approx(0.0, abs=1e-15)
        assert sd**2 == pytest.approx(1.0, abs=1e-12)

    def test_ou_long_time_variance_is_stationary(self):
        # stationary sd sqrt(sigma^2 / (2 theta)) = sqrt(1/2)
        p = ou_family_problem("ou_long", theta=1.0, sigma=1.0, f_poly=(0, 0, 1),
                              x0=1.0, horizon=50.0)
        assert _law(p, 50.0)[1] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_gbm_lognormal_parameters(self, problems):
        m, sd = _law(problems["gbm"], 1.0, log=True)
        assert m == pytest.approx(0.05 - 0.5 * 0.04, abs=1e-15)
        assert sd == pytest.approx(0.2, abs=1e-15)

    def test_tanh_has_no_marginal(self, problems):
        with pytest.raises(ValueError, match="no closed-form marginal law"):
            we.marginal_law(problems["tanh"], [0.5], [0.0])

    @pytest.mark.parametrize("t", [[-0.1], [0.5, 1.5], [np.nan], 0.5, [[0.5]]],
                             ids=["negative", "past-T", "nan", "scalar", "2-D"])
    def test_times_outside_the_horizon_or_not_1d_are_refused(self, problems, t):
        with pytest.raises(ValueError, match="horizon|1-D"):
            we.marginal_law(problems["ou"], t, [0.0])

    @pytest.mark.parametrize("name", ["ou", "gbm"])
    def test_rows_are_one_time_calls_written_into_out(self, problems, name):
        p, z = problems[name], np.linspace(-2.0, 2.0, 5)
        ts = np.array([0.0, 0.3, 1.0])
        out = np.full((3, 5), np.nan)
        assert we.marginal_law(p, ts, z, out=out) is out
        for row, t in zip(out, ts):
            assert row.tobytes() == we.marginal_law(p, [t], z)[0].tobytes()
        assert we.marginal_law(p, [], z).shape == (0, 5)

    def test_ou_law_matches_composed_exact_transitions(self, problems):
        # semigroup check: ten exact sub-transitions vs the one-shot law
        p = problems["ou"]
        n, t, steps = 1_000_000, 0.8, 10
        rng = np.random.default_rng(123)
        x = np.full(n, p.x0)
        dt = t / steps
        scale = math.exp(-dt)
        var = (1.0 - math.exp(-2 * dt)) / 2.0
        for _ in range(steps):
            x = scale * x + math.sqrt(var) * rng.standard_normal(n)
        m, sd = _law(p, t)
        assert abs(x.mean() - m) <= 4.0 * x.std() / math.sqrt(n)
        assert x.var() == pytest.approx(sd**2, rel=0.02)

    def test_gbm_law_matches_composed_exact_transitions(self, problems):
        p = problems["gbm"]
        n, t, steps = 1_000_000, 1.0, 8
        rng = np.random.default_rng(7)
        logx = np.zeros(n)
        dt = t / steps
        for _ in range(steps):
            logx += (0.05 - 0.02) * dt + 0.2 * math.sqrt(dt) * rng.standard_normal(n)
        m, sd = _law(p, t, log=True)
        assert abs(logx.mean() - m) <= 4.0 * logx.std() / math.sqrt(n)
        assert logx.var() == pytest.approx(sd**2, rel=0.02)


class TestCoefficientJets:
    def test_tanh_jets_match_finite_differences(self, problems):
        p = problems["tanh"]
        for x in (-1.3, 0.0, 0.6, 2.1):
            dx = 1e-6
            bj = p.b_jet(x)
            assert bj.value() == pytest.approx(math.tanh(x), abs=1e-15)
            fd_b1 = (math.tanh(x + dx) - math.tanh(x - dx)) / (2 * dx)
            assert bj.deriv(1) == pytest.approx(fd_b1, abs=1e-9)
            fd_b2 = (math.tanh(x + dx) - 2 * math.tanh(x) + math.tanh(x - dx)) / dx**2
            assert bj.deriv(2) == pytest.approx(fd_b2, abs=1e-3)
            sj = p.sigma_jet(x)
            s = lambda y: 0.25 * math.sqrt(1 + y * y)
            assert sj.value() == pytest.approx(s(x), abs=1e-15)
            assert sj.deriv(1) == pytest.approx((s(x + dx) - s(x - dx)) / (2 * dx), abs=1e-9)
            assert sj.deriv(2) == pytest.approx(
                (s(x + dx) - 2 * s(x) + s(x - dx)) / dx**2, abs=1e-3)

    @pytest.mark.parametrize("name", ["bm", "ou", "gbm", "tanh"])
    def test_low_order_jets_match_full_jet_bitwise(self, problems, name):
        # The steppers read order-0 and order-1 jets, the densities full
        # ones: both must see the same coefficients, bit for bit.  The tanh
        # jets hold exactly the slots asked for, up to b'' and sigma''.
        p = problems[name]
        xs = np.linspace(p.x0 - 3.0, p.x0 + 3.0, 101)

        def bits(v):
            return np.broadcast_to(np.asarray(v, dtype=float), xs.shape).tobytes()

        for jet in (p.b_jet, p.sigma_jet):
            full = jet(xs)
            for order in range(5):
                low = jet(xs, order=order)
                held = min(order, 2) + 1
                assert len(low.d) == held if name == "tanh" else len(low.d) >= held
                for k in range(len(low.d)):
                    assert bits(low.deriv(k)) == bits(full.deriv(k))
                if len(low.d) < 5:
                    with pytest.raises(we.InsufficientJetOrder):
                        low.deriv(len(low.d))

    def test_affine_jets_valid_order(self, problems):
        assert problems["ou"].b_jet(0.5).valid_order == 4
        assert problems["tanh"].b_jet(0.5).valid_order == 2
        assert problems["tanh"].sigma_jet(0.5).valid_order == 2

    def test_lip_b_bounds_observed_slopes(self, problems):
        for p in problems.values():
            xs = np.linspace(p.x0 - 3, p.x0 + 3, 41)
            slopes = [abs(p.b_jet(float(x)).deriv(1)) for x in xs]
            assert max(slopes) <= p.lip_b + 1e-12


# Valid keyword arguments of each builder, to spoil one at a time.
BUILDER_ARGS = {
    we.ou_family_problem: dict(theta=1.0, sigma=1.0, f_poly=(0.0, 0.0, 1.0), x0=1.0,
                               horizon=1.0),
    we.gbm_family_problem: dict(mu=0.05, s=0.2, f_poly=(0.0, 0.0, 1.0), x0=1.0,
                                horizon=1.0),
    we.affine_problem: dict(model=we.AffineModel(b1=-1.0, s0=1.0, s1=0.0),
                            f_poly=(0.0, 0.0, 1.0), x0=1.0, horizon=1.0),
    we.tanh_problem: dict(c=0.25, x0=0.4, horizon=1.0),
}


class TestBuilderValidation:
    def test_gbm_needs_positive_x0(self):
        with pytest.raises(ValueError):
            we.gbm_family_problem("bad", mu=0.1, s=0.2, f_poly=(0, 0, 1),
                                  x0=-1.0, horizon=1.0)

    def test_payoff_degree_capped_at_four(self):
        with pytest.raises(ValueError):
            ou_family_problem("bad", theta=1.0, sigma=1.0,
                              f_poly=(0, 0, 0, 0, 0, 1), x0=0.0, horizon=1.0)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            ou_family_problem("bad", theta=1.0, sigma=0.0, f_poly=(0, 0, 1),
                              x0=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            we.tanh_problem(c=0.0)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("build", list(BUILDER_ARGS), ids=lambda b: b.__name__)
    def test_horizon_must_be_positive(self, build, horizon):
        with pytest.raises(ValueError, match="horizon"):
            build("x", **{**BUILDER_ARGS[build], "horizon": horizon})
        with pytest.raises(ValueError, match="horizon"):
            dataclasses.replace(build("x", **BUILDER_ARGS[build]), horizon=horizon)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build,key", [(b, k) for b, args in BUILDER_ARGS.items()
                                           for k in args if k != "model"],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_non_finite_parameters_refused(self, build, key, bad):
        kwargs = {**BUILDER_ARGS[build], key: (0.0, bad, 1.0) if key == "f_poly" else bad}
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            build("x", **kwargs)

    @pytest.mark.parametrize("mu,s,f_poly", [
        (0.05, 1e200, (0.0, 0.0, 1.0)),       # s1**2 raises OverflowError
        (0.05, 1e200, (1.0,)),                # s1**2 is computed at j = 0 too
        (0.05, 1e154, (0.0, 0.0, 0.0, 0.0, 1.0)),  # s1**2 finite, 6 s1**2 not
        (1e308, 0.2, (0.0, 0.0, 1.0)),        # 2*b1 overflows
    ])
    def test_lognormal_exponents_must_be_finite(self, mu, s, f_poly):
        with pytest.raises(ValueError, match=r"exponents .* not finite at b1 = .*, s1 = "):
            we.gbm_family_problem("x", mu=mu, s=s, f_poly=f_poly, x0=1.0, horizon=1.0)

    @pytest.mark.parametrize("theta", [1.0, 0.0, -1.0])
    @pytest.mark.parametrize("sigma", [1e200, 1.4e154])
    def test_gaussian_variance_must_be_finite(self, theta, sigma):
        # sigma**2 raises OverflowError: refused by name at build time
        with pytest.raises(ValueError, match=r"sigma\^2 .* not finite at s0 = "):
            we.ou_family_problem("x", theta=theta, sigma=sigma, f_poly=(0.0, 0.0, 1.0),
                                 x0=1.0, horizon=1.0)

    def test_largest_finite_lognormal_exponents_accepted(self):
        p = we.gbm_family_problem("x", mu=0.05, s=1e154, f_poly=(0.0, 1.0), x0=1.0,
                                  horizon=1.0)
        assert p.exact_terminal() == pytest.approx(math.exp(0.05))

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_lip_b_must_be_nonnegative(self, problems, bad):
        # either one would switch the step-size guard h * lip_b > 0.5 off
        with pytest.raises(ValueError, match="'lip_b' must be nonnegative"):
            dataclasses.replace(problems["tanh"], lip_b=bad)

    def test_infinite_lip_b_allowed(self, problems):
        assert dataclasses.replace(problems["tanh"], lip_b=math.inf).lip_b == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["b1", "s0", "s1"])
    def test_affine_model_refuses_non_finite(self, key, bad):
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            we.AffineModel(**{"b1": 0.1, "s0": 1.0, "s1": 0.0, key: bad})

    def test_gaussian_overflow_names_the_variance_power(self):
        # var**2 raises OverflowError in Python float arithmetic, whose
        # message is only "(34, 'Numerical result out of range')"
        p = we.ou_family_problem("x", theta=1.0, sigma=1e100,
                                 f_poly=(0.0, 0.0, 0.0, 0.0, 1.0), x0=1.0, horizon=1.0)
        var = float(1e200 * np.expm1(-2.0) / -2.0)
        with pytest.raises(OverflowError) as exc:
            p.exact_terminal()
        assert str(exc.value) == (
            f"var**2 overflows in the closed-form expectation at var = {var!r} "
            f"(from the transition variance, b1 = -1.0, sigma = 1e+100, tau = 1.0)")

    def test_gaussian_overflow_names_the_scale_power(self):
        p = we.ou_family_problem("x", theta=-400.0, sigma=1.0, f_poly=(0.0, 0.0, 1.0),
                                 x0=1.0, horizon=1.0)
        with pytest.raises(OverflowError) as exc, np.errstate(over="ignore"):
            p.u_jet(np.array([0.0, 0.5]), 1.0)
        assert str(exc.value) == (
            f"scale**2 overflows in the closed-form expectation at "
            f"scale = {float(np.exp(400.0))!r} (from e^(b1*tau), b1 = 400.0, tau = 1.0)")

    @pytest.mark.parametrize("s,f_poly,horizon,message", [
        (12.0, (0.0, 0.0, 0.0, 0.0, 1.0), 1.0,
         "exp(r4*tau) overflows in the closed-form expectation at r4*tau = 864.2 "
         "(from r4 = 4*b1 + 6*s1^2, b1 = 0.05, s1 = 12.0, tau = 1.0)"),
        (0.2, (0.0, 0.0, 1.0), 1e10,
         "exp(r1*tau) overflows in the closed-form expectation at r1*tau = 500000000.0 "
         "(from r1 = 1*b1 + 0*s1^2, b1 = 0.05, s1 = 0.2, tau = 10000000000.0)"),
    ], ids=["s=12", "horizon=1e10"])
    def test_lognormal_overflow_names_the_exponent(self, s, f_poly, horizon, message):
        # math.exp raises OverflowError("math range error")
        p = we.gbm_family_problem("x", mu=0.05, s=s, f_poly=f_poly, x0=1.0,
                                  horizon=horizon)
        with pytest.raises(OverflowError) as exc:
            p.exact_terminal()
        assert str(exc.value) == message


# Custom problems of each family, built the way ``--config`` builds them.
CONFIGS = {
    "cfg_ou": "name = cfg_ou\ntheta = 0.5\nsigma = 0.7\nx0 = 0.3\nhorizon = 2.0\n"
              "f_poly = 1, -0.5, 0.25, 0.1, 0.05\n",
    "cfg_gbm": "name = cfg_gbm\nmu = -0.1\ns = 0.3\nx0 = 1.5\nhorizon = 0.5\n"
               "f_poly = 0.5, 1, 0, -0.2, 0.03\n",
}


@pytest.fixture(scope="module")
def affine_problems(problems):
    out = {name: problems[name] for name in ("bm", "ou", "gbm")}
    out.update((name, parse_problem_config(text)) for name, text in CONFIGS.items())
    return out


class TestAffineBitsPinned:
    # Float hex of exact_terminal(), weak_error_exact at N = 16 (implicit),
    # and the five u_jet(0.3, x) slots at x = x0 - 1, x0 + 0.5, x0 + 2, as
    # computed when each family built its own closures.
    PINNED = {
        'bm': (
            '0x1.8000000000000p+1', '0x0.0p+0',
            (
                '0x1.aae147ae147adp+2 -0x1.8ccccccccccccp+3 0x1.4666666666666p+4'
                ' -0x1.8000000000000p+4 0x1.8000000000000p+4',
                '0x1.4a8f5c28f5c28p+1 0x1.2ccccccccccccp+2 0x1.6ccccccccccccp+3'
                ' 0x1.8000000000000p+3 0x1.8000000000000p+4',
                '0x1.1228f5c28f5c2p+5 0x1.8666666666666p+5 0x1.c333333333333p+5'
                ' 0x1.8000000000000p+5 0x1.8000000000000p+4',
            ),
        ),
        'ou': (
            '0x1.22a555477f03ap-1', '-0x1.1fff15bb07900p-7',
            (
                '0x1.81be0af127e3bp-2 0x0.0p+0 0x1.f907d43b60715p-2'
                ' 0x0.0p+0 0x0.0p+0',
                '0x1.dcf36cd9fa31ap-1 0x1.7ac5df2c88550p-1 0x1.f907d43b60715p-2'
                ' 0x0.0p+0 0x0.0p+0',
                '0x1.4c4c28bf8b3c3p+1 0x1.7ac5df2c88550p+0 0x1.f907d43b60715p-2'
                ' 0x0.0p+0 0x0.0p+0',
            ),
        ),
        'gbm': (
            '0x1.267857fb8997ep+0', '0x1.014ee8ace8000p-13',
            (
                '0x0.0p+0 0x0.0p+0 0x1.1a5bc4e2bf018p+1'
                ' 0x0.0p+0 0x0.0p+0',
                '0x1.3da73d7f16e1bp+1 0x1.a789a7541e824p+1 0x1.1a5bc4e2bf018p+1'
                ' 0x0.0p+0 0x0.0p+0',
                '0x1.3da73d7f16e1bp+3 0x1.a789a7541e824p+2 0x1.1a5bc4e2bf018p+1'
                ' 0x0.0p+0 0x0.0p+0',
            ),
        ),
        'cfg_ou': (
            '0x1.18af9022b6e57p+0', '-0x1.02ab03a40f100p-7',
            (
                '0x1.44c87f3437f20p+0 -0x1.fb907a02e1f4bp-3 0x1.cbcd62db26ca9p-4'
                ' 0x1.3445baa537ea3p-6 0x1.48129574be2ecp-5',
                '0x1.0ad115873f0d3p+0 -0x1.24e8126b79050p-5 0x1.7bf8fe75635e6p-3'
                ' 0x1.431f5ec0dc9dap-4 0x1.48129574be2ecp-5',
                '0x1.400af223b41cap+0 0x1.6a4fddb30ed1ap-2 0x1.654adfc76f28dp-2'
                ' 0x1.1c96a76c35a05p-3 0x1.48129574be2ecp-5',
            ),
        ),
        'cfg_gbm': (
            '0x1.6cbe6e85a2693p+0', '0x1.438a9bf2a8000p-14',
            (
                '0x1.ef31d738f1452p-1 0x1.b16b51ffa764fp-1 -0x1.01f94deef2f37p-1'
                ' -0x1.a52bb5ea66896p-1 0x1.7b1b97cdfd760p-1',
                '0x1.5d14cb1e9a6a3p+0 -0x1.ac38945533a0ap-2 -0x1.cf3bd406cf9ccp-1'
                ' 0x1.26fb5b952b4f4p-2 0x1.7b1b97cdfd760p-1',
                '0x1.2ca5c3d0c3080p-5 -0x1.08e48fa685268p+0 0x1.70ff76e19c070p-2'
                ' 0x1.661388bfc8ec5p+0 0x1.7b1b97cdfd760p-1',
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS) + ["bm", "gbm", "ou"])
    def test_closed_form_bits(self, affine_problems, name):
        p = affine_problems[name]
        terminal, weak16, u_slots = self.PINNED[name]
        assert p.exact_terminal() == float.fromhex(terminal)
        assert we.weak_error_exact(p, we.SchemeConfig(n_steps=16)) == float.fromhex(weak16)
        for dx, slots in zip((-1.0, 0.5, 2.0), u_slots):
            got = p.u_jet(0.3, p.x0 + dx).d
            assert [float(v) for v in got] == [float.fromhex(s) for s in slots.split()]

    @pytest.mark.parametrize("name", sorted(CONFIGS) + ["bm", "gbm", "ou"])
    def test_coefficients_follow_affine_model(self, affine_problems, name):
        p = affine_problems[name]
        a = p.affine
        assert p.lip_b == abs(a.b1)
        for x in (p.x0, np.linspace(p.x0 - 3.0, p.x0 + 3.0, 13)):
            for jet, want in ((p.b_jet(x), (a.b1 * x, a.b1)),
                              (p.sigma_jet(x), (a.s0 + a.s1 * x, a.s1))):
                assert jet.valid_order == 4
                for k in range(5):
                    expect = want[k] if k < 2 else 0.0
                    assert np.array_equal(np.broadcast_to(jet.deriv(k), np.shape(x)),
                                          np.broadcast_to(expect, np.shape(x)))


# ---------------------------------------------------------------------------
# The per-term code that _poly_jet and _gaussian_push replaced, kept as the
# reference their bits must match.
# ---------------------------------------------------------------------------

def _poly_jet_per_pair(coeffs, x):
    """One np.float_power call per (k, j) pair."""
    out = []
    for k in range(5):
        acc = 0.0
        for j in range(k, len(coeffs)):
            acc += coeffs[j] * math.perm(j, k) * np.float_power(x, j - k)
        out.append(acc)
    return tuple(out)


def _gaussian_central_moment(k, var):
    if k % 2 == 1:
        return 0.0
    acc = 1.0
    for j in range(1, k, 2):
        acc *= j
    return acc * var ** (k // 2)


def _gaussian_poly_push(coeffs, scale, var):
    out = [0.0] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for i in range(j + 1):
            out[i] += c * math.comb(j, i) * scale**i * _gaussian_central_moment(j - i, var)
    return tuple(out)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestSameBitsAsPerTermCode:
    PAYOFFS = [(0.7,), (0.3, -1.1), (0.0, 0.0, 1.0), (0.1, -0.4, 0.3, 0.2),
               (0.3, -0.2, 0.5, 0.1, 0.05), (0.0, -0.0, -1.5, 0.0, 2.0)]
    XS = [0.0, -0.0, -1.7, 2.3, 1e-3, -np.inf, np.nan, np.float64(-0.0), 3,
          np.array(-2.5), np.array([0.0, -0.0, -1.7, 2.3, 1e-3, -3.9, 1e5, -np.inf,
                                     np.inf, np.nan])]

    @pytest.mark.parametrize("coeffs", PAYOFFS, ids=lambda c: f"deg{len(c) - 1}")
    def test_poly_jet_matches_one_power_per_pair(self, coeffs):
        for x in self.XS:
            with np.errstate(invalid="ignore"):  # inf - inf at x = +-inf
                got = we.problems._poly_jet(coeffs, x).d
                want = _poly_jet_per_pair(coeffs, x)
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.shape(g) == np.shape(w)
                assert _hex(g) == _hex(w)

    @pytest.mark.parametrize("coeffs", PAYOFFS, ids=lambda c: f"deg{len(c) - 1}")
    def test_poly_jet_with_coefficient_columns(self, coeffs):
        # the (n_t, 1) columns u_jet stacks over time nodes, on an (n_t, 64) grid
        rng = np.random.default_rng(len(coeffs))
        cols = tuple(rng.normal(size=(5, 1)) * (c != 0.0) for c in coeffs)
        x = np.concatenate([rng.normal(scale=3.0, size=(5, 62)),
                            np.full((5, 1), -0.0), np.zeros((5, 1))], axis=1)
        got = we.problems._poly_jet(cols, x).d
        want = _poly_jet_per_pair(cols, x)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert _hex(g) == _hex(w)

    @pytest.mark.parametrize("coeffs", PAYOFFS, ids=lambda c: f"deg{len(c) - 1}")
    def test_poly_jet_computes_each_power_once(self, coeffs, monkeypatch):
        calls = []
        float_power = np.float_power

        def counting(x, e):
            calls.append(e)
            return float_power(x, e)

        monkeypatch.setattr(we.problems.np, "float_power", counting)
        we.problems._poly_jet(coeffs, np.linspace(-2.0, 2.0, 9))
        # x^0 = 1 and x^1 = x need no pow
        assert sorted(calls) == list(range(2, len(coeffs)))

    PUSHED = {
        "bm": (0.0, 1.0, (0.0, 0.0, 0.0, 0.0, 1.0), 1.0),
        "ou": (-1.0, 1.0, (0.0, 0.0, 1.0), 1.0),
        "ou3": (-0.4, 0.8, (0.1, -0.4, 0.3, -0.2), 2.5),
        "ou4": (-0.7, 0.6, (0.3, -0.2, 0.5, 0.1, 0.05), 1.0),
    }

    @pytest.mark.parametrize("name", sorted(PUSHED))
    def test_gaussian_push_matches_per_term_loop(self, name):
        b1, s0, f_poly, horizon = self.PUSHED[name]
        pushed = we.problems._gaussian_push(f_poly, b1, s0)
        for tau in (0.0, 0.3, horizon, np.float64(0.3), np.float64(horizon)):
            want = _gaussian_poly_push(f_poly, *we.problems._ou_transition(b1, s0, tau))
            assert _hex(pushed(tau)) == _hex(want)

    def test_gaussian_push_keeps_the_odd_moment_zeros(self):
        # at b1 = 800, tau = 1 scale and var overflow to inf, so the odd
        # moments' terms inf * 0 make the x and x^2 coefficients NaN
        f_poly = (0.1, -0.4, 0.3, -0.2)
        pushed = we.problems._gaussian_push(f_poly, 800.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _gaussian_poly_push(f_poly, *we.problems._ou_transition(800.0, 1.0, 1.0))
            got = pushed(1.0)
        assert _hex(got) == _hex(want) == ["inf", "nan", "nan", "-inf"]

    @pytest.mark.parametrize("name", sorted(PUSHED))
    def test_problem_pushes_through_the_table(self, name):
        # exact_terminal and u_jet read the same push: E f(X_T) = q(x0) at
        # tau = T, and u(t, .) has the coefficients of the push at T - t
        b1, s0, f_poly, horizon = self.PUSHED[name]
        p = we.affine_problem(name, we.problems.AffineModel(b1=b1, s0=s0, s1=0.0),
                              f_poly, 0.4, horizon)
        push = lambda tau: _gaussian_poly_push(f_poly, *we.problems._ou_transition(b1, s0, tau))
        assert p.exact_terminal() == float(P.polyval(0.4, push(horizon)))
        t = np.array([0.0, 0.3 * horizon, horizon])
        x = np.linspace(-1.0, 1.0, 5)
        got = p.u_jet(t[:, None], x).d
        for row, s in enumerate(t):
            want = _poly_jet_per_pair(push(horizon - s), x)
            for g, w in zip(got, want):
                assert _hex(np.broadcast_to(g, (3, 5))[row]) == _hex(np.broadcast_to(w, (5,)))
