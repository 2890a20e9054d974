import math

import pytest

import weakerr as we
from weakerr.expansion import PSI_E, PSI_I
from weakerr.rates import NOISE_FLOOR, TooFewPoints, expansion_check, fit_rate


class TestFitRate:
    def test_exact_first_order_line(self):
        pts = [(h, 3.0 * h) for h in (0.1, 0.05, 0.025, 0.0125)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order_line(self):
        pts = [(h, 2.0 * h * h) for h in (0.1, 0.05, 0.025)]
        assert fit_rate(pts).slope == pytest.approx(2.0, abs=1e-12)

    def test_sign_is_ignored(self):
        pts = [(h, -(3.0 * h)) for h in (0.1, 0.05, 0.025)]
        assert fit_rate(pts).slope == pytest.approx(1.0, abs=1e-12)

    def test_noise_floor_exclusion_is_recorded(self):
        pts = [(0.1, 0.3), (0.05, 0.15), (0.025, 0.075), (0.0125, NOISE_FLOOR / 10)]
        fit = fit_rate(pts)
        assert fit.n_excluded == 1
        assert len(fit.points) == 3

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_rate([(0.1, 0.1), (0.05, 0.05)])
        with pytest.raises(TooFewPoints):
            fit_rate([(0.1, 0.0), (0.05, 0.0), (0.025, 0.0)])

    def test_r_squared_stays_in_unit_interval(self):
        # errors equal to within an ulp or two of their logs: the fitted
        # residuals are rounding, so 1 - ss_res/ss_tot read -2.17 here
        errs = ["-0x1.e14224efa9967p+311"] * 5 + ["-0x1.e14224efa977ap+311"]
        pts = [(2.0**-k, float.fromhex(e)) for k, e in zip(range(4, 10), errs)]
        assert fit_rate(pts).r_squared == 1.0
        noisy = [(0.1, 0.3), (0.05, 0.02), (0.025, 0.2), (0.0125, 0.01)]
        assert 0.0 <= fit_rate(noisy).r_squared <= 1.0

    @pytest.mark.parametrize("points", [
        [(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)],
        [(0.1, 1.0), (0.05, NOISE_FLOOR / 10), (0.1, 2.0), (0.1, 3.0)],
    ])
    def test_one_step_size_has_no_slope(self, points):
        # numpy's polyfit once gave slope -0.1297 and R^2 0.0 with a RankWarning
        with pytest.raises(ValueError, match="two distinct step sizes; every h is 0.1$"):
            fit_rate(points)

    def test_positive_h_required(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 0.1), (-0.05, 0.05), (0.025, 0.025)])

    def test_oracle_sweep_is_first_order(self, problems):
        levels = (16, 32, 64, 128, 256, 512)
        for name in ("ou", "gbm"):
            p = problems[name]
            pts = [(p.horizon / n,
                    we.weak_error_exact(p, we.SchemeConfig(n_steps=n)))
                   for n in levels]
            fit = fit_rate(pts)
            assert 0.95 <= fit.slope <= 1.05
            assert fit.r_squared >= 0.999


class TestExpansionCheck:
    def test_ou_residual_is_second_order(self, problems):
        table = expansion_check(problems["ou"], (16, 32, 64, 128, 256, 512))
        assert table.psi_name == "psi_i"
        assert table.residual_fit is not None
        assert table.residual_fit.slope >= 1.9
        for row in table.rows:
            assert abs(row.second_order_residual) < abs(row.weak_err)

    def test_wrong_density_fails_to_cancel(self, problems):
        table = expansion_check(problems["ou"], (16, 32, 64, 128, 256, 512),
                                kind=PSI_E)
        assert table.residual_fit.slope < 1.5

    def test_bm_is_identically_zero(self, problems):
        table = expansion_check(problems["bm"], (16, 32, 64))
        assert table.residual_fit is None
        for row in table.rows:
            assert row.weak_err == pytest.approx(0.0, abs=1e-12)
            assert row.h_times_c1 == pytest.approx(0.0, abs=1e-13)

    def test_rows_use_requested_levels(self, problems):
        table = expansion_check(problems["gbm"], (64, 16, 32), kind=PSI_I)
        assert [r.n_steps for r in table.rows] == [16, 32, 64]
        assert table.rows[0].h == 1.0 / 16
        for row in table.rows:
            assert row.second_order_residual == row.weak_err - row.h_times_c1

    @pytest.mark.parametrize("name", ["ou", "gbm"])
    def test_too_few_levels_are_refused(self, problems, name):
        # residual_fit = None means every residual is below the noise floor;
        # two residuals above it are too few to fit, not a vanishing residual
        with pytest.raises(TooFewPoints):
            expansion_check(problems[name], (16, 32))

    def test_bm_with_two_levels_has_no_fit(self, problems):
        assert expansion_check(problems["bm"], (16, 32)).residual_fit is None
