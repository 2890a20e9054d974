import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import weakerr as we
from weakerr import rng
from weakerr.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, build_parser, \
    main, parse_problem_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOracle:
    def test_prints_weak_error_json(self, capsys, problems):
        code, out, _ = run_cli(capsys, "oracle", "--problem", "ou",
                               "--scheme", "implicit", "--n-steps", "64")
        assert code == EXIT_OK
        payload = json.loads(out)
        want = we.weak_error_exact(problems["ou"], we.SchemeConfig(n_steps=64))
        assert payload["weak_error"] == want
        assert payload["h"] == 1.0 / 64

    def test_unknown_problem_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--problem", "nope", "--n-steps", "8")
        assert code == EXIT_CONFIG
        assert "unknown problem" in err

    def test_step_size_refusal_names_a_passing_grid(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--problem", "ou", "--n-steps", "1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.endswith("raise n_steps to at least 2\n")
        assert run_cli(capsys, "oracle", "--problem", "ou", "--n-steps", "2")[0] == EXIT_OK

    def test_step_size_refusal_past_float_resolution(self, capsys, tmp_path):
        path = tmp_path / "prob.cfg"
        path.write_text("theta = 1e30\nsigma = 1\nhorizon = 1\n")
        code, out, err = run_cli(capsys, "oracle", "--config", str(path), "--n-steps", "64")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.endswith("raise n_steps above 2e+30\n")

    def test_tanh_has_no_oracle(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--problem", "tanh", "--n-steps", "64")
        assert code == EXIT_CONFIG


class TestC1AndPsi:
    def test_c1_json(self, capsys):
        code, out, _ = run_cli(capsys, "c1", "--problem", "ou", "--quad-nodes", "16")
        assert code == EXIT_OK
        payload = json.loads(out)
        hand = math.exp(-2) / 2 - (1 - math.exp(-2)) / 4
        assert payload["value"] == pytest.approx(hand, abs=1e-12)
        assert payload["abs_err_est"] >= 0.0

    def test_psi_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--problem", "ou", "--kind", "psi_i",
                               "--grid", "4x5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,psi"
        assert len(lines) == 1 + 4 * 5

    # SHA-256 of the CSV as printed when psi_at took one scalar x per row.
    PSI_GRID_SHA256 = {
        ("ou", "psi_i"): "155be42b8864aa314700f090f527c8d187673c4132a771e148b282581099681d",
        ("gbm", "psi_i"): "db28f634d94849a4bba0e7aefb76f338fa44229e1c2e0b923966a1781d79d5f2",
        ("ou", "psi_e"): "8ae085fd67ae081e272856e3620429d7e620494f909b1d76797c5735af4dc002",
        ("gbm", "psi_e"): "f60d72aa09b6ace4c76e9a3671ec12967edccc4c4d47b5de7f8241549c6e1cb3",
        ("ou", "psi_ih"): "e2fa330394c0ccd6e7689bf3d4a41f10e860cf95ac5e8c57f4f5fde25a3c3583",
        ("gbm", "psi_ih"): "8a2d673f62a52847e0122e8f06b67d8d973c844be5dbeb07ab6ac03750dd279c",
    }

    @pytest.mark.parametrize("problem,kind", sorted(PSI_GRID_SHA256))
    def test_psi_grid_bytes_pinned(self, capsys, problem, kind):
        h = ("--h", "0.01") if kind == "psi_ih" else ()
        code, out, _ = run_cli(capsys, "psi", "--problem", problem, "--kind", kind,
                               *h, "--grid", "5x7")
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.PSI_GRID_SHA256[problem, kind]

    def test_psi_ih_needs_h(self, capsys):
        code, _, err = run_cli(capsys, "psi", "--problem", "ou", "--kind", "psi_ih")
        assert code == EXIT_CONFIG
        code, out, _ = run_cli(capsys, "psi", "--problem", "ou", "--kind", "psi_ih",
                               "--h", "0.05", "--grid", "2x2")
        assert code == EXIT_OK

    @pytest.mark.parametrize("h", ["nan", "inf", "-inf"])
    def test_psi_ih_needs_finite_h(self, capsys, h):
        code, out, err = run_cli(capsys, "psi", "--problem", "ou", "--kind", "psi_ih",
                                 f"--h={h}", "--grid", "2x2")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "finite h > 0" in err

    def test_non_finite_psi_table_is_not_written(self, capsys, tmp_path):
        # u's quartic coefficient is about 4e300, so psi overflows at t = 0
        cfg = tmp_path / "prob.cfg"
        cfg.write_text("mu = 0.05\ns = 10\nf_poly = 0,0,0,0,1e40\n")
        path = tmp_path / "psi.csv"
        for out_args in ((), ("--out", str(path))):
            code, out, err = run_cli(capsys, "psi", "--config", str(cfg), "--grid", "3x3",
                                     *out_args)
            assert code == EXIT_NUMERICAL
            assert out == ""
            assert err.startswith("weakerr: numerical failure: psi on problem 'custom': ")
        assert not path.exists()

    def test_psi_times_stay_inside_short_horizon(self, capsys, tmp_path):
        cfg = tmp_path / "prob.cfg"
        cfg.write_text("theta = 1.0\nhorizon = 0.0005\n")
        code, out, _ = run_cli(capsys, "psi", "--config", str(cfg), "--grid", "3x1")
        assert code == EXIT_OK
        ts = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert len(ts) == 3 and ts[0] == 0.0
        assert all(0.0 <= t < 0.0005 for t in ts)

    def test_psi_unavailable_for_tanh(self, capsys):
        code, _, err = run_cli(capsys, "psi", "--problem", "tanh")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("grid", ["0x3", "3x0", "-1x2"])
    def test_psi_grid_must_be_nonempty(self, capsys, grid):
        code, out, err = run_cli(capsys, "psi", "--problem", "ou", f"--grid={grid}")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and "--grid" in err

    def test_psi_is_csv_only(self, capsys):
        code, _, err = run_cli(capsys, "psi", "--problem", "ou",
                               "--format", "json")
        assert code == EXIT_CONFIG


class TestConvergeExpandRichardson:
    def test_converge_slope_near_one(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--problem", "gbm",
                               "--levels", "16,32,64,128")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert 0.95 <= payload["slope"] <= 1.05
        assert payload["r_squared"] >= 0.999

    def test_converge_on_flat_errors_keeps_r_squared_in_unit_interval(self, capsys, tmp_path):
        # E X_T^4 = exp(216.2) swamps the weak error, so every level's error
        # is -7.84e93 to within a few ulp: the log-log points are flat to
        # rounding, which an OLS fit reads as a perfect (R^2 = 1) line
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("mu = 0.05\ns = 6\nf_poly = 0, 0, 0, 0, 1\n")
        code, out, _ = run_cli(capsys, "converge", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["r_squared"] == 1.0

    def test_expand_table(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--problem", "ou",
                               "--levels", "16,32,64,128", "--quad-nodes", "8")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["residual_fit"]["slope"] >= 1.9
        assert len(payload["levels"]) == 4

    @pytest.mark.parametrize("command", ["expand", "converge"])
    def test_too_few_levels_are_refused(self, capsys, command):
        # two levels cannot fit a rate: expand refuses them as converge does,
        # rather than printing "residual_fit": null
        code, out, err = run_cli(capsys, command, "--problem", "ou", "--levels", "16,32")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "need at least 3 usable points, got 2" in err

    def test_richardson_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "richardson", "--problem", "ou",
                               "--levels", "16,32,64")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["points"]) == 2

    def test_richardson_mc_estimator(self, capsys):
        code, out, _ = run_cli(capsys, "richardson", "--problem", "ou",
                               "--levels", "8,16", "--estimator", "mc",
                               "--paths", "2000", "--seed", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        assert payload["points"][0]["stderr"] > 0.0

    def test_richardson_mc_honours_solver(self, capsys, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("solver"))
            return we.estimate_weak_error(*args, **kwargs)

        monkeypatch.setattr("weakerr.cli.estimate_weak_error", spy)
        argv = ("richardson", "--problem", "ou", "--levels", "8,16",
                "--estimator", "mc", "--paths", "2000", "--seed", "3")
        assert run_cli(capsys, *argv, "--solver", "newton")[0] == EXIT_OK
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert seen == ["newton", None]

    @pytest.mark.parametrize("argv", [
        ("oracle", "--n-steps", "8", "--solver", "newton"),
        ("oracle", "--n-steps", "8", "--fp-max-iter", "5"),
        ("converge", "--fp-tol", "1e-9"),
        ("converge", "--solver", "fp"),
        ("richardson", "--solver", "newton"),
        ("richardson", "--estimator", "oracle", "--fp-tol", "1e-9"),
        ("richardson", "--fp-max-iter", "5"),
        ("richardson", "--paths", "7"),
        ("richardson", "--no-antithetic"),
        ("richardson", "--antithetic"),
        ("richardson", "--seed", "5"),
        ("richardson", "--finest-n", "64"),
        ("richardson", "--paths", "7", "--no-antithetic", "--seed", "5"),
    ])
    def test_solver_flags_refused_where_no_solver_runs(self, capsys, argv):
        # argparse exits on a flag the subcommand lacks; richardson knows the
        # flags but refuses them for the oracle estimator
        try:
            code = main([*argv, "--problem", "ou"])
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_oracle_refusal_names_the_flags(self, capsys):
        code, out, err = run_cli(capsys, "richardson", "--problem", "ou", "--paths", "7",
                                 "--no-antithetic", "--solver", "fp")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1
        assert all(flag in err for flag in ("--paths", "--antithetic", "--solver"))

    def test_sampling_defaults(self, capsys, monkeypatch):
        # left out, the sampling flags keep 1 000 000 antithetic paths from seed 0
        seen = []

        def spy(p, mc, kind, **solver):
            seen.append(mc)
            return we.oracle_report(p, kind, mc.levels)

        monkeypatch.setattr("weakerr.cli.estimate_weak_error", spy)
        assert run_cli(capsys, "richardson", "--problem", "ou", "--levels", "8,16",
                       "--estimator", "mc")[0] == EXIT_OK
        assert run_cli(capsys, "mc", "--problem", "ou", "--levels", "8,16")[0] == EXIT_OK
        assert [(mc.n_paths, mc.seed, mc.antithetic) for mc in seen] == [(1_000_000, 0, True)] * 2

    @pytest.mark.parametrize("argv,levels", [
        (("converge", "--problem", "ou", "--levels", "16,abc"), "16,abc"),
        # no --finest-n given, so the refusal names the levels that break the rule
        (("mc", "--problem", "ou", "--levels", "12", "--paths", "200"), "level 12"),
        # parsed, then refused by the level rule with the level named
        (("expand", "--problem", "ou", "--levels", "0,16", "--quad-nodes", "1"), "level 0"),
    ], ids=["converge", "mc", "expand-zero"])
    def test_bad_levels_string(self, capsys, argv, levels):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert levels in err and "finest_n" not in err


class TestMc:
    def test_seeded_run_writes_identical_bytes(self, capsys, tmp_path):
        args = ("mc", "--problem", "ou", "--levels", "8,16", "--paths", "2000",
                "--seed", "7", "--format", "json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, *args, "--out", str(a))[0] == EXIT_OK
        assert run_cli(capsys, *args, "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["reference_source"] == "exact"
        assert [lv["n_steps"] for lv in payload["levels"]] == [8, 16]

    def test_solver_alias(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "mc", "--problem", "ou", "--levels", "16",
                               "--paths", "2000", "--seed", "5",
                               "--solver", "newton")
        assert code == EXIT_OK
        assert json.loads(out)["levels"][0]["source"] == "mc"

    def test_no_convergence_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--problem", "tanh",
                               "--levels", "4", "--paths", "200", "--seed", "1",
                               "--finest-n", "32", "--fp-max-iter", "1",
                               "--fp-tol", "1e-16")
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_fp_tol_refused(self, capsys, tol):
        # inf would stop after one fixed-point iteration, nan would never stop
        code, out, err = run_cli(capsys, "mc", "--problem", "tanh", "--levels", "8,16",
                                 "--paths", "200", "--seed", "1", "--solver", "fp",
                                 "--fp-tol", tol)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and "fp_tol" in err

    MC_COMMANDS = [("mc",), ("richardson", "--estimator", "mc")]

    @pytest.mark.parametrize("command", MC_COMMANDS, ids=["mc", "richardson"])
    @pytest.mark.parametrize("flags, names", [
        (("--solver", "newton"), ["solver"]),
        (("--fp-tol", "1e-9"), ["fp_tol"]),
        (("--fp-max-iter", "5"), ["fp_max_iter"]),
        (("--solver", "fp", "--fp-tol", "1e-9", "--fp-max-iter", "5"),
         ["solver", "fp_tol", "fp_max_iter"]),
    ])
    def test_explicit_scheme_refuses_solver_flags(self, capsys, command, flags, names):
        code, out, err = run_cli(capsys, *command, "--problem", "ou", "--scheme", "explicit",
                                 "--levels", "8,16", "--paths", "100", *flags)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1
        assert all(name in err for name in names)

    def test_a_finest_grid_past_the_generator_exits_at_once(self, capsys):
        # 2**34 steps of bm pass every other rule; they once drew 64-step
        # windows past a 10 s timeout
        code, out, err = run_cli(capsys, "mc", "--problem", "bm", "--levels", "17179869184",
                                 "--paths", "100")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and "exceeds the generator's" in err

    @pytest.mark.parametrize("command", MC_COMMANDS, ids=["mc", "richardson"])
    def test_explicit_scheme_runs_without_solver_flags(self, capsys, command):
        assert run_cli(capsys, *command, "--problem", "ou", "--scheme", "explicit",
                       "--levels", "8,16", "--paths", "100")[0] == EXIT_OK

    def test_malformed_thread_count_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WEAKERR_THREADS", "abc")
        code, out, err = run_cli(capsys, "mc", "--problem", "ou", "--levels", "8",
                                 "--paths", "200")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "WEAKERR_THREADS" in err

    def test_step_guard_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--problem", "tanh", "--levels", "1",
                               "--paths", "200", "--seed", "1", "--finest-n", "8")
        assert code == EXIT_CONFIG

    def test_io_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--problem", "ou",
                               "--out", "/nonexistent/dir/fit.json")
        assert code == EXIT_IO


class TestOutput:
    COMMANDS = {
        "mc": ("mc", "--problem", "ou", "--levels", "8,16", "--paths", "2000",
               "--seed", "7"),
        "expand": ("expand", "--problem", "ou", "--levels", "16,32,64",
                   "--quad-nodes", "8"),
        "converge": ("converge", "--problem", "gbm", "--levels", "16,32,64"),
        "richardson": ("richardson", "--problem", "ou", "--levels", "16,32,64"),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_stdout_matches_out_file(self, capsys, tmp_path, command, fmt):
        argv = (*self.COMMANDS[command], "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        path = tmp_path / f"report.{fmt}"
        assert run_cli(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
        assert out.encode() == path.read_bytes()

    def test_mc_json_bytes_pinned(self, capsys):
        # SHA-256 of the report as printed before reports.render existed.
        code, out, _ = run_cli(capsys, *self.COMMANDS["mc"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a1243ac3045b8d639a7c3db62e0fa0bff34716edb64a7f2b5757ec8051ca0a83")

    # SHA-256 of tanh runs on the derived finest grid (8 x the largest level)
    # against the surrogate reference.
    TANH_SHA256 = {
        "mc": "d5ebe91be1ada703a2a01df4806f95dd67c3bc3cbc0566a482df59a6a3b02ee4",
        "richardson": "0680520b3a3441cf1c85f105a2be56b9af1f34b4bafbc33fcb69e62c0cfdb7b8",
    }

    @pytest.mark.parametrize("command", sorted(TANH_SHA256))
    def test_tanh_surrogate_bytes_pinned(self, capsys, command):
        estimator = ("--estimator", "mc") if command == "richardson" else ()
        code, out, _ = run_cli(capsys, command, *estimator, "--problem", "tanh",
                               "--levels", "4,8", "--paths", "2000", "--seed", "7")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.TANH_SHA256[command]

    # SHA-256 of the noise-free level reports, taken while expansion_check
    # still ran its own oracle loop beside oracle_report.
    ORACLE_SHA256 = {
        "expand-ou": (COMMANDS["expand"],
                      "ade3ffd07ee83bf2f099af262cdc9405cf49df4a80aefc06619502fa9d3df96b"),
        "expand-gbm": (("expand", "--problem", "gbm", "--levels", "16,32,64",
                        "--quad-nodes", "8"),
                       "cd18149a04686829adf248c98f3681f5b997bafcbc86320914c050f7ba127b98"),
        "converge-gbm": (COMMANDS["converge"],
                         "0759acfd3ff3c1f3c9c20de92e8c82595e61f54271b02b89e0e2c26f2ad73985"),
        "richardson-json": ((*COMMANDS["richardson"], "--format", "json"),
                            "8d02d240c272cd79b333a4d966e4d7810d74ebdbd07e24efaa796bb06db9f222"),
        "richardson-csv": ((*COMMANDS["richardson"], "--format", "csv"),
                           "02f4b1346f2ef0ef6b37117e812560b8c0e4ef08c7a7801be92da04bca5ed364"),
    }

    @pytest.mark.parametrize("run", sorted(ORACLE_SHA256))
    def test_oracle_bytes_pinned(self, capsys, run):
        argv, digest = self.ORACLE_SHA256[run]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ("c1", "--problem", "ou", "--quad-nodes", "8", "--format", "csv"),
        ("oracle", "--problem", "ou", "--n-steps", "8", "--format", "csv"),
        ("oracle", "--problem", "ou", "--n-steps", "8", "--format", "svg"),
    ])
    def test_format_missing_for_report_is_config_error(self, capsys, tmp_path, argv):
        path = tmp_path / "report.out"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_CONFIG
        assert err == f"weakerr: the {argv[0]} report has no {argv[-1]} form\n"
        assert not path.exists()


class TestNumericalFailures:
    def config(self, tmp_path, text):
        path = tmp_path / "prob.cfg"
        path.write_text(text)
        return str(path)

    def test_non_finite_report_is_not_written(self, capsys, tmp_path):
        # E X_T^4 of this gbm is about 1e260: the sample variance overflows
        # and the level stderr comes out NaN.
        cfg = self.config(tmp_path, "mu = 0.05\ns = 10\nf_poly = 0,0,0,0,1\n")
        argv = ("mc", "--config", cfg, "--levels", "16", "--paths", "2000",
                "--seed", "1")
        path = tmp_path / "report.json"
        for fmt in ("json", "csv", "svg"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == EXIT_NUMERICAL
            assert out == ""
            assert err.splitlines()[-1].startswith("weakerr: numerical failure:")
        assert run_cli(capsys, *argv, "--out", str(path))[0] == EXIT_NUMERICAL
        assert not path.exists()

    @pytest.mark.parametrize("text,argv", [
        # math.exp of the fourth-moment growth rate overflows
        ("mu = 0.05\ns = 12\nf_poly = 0,0,0,0,1\n", ("oracle", "--n-steps", "8")),
        # the pushed-forward Gaussian's scale**i overflows
        ("theta = -400\nsigma = 1\n", ("c1", "--quad-nodes", "2")),
    ])
    def test_overflow_is_numerical_failure(self, capsys, tmp_path, text, argv):
        code, out, err = run_cli(capsys, *argv, "--config", self.config(tmp_path, text))
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.splitlines()[-1].startswith("weakerr: numerical failure:")

    @pytest.mark.parametrize("argv,field", [
        (("oracle", "--n-steps", "8"), "weak_error"),
        (("c1",), "value"),
        (("expand",), "c1.value"),
        (("converge",), "slope"),
        (("richardson",), "points[0].extrapolated_error"),
    ], ids=["oracle", "c1", "expand", "converge", "richardson"])
    def test_non_finite_report_names_its_field(self, capsys, tmp_path, argv, field):
        # sigma^2 = 1.69e308 is finite, but sigma^2 * T overflows to inf
        # without raising, and the report fields come out NaN
        cfg = self.config(tmp_path, "theta = 0\nsigma = 1.3e154\nhorizon = 2\n")
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == (f"weakerr: numerical failure: {argv[0]} on problem 'custom': "
                       f"report field {field} is nan\n")

    @pytest.mark.parametrize("s", ["4", "6"])
    def test_cancelled_variance_names_its_level(self, capsys, tmp_path, s):
        # the level stderrs printed as 0.0 against a reference of 8e93
        cfg = self.config(tmp_path, f"mu = 0.05\ns = {s}\nf_poly = 0,0,0,0,1\n")
        code, out, err = run_cli(capsys, "mc", "--config", cfg, "--levels", "16,32,64",
                                 "--paths", "2000")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("weakerr: numerical failure: mc on problem 'custom': "
                              "level 16: the sample variance ")
        assert err.count("\n") == 1

    def test_heavy_tailed_but_resolved_variance_is_reported(self, capsys, tmp_path):
        # the variance is about 3e-9 of the raw second moment, far above the
        # rounding bound of 1000 antithetic units (about 3e-13)
        cfg = self.config(tmp_path, "mu = 0.05\ns = 2\nf_poly = 0,0,0,0,1\n")
        code, out, _ = run_cli(capsys, "mc", "--config", cfg, "--levels", "16,32,64",
                               "--paths", "2000")
        assert code == EXIT_OK
        assert all(lv["stderr"] > 0.0 for lv in json.loads(out)["levels"])

    @pytest.mark.parametrize("argv", [("oracle", "--n-steps", "8"), ("converge",),
                                      ("richardson",), ("expand",)],
                             ids=lambda argv: argv[0])
    def test_overflowing_moment_names_x0(self, capsys, tmp_path, argv):
        # x0**2 overflows in the moment oracle; the line used to end in the
        # C library's "(34, 'Numerical result out of range')"
        cfg = self.config(tmp_path, "mu = 0.05\ns = 0.2\nx0 = 1e200\n")
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == (f"weakerr: numerical failure: {argv[0]} on problem 'custom': "
                       f"x0**2 overflows in the moment recursion at x0 = 1e+200 "
                       f"(from the initial value)\n")

    # The config behind each closed-form overflow, and its message as a
    # regex; {tau} stands for tau = T - t at the first time that overflows.
    OVERFLOWS = {
        "var": ("theta = 1\nsigma = 1e100\nf_poly = 0,0,0,0,1\n",
                r"var\*\*2 overflows in the closed-form expectation at var = 4\.3\d*e\+199 "
                r"\(from the transition variance, b1 = -1\.0, sigma = 1e\+100, tau = {tau}\)"),
        "scale": ("theta = -400\nsigma = 1\n",
                  r"scale\*\*2 overflows in the closed-form expectation at "
                  r"scale = [45]\.\d+e\+173 \(from e\^\(b1\*tau\), b1 = 400\.0, tau = {tau}\)"),
        "r4": ("mu = 0.05\ns = 12\nf_poly = 0,0,0,0,1\n",
               r"exp\(r4\*tau\) overflows in the closed-form expectation at "
               r"r4\*tau = 86[34]\.\d+ \(from r4 = 4\*b1 \+ 6\*s1\^2, b1 = 0\.05, "
               r"s1 = 12\.0, tau = {tau}\)"),
        "r1": ("mu = 0.05\ns = 0.2\nhorizon = 1e10\n",
               r"exp\(r1\*tau\) overflows in the closed-form expectation at "
               r"r1\*tau = \d+\.\d+ \(from r1 = 1\*b1 \+ 0\*s1\^2, b1 = 0\.05, s1 = 0\.2, "
               r"tau = {tau}\)"),
    }
    OVERFLOW_ARGV = {"c1": ("c1",), "expand": ("expand",), "psi": ("psi", "--grid", "2x2"),
                     "mc": ("mc", "--levels", "16,32", "--paths", "200"),
                     "oracle": ("oracle", "--n-steps", "8")}

    @pytest.mark.parametrize("case,command", [
        ("var", "c1"), ("var", "expand"), ("var", "psi"), ("var", "mc"),
        ("r4", "c1"), ("r4", "oracle"), ("r4", "expand"), ("r4", "psi"), ("r4", "mc"),
        ("scale", "c1"), ("scale", "expand"), ("scale", "psi"),
        ("r1", "c1"), ("r1", "expand"), ("r1", "psi"),
    ])
    def test_closed_form_overflow_names_its_term(self, capsys, tmp_path, case, command):
        # Python's float ** and math.exp raise OverflowError with errno's text
        # only: "(34, 'Numerical result out of range')" or "math range error".
        # psi's first row, mc's reference and oracle's take u at t = 0, so
        # tau = T; c1 and expand first reach it at a quadrature node past 0.
        text, message = self.OVERFLOWS[case]
        horizon = 1e10 if case == "r1" else 1.0
        tau = re.escape(repr(horizon)) if command in ("psi", "mc", "oracle") else r"\d+\.\d+"
        code, out, err = run_cli(capsys, *self.OVERFLOW_ARGV[command], "--config",
                                 self.config(tmp_path, text))
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert re.fullmatch(f"weakerr: numerical failure: {command} on problem 'custom': "
                            f"{message.format(tau=tau)}\n", err), err

    def test_non_finite_payoff_names_its_path(self, capsys, tmp_path):
        # sigma^2 T is finite, but the payoff x^2 overflows where
        # |W_T| > 1.34, at a finite state; the line used to name the report
        # field levels[0].estimate
        cfg = self.config(tmp_path, "theta = 0\nsigma = 1e154\nf_poly = 0,0,1\n")
        code, out, err = run_cli(capsys, "mc", "--config", cfg, "--levels", "16,32",
                                 "--paths", "2000")
        walks = rng.gaussian_increments(0, np.arange(1000, dtype=np.uint64), 32,
                                        1 / 32).sum(axis=1)
        bound = math.sqrt(np.finfo(float).max)
        path = int(np.flatnonzero(np.abs(1e154 * walks) > bound)[0])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == ("weakerr: numerical failure: mc on problem 'custom': "
                       f"level 16, path {path}: the antithetic pair's mean payoff is inf; "
                       "its state is finite at every step of both passes\n")

    def test_non_finite_psi_names_its_cell(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "mu = 0.05\ns = 0.2\nx0 = 1e200\n")
        code, out, err = run_cli(capsys, "psi", "--config", cfg, "--grid", "2x2")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == ("weakerr: numerical failure: psi on problem 'custom': "
                       "psi at (t, x) = (0.0, 1e+200) is nan\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("text,argv", [
        # 40000 paths make two batches, so two threads both run one
        ("mu = 0.05\ns = 10\nf_poly = 0,0,0,0,1\n",
         ("mc", "--levels", "16", "--paths", "40000", "--seed", "1")),
        ("mu = 0.05\ns = 12\nf_poly = 0,0,0,0,1\n", ("oracle", "--n-steps", "8")),
        ("theta = -400\nsigma = 1\n", ("c1", "--quad-nodes", "2")),
    ], ids=["mc", "oracle", "c1"])
    def test_failure_prints_one_line(self, tmp_path, text, argv, threads):
        # A fresh interpreter, so that numpy's RuntimeWarnings reach stderr
        # as they would in a shell instead of pytest's warning capture.
        (tmp_path / "prob.cfg").write_text(text.replace("\n", "\nname = edge\n", 1))
        env = dict(os.environ, WEAKERR_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(we.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "weakerr.cli", *argv, "--config", "prob.cfg"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(
            f"weakerr: numerical failure: {argv[0]} on problem 'edge': ")


# Runs weakerr in a fresh interpreter and reports, after the import, after
# get_problem and after each CLI command in turn, whether scipy.special is
# loaded, with the SHA-256 of each command's stdout.
COLD_START = """
import contextlib, hashlib, io, json, sys
import weakerr
from weakerr.cli import main
steps = [["import", "scipy.special" in sys.modules, None]]
weakerr.get_problem("ou")
steps.append(["get_problem", "scipy.special" in sys.modules, None])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    steps.append([" ".join(argv), "scipy.special" in sys.modules,
                  hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(steps))
"""


def test_only_a_draw_loads_scipy_special(tmp_path):
    # The noise-free commands never draw a normal, so they must start without
    # scipy.special; mc loads it at its first draw, with the pinned bytes.
    quick = ("--problem", "ou", "--levels", "16,32,64")
    noise_free = [
        ("oracle", "--problem", "gbm", "--n-steps", "16"),
        ("c1", "--problem", "gbm", "--quad-nodes", "8"),
        TestOutput.COMMANDS["expand"],
        ("psi", "--problem", "gbm", "--grid", "3x4"),
        ("converge", *quick),
        ("richardson", "--estimator", "oracle", *quick),
    ]
    argvs = [list(argv) for argv in (*noise_free, TestOutput.COMMANDS["mc"])]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(we.__file__)))
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [loaded for _, loaded, _ in steps] == [False] * (2 + len(noise_free)) + [True]
    digests = {label: digest for label, _, digest in steps}
    assert digests[" ".join(TestOutput.COMMANDS["expand"])] == (
        TestOutput.ORACLE_SHA256["expand-ou"][1])
    assert digests[" ".join(TestOutput.COMMANDS["mc"])] == (
        "a1243ac3045b8d639a7c3db62e0fa0bff34716edb64a7f2b5757ec8051ca0a83")


class TestFailuresBeforeTheProblemIsBuilt:
    def test_overflowing_lognormal_config_is_config_error(self, capsys, tmp_path):
        # s1**2 overflows a float: refused by name, not a traceback
        path = tmp_path / "prob.cfg"
        path.write_text("mu = 0.05\ns = 1e200\n")
        code, out, err = run_cli(capsys, "oracle", "--config", str(path), "--n-steps", "8")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("weakerr: the closed-form exponents j*b1 + j(j-1)/2*s1^2 are not "
                       "finite at b1 = 0.05, s1 = 1e+200\n")

    @pytest.mark.parametrize("theta", ["1", "0"])
    @pytest.mark.parametrize("command", [("oracle", "--n-steps", "8"), ("c1",)])
    def test_overflowing_gaussian_variance_is_config_error(self, capsys, tmp_path, theta,
                                                           command):
        # sigma**2 overflows a float: refused by name, not an errno tuple at exit 3
        path = tmp_path / "prob.cfg"
        path.write_text(f"theta = {theta}\nsigma = 1e200\n")
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("weakerr: the closed-form variance sigma^2 is not finite at "
                       "s0 = 1e+200\n")

    @pytest.mark.parametrize("theta,digest", [
        ("1", "835468aa10f580311a09c43a0c65afdf27a4d5c829532e55e964fccdc618434a"),
        ("0", "57ca870639278054931fc6ba0bff0a2556951cd4c2e4cef9a86cf49ff44a334a"),
    ])
    def test_largest_finite_gaussian_variance_keeps_its_bytes(self, capsys, tmp_path,
                                                              theta, digest):
        # sigma**2 = 1e308 is finite: the oracle report is unchanged
        path = tmp_path / "prob.cfg"
        path.write_text(f"theta = {theta}\nsigma = 1e154\n")
        code, out, _ = run_cli(capsys, "oracle", "--config", str(path), "--n-steps", "8")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("exc,code,line", [
        (OverflowError("boom"), EXIT_NUMERICAL, "weakerr: numerical failure: oracle: boom\n"),
        (MemoryError("boom"), EXIT_CONFIG, "weakerr: out of memory: oracle: boom\n"),
    ], ids=["overflow", "memory"])
    def test_resolving_failure_names_the_command(self, capsys, monkeypatch, exc, code, line):
        def resolve(args):
            raise exc
        monkeypatch.setattr(we.cli, "_resolve_problem", resolve)
        got, out, err = run_cli(capsys, "oracle", "--n-steps", "8")
        assert (got, out, err) == (code, "", line)


class TestOutOfMemory:
    # Each request's first large array needs more than 2^47 bytes, the whole
    # user address space of x86-64 Linux, so the allocation fails at once
    # whatever the overcommit policy.
    @pytest.mark.parametrize("argv", [
        ("c1", "--quad-nodes", "100000000000000"),
        ("expand", "--quad-nodes", "100000000000000"),
        ("psi", "--grid", "100000000000000x1"),
    ], ids=["c1", "expand", "psi"])
    def test_oversized_request_is_config_error(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(we.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "weakerr.cli", argv[0], "--problem", "ou", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(f"weakerr: out of memory: {argv[0]} on problem 'ou'")


class TestProblemConfig:
    CFG = """\
# custom mean-reverting benchmark
name = myou
x0 = 1.0
horizon = 1.0
theta = 0.5
sigma = 1.0
f_poly = 0, 0, 1
"""

    def test_parse_and_run(self, capsys, tmp_path):
        path = tmp_path / "prob.cfg"
        path.write_text(self.CFG)
        code, out, _ = run_cli(capsys, "oracle", "--config", str(path),
                               "--n-steps", "32")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["problem"] == "myou"
        p = parse_problem_config(self.CFG)
        assert payload["weak_error"] == we.weak_error_exact(
            p, we.SchemeConfig(n_steps=32))

    def test_parse_proportional_form(self):
        p = parse_problem_config("mu = 0.05\ns = 0.2\nx0 = 1.0\nf_poly = 0,0,1\n")
        assert p.affine.s1 == 0.2
        assert p.exact_terminal() == pytest.approx(math.exp(0.14), abs=1e-14)

    @pytest.mark.parametrize("text", [
        "theta = 1.0\nmu = 0.5\n",
        "x0 = 1.0\n",
        "theta = 1.0\ns = 0.2\n",
        "mu = 0.05\nsigma = 1.0\n",
        "bogus = 1\n",
        "theta 1.0\n",
        "theta = abc\n",
        "theta = 1.0\ntheta = 2.0\n",
    ])
    def test_bad_configs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_problem_config(text)

    @pytest.mark.parametrize("text,key", [
        ("theta = nan\n", "theta"),
        ("theta = 1.0\nsigma = inf\n", "sigma"),
        ("theta = 1.0\nhorizon = nan\n", "horizon"),
        ("theta = 1.0\nx0 = -inf\n", "x0"),
        ("mu = inf\n", "mu"),
        ("mu = 0.05\ns = nan\n", "s"),
        ("theta = 1.0\nf_poly = 0, nan, 1\n", "f_poly"),
    ])
    def test_non_finite_values_rejected(self, capsys, tmp_path, text, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_problem_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code, out, err = run_cli(capsys, "c1", "--config", str(path), "--quad-nodes", "2")
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"'{key}'" in err

    def test_bad_config_file_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "oracle", "--config", str(path),
                               "--n-steps", "8")
        assert code == EXIT_CONFIG


class TestParser:
    def test_problem_help_lists_every_builtin(self, monkeypatch):
        def problem_helps():
            subs = next(a for a in build_parser()._actions if a.dest == "command")
            return {action.help for sub in subs.choices.values()
                    for action in sub._actions if action.dest == "problem"}

        assert problem_helps() == {"builtin problem name (bm, ou, gbm, tanh)"}
        extra = we.builtin_problems() + [we.tanh_problem("wide", c=0.5)]
        monkeypatch.setattr("weakerr.cli.builtin_problems", lambda: extra)
        assert problem_helps() == {"builtin problem name (bm, ou, gbm, tanh, wide)"}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
