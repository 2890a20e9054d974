import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

import weakerr as we
from weakerr.montecarlo import LevelEstimate, WeakErrorReport
from weakerr.rates import expansion_check
from weakerr.reports import emit_report, render


@pytest.fixture
def sample_report():
    return WeakErrorReport(
        problem="ou", scheme="implicit",
        reference=0.5676676416183064, reference_source="exact",
        levels=(
            LevelEstimate(n_steps=16, h=0.0625, estimate=-0.008788953409802236,
                          stderr=0.0001234, source="mc"),
            LevelEstimate(n_steps=32, h=0.03125, estimate=-0.004515301844051134,
                          stderr=9.87e-05, source="mc"),
        ),
    )


class TestJson:
    def test_round_trip_preserves_values_exactly(self, sample_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(sample_report, "json", path)
        back = json.loads(path.read_text())
        assert back["problem"] == "ou"
        assert back["reference"] == sample_report.reference
        for got, lv in zip(back["levels"], sample_report.levels):
            assert got["estimate"] == lv.estimate
            assert got["stderr"] == lv.stderr
            assert got["n_steps"] == lv.n_steps

    def test_expansion_table_round_trip(self, problems, tmp_path):
        table = expansion_check(problems["ou"], (16, 32, 64))
        path = tmp_path / "expand.json"
        emit_report(table, "json", path)
        back = json.loads(path.read_text())
        assert back["psi_kind"] == "psi_i"
        assert back["c1"]["value"] == table.c1.value
        for got, row in zip(back["levels"], table.rows):
            assert got["weak_err"] == row.weak_err
            assert got["second_order_residual"] == row.second_order_residual
        assert back["residual_fit"]["slope"] == table.residual_fit.slope

    def test_rate_fit_and_constant(self, tmp_path):
        fit = we.fit_rate([(0.1, 0.3), (0.05, 0.15), (0.025, 0.075)])
        emit_report(fit, "json", tmp_path / "fit.json")
        back = json.loads((tmp_path / "fit.json").read_text())
        assert back["slope"] == fit.slope


class TestCsv:
    def test_empty_levels_gives_header_only(self, tmp_path):
        rep = WeakErrorReport(problem="bm", scheme="explicit", reference=3.0,
                              reference_source="exact", levels=())
        path = tmp_path / "empty.csv"
        emit_report(rep, "csv", path)
        assert path.read_bytes() == b"n_steps,h,estimate,stderr,source\r\n"

    def test_round_trip_floats_exactly(self, sample_report, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(sample_report, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for got, lv in zip(rows, sample_report.levels):
            assert float(got["estimate"]) == lv.estimate
            assert float(got["h"]) == lv.h
            assert int(got["n_steps"]) == lv.n_steps

    def test_richardson_points(self, problems, tmp_path):
        rep = we.oracle_report(problems["ou"], "implicit", (16, 32, 64))
        pts = we.richardson(rep)
        path = tmp_path / "rich.csv"
        emit_report(pts, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["extrapolated_error"]) == pts[0].extrapolated_error


class TestSvg:
    def test_valid_xml_with_a_polyline_per_series(self, problems, tmp_path):
        table = expansion_check(problems["ou"], (16, 32, 64, 128))
        path = tmp_path / "plot.svg"
        emit_report(table, "svg", path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2
        text = path.read_text()
        assert "slope" in text

    def test_byte_identical_across_writes(self, sample_report, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_report(sample_report, "svg", a)
        emit_report(sample_report, "svg", b)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_missing_parent_directory_surfaces_os_error(self, sample_report, tmp_path):
        with pytest.raises(OSError):
            emit_report(sample_report, "json", tmp_path / "no" / "dir" / "x.json")

    def test_unknown_format(self, sample_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(sample_report, "yaml", tmp_path / "x.yaml")

    def test_unknown_report_type(self, tmp_path):
        with pytest.raises(TypeError):
            emit_report(object(), "json", tmp_path / "x.json")

    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_is_refused(self, sample_report, tmp_path, fmt, bad):
        level = dataclasses.replace(sample_report.levels[0], stderr=bad)
        rep = dataclasses.replace(sample_report, levels=(level,))
        message = f"^report field levels\\[0\\]\\.stderr is {bad!r}$"
        with pytest.raises(FloatingPointError, match=message):
            render(rep, fmt)
        with pytest.raises(FloatingPointError, match=message):
            emit_report(rep, fmt, tmp_path / f"x.{fmt}")
        assert not (tmp_path / f"x.{fmt}").exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_format_missing_for_report_type(self, fmt):
        c1 = we.LeadingConstant(value=0.1, quad_nodes=8, abs_err_est=0.0)
        with pytest.raises(ValueError, match=f"LeadingConstant report has no {fmt}"):
            render(c1, fmt)
