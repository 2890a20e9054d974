"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``.

The traced-run tests execute one full job per workload, traced and not,
so they take about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import job_metrics
from spans import Span, Tracer, covered, layer_self_times, self_times
from workloads import WORKLOADS, build_problems

we = run.load_library()


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([(2, 3), (1, 5)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span(1, "job", None, 1, 0.0, 10.0, agg_child_s=1.0),
        Span(2, "a.x", 1, 1, 1.0, 4.0),
        Span(3, "a.y", 1, 2, 3.0, 6.0),   # another thread, overlapping a.x
        Span(4, "b.z", 2, 1, 2.0, 3.0),
    ]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_tracer_nests_spans_and_charges_aggregates_to_the_open_span():
    # Clock reads: outer opens, inner opens, aggregate starts/ends, inner
    # closes, aggregate outside any span, outer closes.
    tracer = Tracer(clock=_fake_clock(0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 5.25, 9.0))
    leaf = tracer.wrap_aggregate("c.leaf", lambda: 7, counts=lambda a, k, out: [("c.n", out)])
    inner = tracer.wrap_span("b.inner", leaf)
    with tracer.span("job"):
        assert inner() == 7
        leaf()
    outer, = [sp for sp in tracer.spans if sp.name == "job"]
    child, = [sp for sp in tracer.spans if sp.name == "b.inner"]
    assert child.parent == outer.id
    assert self_times(tracer.spans) == pytest.approx({child.id: 2.5, outer.id: 5.75})
    assert tracer.aggregates() == {"c.leaf": (2, pytest.approx(0.75))}
    assert tracer.counters() == {"c.n": 14}
    assert layer_self_times(tracer) == pytest.approx({"job": 5.75, "b": 2.5, "c": 0.75})


# Counts per job from the acceptance configurations, written out by hand.
CLOSED_FORM = {
    "mc-tanh": {"rng.normals": 25.6e6, "schemes.path_steps": 8.8e7,
                "expansion.quad_nodes": 0},
    "mc-affine": {"rng.normals": 6.4e7, "schemes.path_steps": 1.6e8,
                  "expansion.quad_nodes": 0},
    "expand-affine": {"rng.normals": 0, "schemes.path_steps": 0,
                      "expansion.quad_nodes": 196_608},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_job_keeps_report_bytes_and_closed_form_counts(name, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.setenv("WEAKERR_THREADS", str(workload.threads))
    problems = build_problems(we, workload)
    assert workload.spec.counts(problems) == CLOSED_FORM[name]

    metrics, jobs, _ = run.traced_run(we, workload, problems, workload.default_seed,
                                      seconds=0)
    for job in jobs:
        run.check_job(we, workload, problems, job)
        assert job.failures == []
    pinned = json.loads((run.HERE / "digests.json").read_text())[name]["sha256"]
    assert [job.traced for job in jobs] == [False, True]
    assert {job.digest for job in jobs} == {pinned}
    for counter, value in CLOSED_FORM[name].items():
        assert metrics[counter] == value
    assert metrics["trace.unaccounted_s"] < 0.01 * metrics["trace.job_s"]


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-tanh",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
