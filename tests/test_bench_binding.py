"""The benchmark under ``bench/`` patches and calls library names by module.

A refactor that moves or renames one of them must fail here, in the test
suite, rather than only when the benchmark runs.  The bench modules are
imported read-only; nothing under ``bench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

import weakerr
from weakerr.cli import parse_problem_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return layers, spans, workloads


def test_every_patched_name_resolves(bench):
    layers, spans, _ = bench
    # instrument reads each attribute it wraps, so a moved name raises here
    targets = layers.instrument(spans.Tracer(), weakerr)
    assert all(hasattr(module, name) for module, name, _ in targets)


def test_every_workload_config_builds(bench):
    _, _, workloads = bench
    for w in workloads.WORKLOADS.values():
        if hasattr(w.spec, "config"):
            w.spec.config(weakerr, w.default_seed)
        assert set(workloads.build_problems(weakerr, w)) == set(w.spec.problems)


def test_traced_expansion_check_reaches_the_oracle(bench):
    # the traced run counts moments_oracle calls where rates looks the
    # oracle up; a level loop that bypassed rates.weak_error_exact reads 0
    layers, spans, _ = bench
    tracer = spans.Tracer()
    with spans.patched(layers.instrument(tracer, weakerr)):
        weakerr.rates.expansion_check(weakerr.get_problem("ou"), (16, 32, 64),
                                      quad_nodes=1)
    names = [sp.name for sp in tracer.spans]
    assert names.count("moments_oracle.weak_error_exact") == 3
    assert names.count("rates.expansion_check") == 1


def test_traced_mc_counts_batches_normals_and_path_steps(bench, monkeypatch):
    # one generator call per 64-step window of each batch, the whole fine
    # grid of every unit, and every simulated level through
    # montecarlo.run_paths; a refactor that drew per chunk or stepped around
    # run_paths would read otherwise here
    layers, spans, _ = bench
    monkeypatch.setattr(weakerr.montecarlo, "_BATCH", 100)
    p = weakerr.get_problem("tanh")
    mc = weakerr.montecarlo.McConfig(levels=(8, 16), n_paths=500, seed=3)
    tracer = spans.Tracer()
    with spans.patched(layers.instrument(tracer, weakerr)), tracer.span("job"):
        weakerr.montecarlo.estimate_weak_error(p, mc, "implicit")
    metrics = layers.job_metrics(tracer, 0.0)
    sim_levels = (8, 16, 64, 128)  # the surrogate adds finest_n / 2 and finest_n
    batches, windows = 3, 128 // 64
    assert [sp.name for sp in tracer.spans].count("rng.gaussian_increments") == batches * windows
    assert metrics["montecarlo.batches"] == batches * windows
    assert metrics["rng.normals"] == 250 * 128
    assert metrics["schemes.path_steps"] == 500 * sum(sim_levels)


def _traced_expansion_check(bench, p, quad_nodes=2):
    """Metrics, span names and tracer of a traced C1 at ``quad_nodes`` panels,
    and twice that for its error estimate, on ``p``."""
    layers, spans, _ = bench
    tracer = spans.Tracer()
    p = layers.traced_problems(tracer, {p.name: p})[p.name]
    with spans.patched(layers.instrument(tracer, weakerr)), tracer.span("job"):
        weakerr.rates.expansion_check(p, (16, 32, 64), quad_nodes=quad_nodes)
    return layers.job_metrics(tracer, 0.0), [sp.name for sp in tracer.spans], tracer


def test_traced_c1_counts_every_node_and_call(bench):
    # C1 at 2 panels plus the 4-panel doubling estimate: 48 time nodes of
    # 64 Gauss-Hermite nodes each, in one expect_psi call per pass, which
    # maps the nodes of each 64 time nodes in one marginal_law call.  The
    # counters must see every node through the patched eval_psi, and the
    # expect_psi, marginal_law and u_jet wrappers must see every call.
    metrics, names, tracer = _traced_expansion_check(bench, weakerr.get_problem("ou"))
    assert metrics["expansion.quad_nodes"] == 64 * 8 * (2 + 4) == 3072
    assert names.count("expansion.expect_psi") == 2
    assert names.count("problems.marginal_law") == names.count("expansion.expect_psi") == 2
    assert tracer.aggregates()["expansion.eval_psi"][0] == 2
    assert metrics["problems.u_jet_calls"] == 2
    assert metrics["expansion.eval_psi_s"] > 0.0


def test_traced_c1_counts_on_a_quartic_config(bench):
    # a quartic payoff takes every row of the Gaussian push table and all
    # five powers in the u jet; the counters read as on the quadratic ou
    p = parse_problem_config(
        "name = ou4\ntheta = 0.7\nsigma = 0.6\nx0 = 0.8\nf_poly = 0.3, -0.2, 0.5, 0.1, 0.05\n")
    metrics, names, _ = _traced_expansion_check(bench, p)
    assert metrics["expansion.quad_nodes"] == 3072
    assert metrics["problems.u_jet_calls"] == 2
    assert names.count("problems.marginal_law") == names.count("expansion.expect_psi") == 2


def test_traced_c1_walks_its_time_nodes_in_one_call_per_pass(bench):
    # 16 and 32 panels: 128 and 256 time nodes, each pass one expect_psi
    # call that maps its nodes 64 time nodes at a time, 2 + 4 grids
    metrics, names, tracer = _traced_expansion_check(bench, weakerr.get_problem("ou"),
                                                     quad_nodes=16)
    assert metrics["expansion.quad_nodes"] == 64 * 8 * (16 + 32)
    assert names.count("expansion.expect_psi") == 2
    assert names.count("problems.marginal_law") == 2 + 4
    assert tracer.aggregates()["expansion.eval_psi"][0] == 6
    assert metrics["problems.u_jet_calls"] == 6
