"""Where the traced run times each module, and the per-layer metrics it derives.

Every wrapper sits on a module attribute or a ``Problem`` field, at the
place the caller looks it up, so nothing in the library changes:

==========================================  ==========================  =========
attribute                                   span or aggregate           layer
==========================================  ==========================  =========
``rng.gaussian_increments``                 span (one per MC batch)     rng
``montecarlo.run_paths``                    span                        schemes
``schemes.implicit_step``                   aggregate (one per step)    schemes
``montecarlo.estimate_weak_error``          span                        montecarlo
``montecarlo.ThreadPoolExecutor`` tasks     span ``montecarlo.batch``   montecarlo
``Problem.f`` (payoff)                      span                        problems
``Problem.u_jet``                           aggregate (one per node)    problems
``expansion.marginal_law``                  span                        problems
``rates.leading_constant``                  span                        expansion
``expansion.expect_psi``                    span                        expansion
``expansion.eval_psi``                      aggregate (one per node)    expansion
``rates.weak_error_exact``                  span                        moments_oracle
``rates.expansion_check``                   span                        rates
``reports.emit_report``                     span                        reports
==========================================  ==========================  =========

``rates`` (the level loop and rate fit of the expansion check) is not one of
the listed layers; its self time and the job span's own are the job time no
listed layer accounts for (``trace.unaccounted_s``).  A layer's ``self_s``
sums over threads, so on ``mc-affine`` it can exceed the job's wall time.
``rng.temp_bytes`` is computed from the call's shape, not measured: the
bytes of one uint64 Philox word array of the largest draw.

Which end-to-end metric each layer should move, and where:

* ``rng.*``: ``job_s``, ``work_per_s`` and ``peak_rss_mb`` on ``mc-tanh``,
  less on ``mc-affine``, nothing on ``expand-affine``.
* ``schemes.*``: ``job_s`` on ``mc-tanh``; about nothing on ``mc-affine``,
  whose closed-form steps take no solver iterations.
* ``montecarlo.*`` (coarsening, antithetic averaging, covariance reduction,
  the thread pool): ``job_s`` on ``mc-affine``.
* ``problems.payoff_s`` on the Monte Carlo workloads; ``problems.u_jet_*``
  and ``problems.marginal_law_s`` on ``expand-affine``.
* ``expansion.*`` (the jet algebra): ``job_s`` and ``work_per_s`` on
  ``expand-affine`` only.
* ``moments_oracle.*``: ``expand-affine`` ``job_s`` by under 1%; recorded so
  that a regression shows.
* ``reports.render_s``: every workload, by little.
* ``schemes.<solver>.*``: no end-to-end metric; they put the stepping speed
  of each solver on record, on one 16384-path, 512-step ``tanh`` batch.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from spans import Tracer, layer_self_times, patched

LAYERS = ("rng", "schemes", "montecarlo", "problems", "expansion",
          "moments_oracle", "reports")


def _path_counts(args, kwargs, out):
    yield "schemes.path_steps", np.size(args[2])


def _implicit_counts(args, kwargs, out):
    x_next, iters = out
    yield "schemes.solver_iters", iters
    yield "schemes.lane_iters", iters * np.size(x_next)


def _node_counts(args, kwargs, out):
    yield "expansion.quad_nodes", np.size(out)


def instrument(tracer: Tracer, we) -> list:
    """(module, attribute, traced replacement) for :func:`spans.patched`."""
    mc, ex, rates = we.montecarlo, we.expansion, we.rates

    def rng_counts(args, kwargs, out):
        rows, n_steps = out.shape
        # One uint64 Philox word array holds rows x ceil(n_steps / 2) words;
        # the ten rounds keep six such arrays live.
        tracer.note_max("rng.word_array_bytes", rows * ((n_steps + 1) // 2) * 8)
        yield "rng.normals", out.size

    base_pool = mc.ThreadPoolExecutor

    class TracedPool(base_pool):
        """Opens a ``montecarlo.batch`` span around each task in its worker
        thread, parented on the span that submitted it."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def batch(*a, **k):
                with tracer.span("montecarlo.batch", parent=parent):
                    return fn(*a, **k)
            return super().submit(batch, *args, **kwargs)

    return [
        (we.rng, "gaussian_increments",
         tracer.wrap_span("rng.gaussian_increments", we.rng.gaussian_increments,
                          rng_counts)),
        (mc, "run_paths", tracer.wrap_span("schemes.run_paths", mc.run_paths,
                                           _path_counts)),
        (we.schemes, "implicit_step",
         tracer.wrap_aggregate("schemes.implicit_step", we.schemes.implicit_step,
                               _implicit_counts)),
        (mc, "estimate_weak_error",
         tracer.wrap_span("montecarlo.estimate_weak_error", mc.estimate_weak_error)),
        (mc, "ThreadPoolExecutor", TracedPool),
        (ex, "marginal_law", tracer.wrap_span("problems.marginal_law", ex.marginal_law)),
        (ex, "expect_psi", tracer.wrap_span("expansion.expect_psi", ex.expect_psi)),
        (ex, "eval_psi", tracer.wrap_aggregate("expansion.eval_psi", ex.eval_psi,
                                               _node_counts)),
        (rates, "leading_constant",
         tracer.wrap_span("expansion.leading_constant", rates.leading_constant)),
        (rates, "weak_error_exact",
         tracer.wrap_span("moments_oracle.weak_error_exact", rates.weak_error_exact)),
        (rates, "expansion_check",
         tracer.wrap_span("rates.expansion_check", rates.expansion_check)),
        (we.reports, "emit_report",
         tracer.wrap_span("reports.emit_report", we.reports.emit_report)),
    ]


def traced_problems(tracer: Tracer, problems: dict) -> dict:
    """Copies of the problems whose payoff and u jets are timed."""
    out = {}
    for name, p in problems.items():
        fields = {"f": tracer.wrap_span("problems.payoff", p.f)}
        if p.u_jet is not None:
            fields["u_jet"] = tracer.wrap_aggregate("problems.u_jet", p.u_jet)
        out[name] = dataclasses.replace(p, **fields)
    return out


def _total(spans, name):
    return sum(sp.duration for sp in spans if sp.name == name)


def _count(spans, name):
    return sum(1 for sp in spans if sp.name == name)


def job_metrics(tracer: Tracer, job_s: float) -> dict:
    """Per-layer metrics of one traced job whose root span is named ``job``."""
    spans = tracer.spans
    aggs = tracer.aggregates()
    counts = tracer.counters()
    layer_self = layer_self_times(tracer)

    def agg(name):
        return aggs.get(name, (0, 0.0))

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    normals = counts.get("rng.normals", 0)
    path_steps = counts.get("schemes.path_steps", 0)
    implicit_calls, _ = agg("schemes.implicit_step")
    run_paths_s = _total(spans, "schemes.run_paths")
    nodes = counts.get("expansion.quad_nodes", 0)

    # Parallel efficiency: busy time of the threads that ran batches, over
    # workers x wall time of each estimate_weak_error call.  Without a pool
    # the calling thread is busy throughout.
    busy = capacity = 0.0
    workers = 0
    for est in (sp for sp in spans if sp.name == "montecarlo.estimate_weak_error"):
        batches = [sp for sp in spans
                   if sp.name == "montecarlo.batch" and sp.parent == est.id]
        n_workers = len({sp.thread for sp in batches}) or 1
        busy += sum(sp.duration for sp in batches) if batches else est.duration
        capacity += n_workers * est.duration
        workers = max(workers, n_workers)

    unaccounted = sum(v for k, v in layer_self.items() if k not in LAYERS)

    return {
        "rng.normals": normals,
        "rng.self_s": layer_self.get("rng", 0.0),
        "rng.normals_per_s": rate(normals, layer_self.get("rng", 0.0)),
        "rng.temp_bytes": counts.get("rng.word_array_bytes", 0),
        "schemes.path_steps": path_steps,
        "schemes.run_paths_s": run_paths_s,
        "schemes.path_steps_per_s": rate(path_steps, run_paths_s),
        "schemes.implicit_calls": implicit_calls,
        "schemes.solver_iters_per_step": rate(counts.get("schemes.solver_iters", 0),
                                              implicit_calls),
        "schemes.lane_iters": counts.get("schemes.lane_iters", 0),
        "montecarlo.batches": _count(spans, "rng.gaussian_increments"),
        "montecarlo.workers": workers,
        "montecarlo.self_s": layer_self.get("montecarlo", 0.0),
        "montecarlo.parallel_eff": rate(busy, capacity),
        "problems.payoff_s": _total(spans, "problems.payoff"),
        "problems.u_jet_calls": agg("problems.u_jet")[0],
        "problems.u_jet_s": agg("problems.u_jet")[1],
        "problems.marginal_law_s": _total(spans, "problems.marginal_law"),
        "expansion.quad_nodes": nodes,
        "expansion.expect_psi_s": _total(spans, "expansion.expect_psi"),
        "expansion.eval_psi_s": agg("expansion.eval_psi")[1],
        "expansion.self_s": layer_self.get("expansion", 0.0),
        "expansion.us_per_node": 1e6 * rate(_total(spans, "expansion.leading_constant"),
                                            nodes),
        "moments_oracle.calls": _count(spans, "moments_oracle.weak_error_exact"),
        "moments_oracle.s": _total(spans, "moments_oracle.weak_error_exact"),
        "reports.render_s": _total(spans, "reports.emit_report"),
        "trace.job_s": job_s,
        "trace.unaccounted_s": unaccounted,
    }


def compare_solvers(we, seed: int, reps: int = 3) -> dict:
    """Stepping throughput per solver on one 16384-path, 512-step tanh batch.

    All three run the same increments at fp_tol = 1e-12; each figure is the
    median of ``reps`` timings, with solver iterations per implicit step.
    """
    p = we.get_problem("tanh")
    n_steps = 512
    incs = we.rng.gaussian_increments(seed, np.arange(1 << 14, dtype=np.uint64),
                                      n_steps, p.horizon / n_steps)
    SchemeConfig = we.schemes.SchemeConfig
    out = {}
    for label, cfg in (
            ("fixed_point", SchemeConfig(n_steps=n_steps, fp_tol=1e-12, solver="fixed_point")),
            ("newton", SchemeConfig(n_steps=n_steps, fp_tol=1e-12, solver="newton")),
            ("explicit", SchemeConfig(n_steps=n_steps, kind="explicit"))):
        tracer = Tracer()
        step = tracer.wrap_aggregate("schemes.implicit_step", we.schemes.implicit_step,
                                     _implicit_counts)
        secs = []
        with patched([(we.schemes, "implicit_step", step)]):
            for _ in range(reps):
                t0 = tracer.clock()
                we.schemes.run_paths(p, cfg, incs)
                secs.append(tracer.clock() - t0)
        calls = tracer.aggregates().get("schemes.implicit_step", (0, 0.0))[0]
        iters = tracer.counters().get("schemes.solver_iters", 0)
        out[f"schemes.{label}.path_steps_per_s"] = incs.size / statistics.median(secs)
        out[f"schemes.{label}.iters_per_step"] = iters / calls if calls else 0.0
    return out
