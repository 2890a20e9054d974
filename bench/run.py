"""Benchmark harness: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload mc-tanh --seed 2718 --seconds 30 --trace 0

Run from a checkout: the library is imported from ``src/`` beside this
directory, never from an installed copy, and the run stops with exit code 2
if it is missing.  The metric names and units are those of
``BENCHMARK.json``.

Untraced (``--trace 0``), a run

1. times set-up -- importing ``weakerr`` and building the workload's
   problems -- in fresh interpreters, and keeps the median (``setup_s``);
2. runs jobs back to back (a closed loop, one client) for ``--seconds``,
   and reports the median job time (``job_s``), the configured work per job
   over it (``work_per_s``: path steps per second on the Monte Carlo
   workloads, quadrature nodes per second on ``expand-affine``), the
   process's peak resident set (``peak_rss_mb``), the share of jobs that
   passed (``pass_frac``) and whether every job's report bytes agree with
   each other and, at the pinned seed, with ``digests.json``
   (``digest_ok``).

Traced (``--trace 1``), a run alternates untraced and traced jobs for
``--seconds``, reports the per-layer metrics of the traced ones (medians
over jobs), the tracing overhead (traced minus untraced median job time),
and then compares the implicit solvers on one batch.  Its traced jobs fail
unless the layer counters equal their closed-form values.  The spans go to
``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the workload's sizes and each metric by name, for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import weakerr
problems = [weakerr.get_problem(name) for name in sys.argv[2:]]
elapsed = time.perf_counter() - t0
if not weakerr.__file__.startswith(sys.argv[1]):
    sys.exit("imported weakerr from outside the checkout")
print(repr(elapsed))
"""

clock = time.perf_counter


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library():
    """Import ``weakerr`` from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "weakerr" / "__init__.py").is_file():
        fail(f"no weakerr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weakerr
    if not Path(weakerr.__file__).resolve().is_relative_to(SRC):
        fail(f"weakerr imported from {weakerr.__file__}, not {SRC}")
    return weakerr


def measure_setup(problem_names) -> list:
    """Seconds to import weakerr and build the problems, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *problem_names],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return samples


def machine_info() -> dict:
    """CPU, core count, cache sizes and library versions, read-only."""
    import numpy
    import scipy
    info = {"cpu": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"l{level}_per_instance"] = size
    return info


@dataclass
class Job:
    seconds: float
    reports: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    traced: bool = False

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.texts).encode()).hexdigest()


def run_job(we, workload, problems, seed, tracer=None) -> Job:
    """One job, timed from the library call to the rendered JSON text."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"report-{workload.name}"
    t0 = clock()
    try:
        with tracer.span("job") if tracer is not None else nullcontext():
            reports = workload.spec.run(we, problems, seed)
            paths = [f"{stem}-{i}.json" for i in range(len(reports))]
            for rep, path in zip(reports, paths):
                we.reports.emit_report(rep, "json", path)
            texts = [Path(path).read_text(encoding="utf-8") for path in paths]
    except Exception as err:  # a failing job is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Job(clock() - t0, failures=[f"{type(err).__name__}: {err}"],
                   traced=tracer is not None)
    return Job(clock() - t0, reports, texts, traced=tracer is not None)


def check_job(we, workload, problems, job: Job) -> None:
    """Add non-finite report numbers and missed acceptance checks to the failures."""
    if job.failures:
        return
    for text in job.texts:
        json.loads(text, parse_constant=lambda c: job.failures.append(f"non-finite {c}"))
    job.failures += workload.gate(we, problems, job.reports)


def timed_rounds(seconds: float, one_round, predict: bool = False) -> list:
    """Rounds back to back while less than ``seconds`` have passed.

    With ``predict``, stop instead once the next round would likely end past
    ``seconds``.  Either way at least one round runs.
    """
    rounds, took = [], []
    start = clock()
    while True:
        t0 = clock()
        rounds.append(one_round())
        took.append(clock() - t0)
        ahead = statistics.median(took) if predict else 0.0
        if clock() - start + ahead >= seconds:
            return rounds


def traced_run(we, workload, problems, seed, seconds):
    """(per-layer metrics, jobs, trace payload) of alternating untraced/traced jobs."""
    from layers import compare_solvers, instrument, job_metrics, traced_problems
    from spans import Tracer, patched

    expected = workload.spec.counts(problems)
    per_job, traces = [], []

    def one_round():
        plain = run_job(we, workload, problems, seed)
        tracer = Tracer()
        with patched(instrument(tracer, we)):
            traced = run_job(we, workload, traced_problems(tracer, problems), seed, tracer)
        counts = tracer.counters()
        for name, value in expected.items():
            if counts.get(name, 0) != value:
                traced.failures.append(f"{name} = {counts.get(name, 0)}, "
                                       f"closed form {value}")
        per_job.append(job_metrics(tracer, traced.seconds))
        traces.append(tracer.to_json_dict())
        return plain, traced

    jobs = [job for pair in timed_rounds(seconds, one_round, predict=True)
            for job in pair]
    metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    metrics["trace.overhead_s"] = (statistics.median(j.seconds for j in jobs if j.traced)
                                   - statistics.median(j.seconds for j in jobs
                                                       if not j.traced))
    metrics.update(compare_solvers(we, seed))
    return metrics, jobs, {"jobs": traces, "per_job": per_job}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance test's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    we = load_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, build_problems
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        parser.error("seed must fit in 64 unsigned bits")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload.name]
    pin_applies = not workload.seeded or seed == pinned["seed"]
    os.environ["WEAKERR_THREADS"] = str(workload.threads)

    setup = measure_setup(workload.spec.problems)
    problems = build_problems(we, workload)
    info = machine_info()
    sizes = {"workload": workload.name, "seed": seed, "seed_used": workload.seeded,
             "WEAKERR_THREADS": workload.threads, "work": workload.work,
             "work_per_job": workload.spec.counts(problems)[workload.work],
             "digest_pinned_at_this_seed": pin_applies}

    if args.trace:
        metrics, jobs, trace = traced_run(we, workload, problems, seed, args.seconds)
        word = metrics["rng.temp_bytes"]
        sizes["rng_temporaries"] = (
            f"computed: {word} B per Philox word array, six live in the rounds "
            f"({6 * word} B), against L3 {info.get('l3_per_instance', 'unknown')}; "
            "no bandwidth ratio is claimed")
        wanted = spec["per_layer"]
    else:
        jobs = timed_rounds(args.seconds, lambda: run_job(we, workload, problems, seed))
        metrics, trace = {}, None
        wanted = spec["end_to_end"]

    for job in jobs:
        check_job(we, workload, problems, job)
    failed = sum(1 for job in jobs if job.failures)
    digests = {job.digest for job in jobs}
    digest_ok = len(digests) == 1 and (not pin_applies or digests == {pinned["sha256"]})
    job_s = statistics.median(job.seconds for job in jobs if not job.traced)
    metrics.update({
        "setup_s": statistics.median(setup),
        "job_s": job_s,
        "work_per_s": sizes["work_per_job"] / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "pass_frac": (len(jobs) - failed) / len(jobs),
        "digest_ok": float(digest_ok),
    })
    sizes["report_sha256"] = sorted(digests)
    sizes["setup_seconds"] = setup
    sizes["job_seconds"] = [job.seconds for job in jobs if not job.traced]

    if trace is not None:
        with open(OUT / f"trace-{workload.name}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"machine": info, "sizes": sizes, "metrics": metrics, **trace}, fh)
    for job in jobs:
        for failure in job.failures:
            print(f"bench: job failed: {failure}", file=sys.stderr)

    print("# machine " + json.dumps(info))
    print("# sizes " + json.dumps(sizes))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name:<36} {value:>18.6g} {units.get(name, '')}")
    # The same figures under the names the metrics have on this workload.
    print(f"{workload.work.split('.')[1] + '_per_s':<36} {metrics['work_per_s']:>18.6g} 1/s")
    print(f"{'fail_frac':<36} {1.0 - metrics['pass_frac']:>18.6g} fraction "
          f"({failed} of {len(jobs)} jobs)")
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
