"""The benchmark's workloads: the acceptance experiments that dominate the
test suite's wall time, sized so that one job takes a few seconds on two
cores.

A job is one seeded report, from the library call to the rendered JSON
bytes.  Each workload also carries

* its correctness gate, mirroring the acceptance check it is drawn from,
  which holds at every seed;
* its work per job (path steps or quadrature nodes), counted from the
  configuration alone so that it does not depend on the implementation;
* the closed-form values of the counters the traced run records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

EXPAND_LEVELS = (16, 32, 64, 128, 256, 512)
QUAD_PANELS = 64
# C1 quadrature per problem: 64 Gauss-Hermite nodes x 8 Gauss-Legendre points
# x (64 + 128) panels, the second pass being the node-doubling estimate.
QUAD_NODES_PER_C1 = 64 * 8 * (QUAD_PANELS + 2 * QUAD_PANELS)


@dataclass(frozen=True)
class McSpec:
    """One ``estimate_weak_error`` call per problem, in order."""

    problems: tuple
    n_paths: int
    finest_n: int
    levels: tuple

    def config(self, we, seed: int):
        return we.montecarlo.McConfig(n_paths=self.n_paths, seed=seed,
                                      finest_n=self.finest_n, levels=self.levels)

    def sim_levels(self, p) -> tuple:
        # A surrogate reference also simulates finest_n / 2 and finest_n.
        extra = () if p.exact_terminal is not None else (self.finest_n // 2, self.finest_n)
        return self.levels + extra

    def counts(self, problems: dict) -> dict:
        units = self.n_paths // 2  # antithetic pairs
        return {
            "rng.normals": len(self.problems) * units * self.finest_n,
            "schemes.path_steps": sum(self.n_paths * sum(self.sim_levels(problems[n]))
                                      for n in self.problems),
            "expansion.quad_nodes": 0,
        }

    def run(self, we, problems: dict, seed: int) -> list:
        return [we.montecarlo.estimate_weak_error(problems[name], self.config(we, seed),
                                                  "implicit")
                for name in self.problems]


@dataclass(frozen=True)
class ExpandSpec:
    """One ``expansion_check`` with psi_i per problem, in order."""

    problems: tuple

    def counts(self, problems: dict) -> dict:
        return {"rng.normals": 0, "schemes.path_steps": 0,
                "expansion.quad_nodes": len(self.problems) * QUAD_NODES_PER_C1}

    def run(self, we, problems: dict, seed: int) -> list:
        return [we.rates.expansion_check(problems[name], EXPAND_LEVELS,
                                         kind=we.expansion.PSI_I, quad_nodes=QUAD_PANELS)
                for name in self.problems]


def _gate_richardson_small(we, problems, reports) -> list:
    """Criterion 08's "small" test on every extrapolated level pair."""
    bad = []
    for rep in reports:
        raw = {lv.n_steps: lv for lv in rep.levels}
        horizon = problems[rep.problem].horizon
        for pt in we.montecarlo.richardson(rep):
            limit = 0.25 * abs(raw[round(horizon / pt.h)].estimate) + 4.0 * pt.stderr
            if not abs(pt.extrapolated_error) <= limit:
                bad.append(f"{rep.problem} h={pt.h}: |{pt.extrapolated_error:.3e}| "
                           f"> {limit:.3e}")
    return bad


def _gate_oracle_agreement(we, problems, reports) -> list:
    """Criterion 11: every level within 4 stderr of the moment oracle."""
    bad = []
    for rep in reports:
        p = problems[rep.problem]
        for lv in rep.levels:
            exact = we.moments_oracle.weak_error_exact(
                p, we.schemes.SchemeConfig(n_steps=lv.n_steps))
            if not abs(lv.estimate - exact) <= 4.0 * lv.stderr:
                bad.append(f"{rep.problem} N={lv.n_steps}: |{lv.estimate:.4e} - "
                           f"{exact:.4e}| > 4 x {lv.stderr:.2e}")
    return bad


def _gate_residual_slope(we, problems, reports) -> list:
    """Criterion 02: weak_err - h C1 has log-log slope >= 1.9."""
    bad = []
    for table in reports:
        fit = table.residual_fit
        if fit is None or not fit.slope >= 1.9:
            bad.append(f"{table.problem}: residual slope "
                       f"{None if fit is None else round(fit.slope, 4)} < 1.9")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    threads: int
    work: str
    spec: object
    gate: Callable
    seeded: bool = True


WORKLOADS = {w.name: w for w in (
    # Criterion 08 at a tenth of its paths: long 512-step rows (32 MiB Philox
    # word arrays per batch) and nonlinear fixed-point steps, one thread.
    Workload(
        name="mc-tanh",
        default_seed=2718, threads=1, work="schemes.path_steps",
        spec=McSpec(problems=("tanh",), n_paths=100_000, finest_n=512,
                    levels=(16, 32, 64)),
        gate=_gate_richardson_small),
    # Criterion 11 at full size: the same layers on short 64-step rows with
    # closed-form steps, so the thread pool and batching carry the weight.
    Workload(
        name="mc-affine",
        default_seed=20_240_809, threads=2, work="schemes.path_steps",
        spec=McSpec(problems=("ou", "gbm"), n_paths=1_000_000, finest_n=64,
                    levels=(16, 64)),
        gate=_gate_oracle_agreement),
    # Criterion 02: C1 quadrature as scalar jet algebra; it bypasses rng,
    # schemes and montecarlo, so Monte Carlo changes should not move it.
    Workload(
        name="expand-affine",
        default_seed=0, threads=1, work="expansion.quad_nodes",
        spec=ExpandSpec(problems=("ou", "gbm")),
        gate=_gate_residual_slope, seeded=False),
)}


def build_problems(we, workload: Workload) -> dict:
    return {name: we.get_problem(name) for name in workload.spec.problems}
