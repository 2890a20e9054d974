"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import itertools
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

import weakerr as we
from weakerr import rng
from weakerr.expansion import PSI_E, PSI_I, eval_psi, eval_psi_i_expanded, psi_ih_gap
from weakerr.jets import Jet4
from weakerr.montecarlo import McConfig, estimate_weak_error, richardson
from weakerr.rates import expansion_check, fit_rate, oracle_report
from weakerr.reports import render
from weakerr.schemes import SchemeConfig, check_step_size

LEVELS = (16, 32, 64, 128, 256, 512)


def _report(num, ok, description, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


def _random_jets(count, seed):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        b = Jet4(tuple(gen.uniform(-2, 2, 3)))
        s = Jet4(tuple(gen.uniform(-2, 2, 3)))
        u = Jet4(tuple(gen.uniform(-2, 2, 5)))
        yield b, s, u


def _term_scale(b, s, u):
    v = s.d[0] ** 2
    return 1.0 + sum(abs(t) for t in (
        b.d[0] * (b.d[1] * u.d[1] + b.d[0] * u.d[2]),
        v * (b.d[2] * u.d[1] + 2 * b.d[1] * u.d[2] + b.d[0] * u.d[3]),
        b.d[0] ** 2 * u.d[2],
        v * v * u.d[4],
        b.d[0] * (2 * s.d[0] * s.d[1] * u.d[2] + v * u.d[3]),
        v * ((2 * s.d[1] ** 2 + 2 * s.d[0] * s.d[2]) * u.d[2]
             + 4 * s.d[0] * s.d[1] * u.d[3] + v * u.d[4]),
    ))


def test_criterion_01_order_one_convergence(problems):
    """Implicit scheme has weak order one on the affine benchmarks."""
    details = []
    ok = True
    for name in ("ou", "gbm"):
        p = problems[name]
        fit = fit_rate([(p.horizon / n, we.weak_error_exact(p, SchemeConfig(n_steps=n)))
                        for n in LEVELS])
        details.append(f"{name}: slope={fit.slope:.4f} r2={fit.r_squared:.6f}")
        ok = ok and 0.95 <= fit.slope <= 1.05 and fit.r_squared >= 0.999
    _report(1, ok, "order-1 weak convergence (oracle, N=16..512)", "; ".join(details))


def test_criterion_02_first_order_expansion(problems):
    """weak_err - h*C1(psi_i) is O(h^2); the explicit density is not a substitute."""
    good = expansion_check(problems["ou"], LEVELS, kind=PSI_I)
    control = expansion_check(problems["ou"], LEVELS, kind=PSI_E)
    ok = good.residual_fit.slope >= 1.9 and control.residual_fit.slope < 1.5
    _report(2, ok, "first-order expansion on ou",
            f"residual slope={good.residual_fit.slope:.3f}, "
            f"psi_e control slope={control.residual_fit.slope:.3f}")


def test_criterion_03_scheme_coincidence_at_zero_drift(problems, full_paths):
    """For b = 0 the two schemes produce identical paths and zero weak error."""
    p = problems["bm"]
    mc = McConfig(n_paths=100_000, seed=314, finest_n=64, levels=(8, 16, 64))
    incs = rng.gaussian_increments(mc.seed, np.arange(200, dtype=np.uint64), 64,
                                   p.horizon / 64)
    expl = full_paths(p, SchemeConfig(n_steps=64, kind="explicit"), incs)
    impl = full_paths(p, SchemeConfig(n_steps=64, kind="implicit"), incs)
    bitwise = np.array_equal(expl, impl)

    rep = estimate_weak_error(p, mc, "implicit")
    mc_zero = all(abs(lv.estimate) <= 4.0 * lv.stderr for lv in rep.levels)
    worst_z = max(abs(lv.estimate) / lv.stderr for lv in rep.levels)

    oracle_zero = all(abs(we.weak_error_exact(p, SchemeConfig(n_steps=n))) <= 1e-12
                      for n in LEVELS)
    _report(3, bitwise and mc_zero and oracle_zero,
            "explicit/implicit coincide at b=0",
            f"bitwise={bitwise}, worst |mc|/stderr={worst_z:.2f}, oracle<=1e-12")


def test_criterion_04_psi_algebra():
    """Density identity and dual-implementation equality on random jets."""
    worst_id, worst_dual = 0.0, 0.0
    for b, s, u in _random_jets(1000, seed=271828):
        scale = _term_scale(b, s, u)
        worst_id = max(worst_id, we.psi_identity_residual(b, s, u) / scale)
        dual = abs(eval_psi(PSI_I, b, s, u) - eval_psi_i_expanded(b, s, u)) / scale
        worst_dual = max(worst_dual, dual)
    ok = worst_id <= 1e-12 and worst_dual <= 1e-12
    _report(4, ok, "psi identity and dual implementation on 1000 random jets",
            f"worst identity residual={worst_id:.2e}, worst dual gap={worst_dual:.2e}")


def test_criterion_05_psi_ih_gap(problems):
    """psi_ih - psi_i matches its closed form and shrinks linearly in h."""
    worst = 0.0
    gen = np.random.default_rng(161803)
    for b, s, u in _random_jets(1000, seed=161803):
        h = float(gen.uniform(0.01, 0.2))
        gap, closed = psi_ih_gap(b, s, u, h)
        worst = max(worst, abs(gap - closed) / _term_scale(b, s, u))

    p = problems["ou"]
    ratios = []
    for t, x in [(0.1, 0.6), (0.4, 1.3), (0.8, -0.9)]:
        jets = (p.b_jet(x), p.sigma_jet(x), p.u_jet(t, x))
        g1, _ = psi_ih_gap(*jets, 0.05)
        g2, _ = psi_ih_gap(*jets, 0.025)
        ratios.append(g2 / g1)
    halves = all(abs(r - 0.5) <= 0.05 for r in ratios)
    _report(5, worst <= 1e-12 and halves, "psi_ih gap closed form and O(h) decay",
            f"worst closed-form gap={worst:.2e}, "
            f"halving ratios={[round(r, 3) for r in ratios]}")


def test_criterion_06_fixed_point_contraction(problems):
    """Iteration error ratio <= h * lip_b; limit independent of the start point."""
    gen = np.random.default_rng(577215)
    ok = True
    details = []
    for name in ("ou", "gbm", "tanh"):
        p = problems[name]
        cfg = SchemeConfig(n_steps=8, fp_tol=1e-15, fp_max_iter=300)
        h = check_step_size(p, cfg)
        bound = h * p.lip_b + 1e-9
        if name == "gbm":
            x = gen.uniform(0.5, 2.0, 10_000)
        else:
            x = gen.uniform(-2.0, 2.0, 10_000)
        dw = gen.normal(0.0, math.sqrt(h), 10_000)
        x_star, _ = we.implicit_step(p, cfg, h, x, dw)
        xi = x + p.sigma_jet(x, order=0).value() * dw
        y = xi
        err_prev = np.abs(y - x_star)
        worst_ratio = 0.0
        for _ in range(10):
            y = xi + h * p.b_jet(y, order=0).value()
            err = np.abs(y - x_star)
            mask = err_prev > 1e-6
            if not np.any(mask):
                break
            worst_ratio = max(worst_ratio, float(np.max(err[mask] / err_prev[mask])))
            err_prev = err
        ratio_ok = worst_ratio <= bound

        cfg13 = SchemeConfig(n_steps=8, fp_tol=1e-13, fp_max_iter=300)
        y_default, _ = we.implicit_step(p, cfg13, h, x, dw)
        y_zero, _ = we.implicit_step(p, cfg13, h, x, dw, start=0.0)
        start_ok = float(np.max(np.abs(y_default - y_zero))) <= 1e-12
        ok = ok and ratio_ok and start_ok
        details.append(f"{name}: ratio={worst_ratio:.4f}<= {bound:.4f}, "
                       f"start-indep={start_ok}")
    _report(6, ok, "fixed-point contraction on 1e4 random steps per benchmark",
            "; ".join(details))


def test_criterion_07_pathwise_derivative(problems):
    """Central-difference derivative of the implicit step matches S_h(X_next) sigma(X)."""
    gen = np.random.default_rng(141421)
    ok = True
    details = []
    for name in ("bm", "ou", "gbm", "tanh"):
        p = problems[name]
        cfg = SchemeConfig(n_steps=8, fp_tol=1e-14, fp_max_iter=300)
        h = check_step_size(p, cfg)
        worst = 0.0
        for _ in range(100):
            if name == "gbm":
                x = float(gen.uniform(0.5, 2.0))
            else:
                x = float(gen.uniform(-2.0, 2.0))
            dw = float(gen.normal(0.0, math.sqrt(h)))
            fd, theory = we.pathwise_derivative_check(p, cfg, h, x, dw, eps=1e-5)
            worst = max(worst, abs(fd - theory) / abs(theory))
        ok = ok and worst <= 1e-6
        details.append(f"{name}: {worst:.2e}")
    _report(7, ok, "pathwise derivative vs resolvent, 100 states per benchmark",
            "; ".join(details))


def test_criterion_08_richardson_second_order(problems):
    """Extrapolation cancels the first-order term: noise-free and sampled."""
    rep = oracle_report(problems["ou"], "implicit", LEVELS)
    pts = richardson(rep)
    fit = fit_rate([(pt.h, pt.extrapolated_error) for pt in pts])
    oracle_ok = fit.slope >= 1.9

    p = problems["tanh"]
    mc = McConfig(n_paths=1_000_000, seed=2718, finest_n=512, levels=(16, 32, 64))
    mc_rep = estimate_weak_error(p, mc, "implicit")
    mc_pts = richardson(mc_rep)
    raw = {lv.n_steps: lv for lv in mc_rep.levels}
    small = all(abs(pt.extrapolated_error)
                <= 0.25 * abs(raw[round(p.horizon / pt.h)].estimate) + 4 * pt.stderr
                for pt in mc_pts)
    quad = True
    for a, b in zip(mc_pts, mc_pts[1:]):
        # O(h^2) scaling: consecutive extrapolated errors shrink 4x within CI
        tol = 4.0 * (a.stderr / 4.0 + b.stderr)
        quad = quad and abs(b.extrapolated_error - a.extrapolated_error / 4.0) <= tol
    ok = oracle_ok and small and quad
    _report(8, ok, "richardson is second order (ou oracle; tanh mc at 1e6 paths)",
            f"oracle slope={fit.slope:.3f}, mc extrapolated="
            + ", ".join(f"{pt.extrapolated_error:+.2e}+-{pt.stderr:.1e}"
                        for pt in mc_pts))


def _sup_moments(p, n_steps, n_paths, seed):
    """sup over grid points of E|X_k|^p for p in (2, 4, 8), by streaming batches.

    Reads the states of ``iter_paths``, the stepper behind Monte Carlo, one
    step at a time: a whole 25000 x 513 batch of paths would take 103 MB.
    """
    cfg = SchemeConfig(n_steps=n_steps)
    h = check_step_size(p, cfg)
    sums = np.zeros((n_steps + 1, 3))
    batch = 25_000
    for lo in range(0, n_paths, batch):
        n = min(batch, n_paths - lo)
        incs = rng.gaussian_increments(seed, np.arange(lo, lo + n, dtype=np.uint64),
                                       n_steps, h)
        states = we.iter_paths(p, cfg, incs)
        for k, x in enumerate(itertools.chain([np.full(n, p.x0)], states)):
            x2 = x * x
            x4 = x2 * x2
            sums[k] += (x2.sum(), x4.sum(), (x4 * x4).sum())
    return (sums / n_paths).max(axis=0)


def test_criterion_09_moment_boundedness(problems):
    """sup_k E|X_k|^p stays within a factor two across grid refinements."""
    ok = True
    details = []
    for name in ("bm", "ou", "gbm", "tanh"):
        p = problems[name]
        sups = np.array([_sup_moments(p, n, 100_000, seed=909 + n)
                         for n in (8, 16, 32, 64, 128, 256, 512)])
        spread = sups.max(axis=0) / sups.min(axis=0)
        ok = ok and bool(np.all(spread < 2.0))
        details.append(f"{name}: spread(p=2,4,8)=" +
                       "/".join(f"{s:.2f}" for s in spread))
    _report(9, ok, "moment boundedness, 1e5 paths, N=8..512", "; ".join(details))


def test_criterion_10_kolmogorov_residual(problems):
    """u solves the backward PDE on the sampling box and meets f at T."""
    ok = True
    details = []
    for name in ("ou", "gbm"):
        p = problems[name]
        worst = 0.0
        for t in np.linspace(0.0, p.horizon - 1e-3, 20):
            for x in np.linspace(p.x0 - 3.0, p.x0 + 3.0, 20):
                worst = max(worst, we.kolmogorov_residual(p, float(t), float(x), 1e-5))
        ok = ok and worst <= 1e-8
        details.append(f"{name}: max residual={worst:.2e}")
    terminal_ok = True
    for name in ("bm", "ou", "gbm"):
        p = problems[name]
        for x in np.linspace(p.x0 - 3.0, p.x0 + 3.0, 9):
            uT = p.u_jet(p.horizon, float(x))
            for k in range(5):
                fk = P.polyval(x, P.polyder(p.f_poly, k))
                if abs(uT.deriv(k) - fk) > 1e-10 * max(1.0, abs(fk)):
                    terminal_ok = False
    _report(10, ok and terminal_ok,
            "Kolmogorov residual <= 1e-8 on 20x20 grid; u(T,.) = f with derivatives",
            "; ".join(details) + f"; terminal={terminal_ok}")


def test_criterion_11_mc_oracle_consistency(problems):
    """Seeded MC agrees with the noise-free oracle and reproduces bitwise."""
    ok = True
    details = []
    for name in ("ou", "gbm"):
        p = problems[name]
        mc = McConfig(n_paths=1_000_000, seed=20_240_809, finest_n=64, levels=(16, 64))
        rep = estimate_weak_error(p, mc, "implicit")
        zs = []
        for lv in rep.levels:
            oracle = we.weak_error_exact(p, SchemeConfig(n_steps=lv.n_steps))
            zs.append(abs(lv.estimate - oracle) / lv.stderr)
        again = estimate_weak_error(p, mc, "implicit")
        reproducible = (render(rep, "json") == render(again, "json")
                        and np.array_equal(rep.covariance, again.covariance))
        ok = ok and max(zs) <= 4.0 and reproducible
        details.append(f"{name}: max|z|={max(zs):.2f}, reproducible={reproducible}")
    _report(11, ok, "MC within 4 stderr of oracle at 1e6 paths; bit-reproducible",
            "; ".join(details))
