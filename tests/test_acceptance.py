"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything executes at
desk scale; the two multi-minute checks (subsampling error law, rotating
mill) carry the ``slow`` marker and can be deselected with ``-m "not
slow"``.
"""
import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from swarmuq.cli import (
    _final_temperature,
    _oracle_temperature,
    _run_threads,
    build_experiment,
    cmd_converge,
    cmd_run,
    load_config,
    preset_path,
)
from swarmuq.diagnostics import (
    expected_temperature,
    flocking_spreads,
    reconstruct_expected_density,
)
from swarmuq.ensemble import (
    InitialCondition,
    evaluate_at_nodes,
    sample_initial,
)
from swarmuq.gpc import PolynomialFamily, build_basis, reconstruct_at, tensor_basis
from swarmuq.models import CuckerSmaleParams, MorseSwarmParams
from swarmuq.solver import ModelSpec, SolverConfig, run, step

from oracles import direct_rk4, uniform_expectation


def _report(num, name, ok, detail):
    print(f"\ncriterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_c01_theta_pointwise_oracle_equivalence():
    n, q, dt, t_end = 8, 14, 0.01, 1.0
    ic = InitialCondition.bivariate_bimodal_1d()
    k_fun = lambda th: 1.0 + 0.0 * np.asarray(th)
    g_fun = lambda th: 0.1 + 0.05 * np.asarray(th)
    started = time.time()
    errors = {}
    for order in range(2, 7):
        basis = build_basis(PolynomialFamily.LEGENDRE, order, q)
        spec = ModelSpec(basis=basis,
                         alignment=CuckerSmaleParams(K="1.0", gamma="0.1+0.05*theta"))
        cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=21,
                           model=spec)
        _, fin = run(ic, cfg)
        x_nodes, v_nodes = evaluate_at_nodes(fin, basis)
        ens0 = sample_initial(ic, n, 21, basis.n_modes)
        diff = scale = 0.0
        for idx, theta in enumerate(basis.quad_nodes):
            xd, vd = direct_rk4(ens0.x_hat[:, :, 0], ens0.v_hat[:, :, 0], theta, dt,
                                round(t_end / dt), k_fun=k_fun, gamma_fun=g_fun)
            diff = max(diff, np.abs(x_nodes[:, :, idx] - xd).max(),
                       np.abs(v_nodes[:, :, idx] - vd).max())
            scale = max(scale, np.abs(xd).max(), np.abs(vd).max())
        errors[order] = diff / scale
    elapsed = time.time() - started
    geometric = all(errors[m + 1] < errors[m] or errors[m + 1] < 1e-8 for m in range(2, 6))
    ok = errors[6] < 1e-6 and geometric and elapsed < 10.0
    _report(1, "theta-pointwise oracle equivalence", ok,
            f"err(M=6)={errors[6]:.2e} < 1e-6, decay "
            + "->".join(f"{errors[m]:.1e}" for m in range(2, 7))
            + f", {elapsed:.1f}s < 10s")


def test_c02_homogeneous_temperature_decay():
    n, t_end, dt = 10000, 1.0, 0.01
    ic = InitialCondition.bimodal_velocity_1d()
    started = time.time()
    v0 = sample_initial(ic, n, 77, 1).v_hat[:, 0, 0]
    se0 = np.std((v0 - v0.mean()) ** 2) / np.sqrt(n)
    t0_pop = 0.1625  # sigma^2 + mu^2 of the mixture

    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    det = ModelSpec(basis=basis, alignment=CuckerSmaleParams(K="1.0", gamma="0.0"))
    cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=77, model=det)
    _, fin = run(ic, cfg)
    t_det = expected_temperature(fin, basis)
    target_det = t0_pop * np.exp(-2.0 * t_end)
    tol_det = 3.0 * se0 * np.exp(-2.0 * t_end)
    ok_det = abs(t_det - target_det) < tol_det

    decay = uniform_expectation(lambda th: np.exp(-2.0 * (1.0 + 0.25 * th) * t_end))
    oks, details = [ok_det], [f"det: |{t_det:.5f}-{target_det:.5f}|<{tol_det:.1e}"]
    for order in (4, 5):
        b = build_basis(PolynomialFamily.LEGENDRE, order)
        spec = ModelSpec(basis=b, alignment=CuckerSmaleParams(K="1+0.25*theta", gamma="0.0"))
        c = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=77,
                         model=spec)
        _, f = run(ic, c)
        t_u = expected_temperature(f, b)
        ok = abs(t_u - t0_pop * decay) < 3.0 * se0 * decay
        oks.append(ok)
        details.append(f"M={order}: |{t_u:.5f}-{t0_pop * decay:.5f}|<{3 * se0 * decay:.1e}")
    elapsed = time.time() - started
    oks.append(elapsed < 60.0)
    _report(2, "homogeneous temperature decay", all(oks),
            "; ".join(details) + f"; {elapsed:.1f}s < 60s")


def test_c03_spectral_convergence_in_order(tmp_path):
    out = tmp_path / "m_sweep"
    rc = cmd_converge("homogeneous", sweep="M=1,2,3,4,5", out=str(out), threads=2)
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    errors = [float(r.split(",")[5]) for r in rows]
    floor = 1e-12
    monotone = all(errors[i + 1] < errors[i] or errors[i + 1] < floor
                   for i in range(len(errors) - 1))
    _report(3, "spectral convergence in expansion order", rc == 0 and monotone,
            "errors " + "->".join(f"{e:.1e}" for e in errors) + f" (floor {floor:.0e})")


@pytest.mark.slow
def test_c04_subsampling_error_law():
    # N, S, M, dt, t_end follow the homogeneous preset; the kernel strength
    # is raised (same 25% relative spread) so the subsampling bias clears
    # the Monte Carlo fluctuation floor over the whole resolvable S range
    n, t_end, dt, order = 10000, 1.0, 0.01, 5
    ic = InitialCondition.bimodal_velocity_1d()
    basis = build_basis(PolynomialFamily.LEGENDRE, order)
    spec = ModelSpec(basis=basis, alignment=CuckerSmaleParams(K="12+3*theta", gamma="0.0"))
    sweep = (10, 100, 1000)
    seeds = (301, 302, 303)
    # on every usable core: a run's result does not depend on its workers
    threads = _run_threads(None)
    signed = {s: [] for s in sweep}
    for seed in seeds:
        ref_cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=seed,
                               model=spec)
        _, ref_fin = run(ic, ref_cfg, threads=threads)
        t_ref = expected_temperature(ref_fin, basis)
        for s in sweep:
            cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=s, seed=seed,
                               model=spec)
            _, fin = run(ic, cfg, threads=threads)
            signed[s].append(expected_temperature(fin, basis) - t_ref)
    xs = [np.log(1.0 / s - 1.0 / n) for s in sweep]
    ys = [np.log(abs(np.mean(signed[s]))) for s in sweep]
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = 0.75 <= slope <= 1.25
    _report(4, "subsampling error law", ok,
            f"slope={slope:.2f} in [0.75, 1.25]; mean errors "
            + ", ".join(f"S={s}:{abs(np.mean(signed[s])):.1e}" for s in sweep))


def test_c05_pde_oracle_cross_validation():
    cfg = load_config("homogeneous")
    cfg = dataclasses.replace(cfg, subsample_size=50)
    t_oracle = _oracle_temperature(cfg)  # reference on the preset's 101-point velocity grid
    seeds = range(10)
    mean_abs = {}
    for n in (1000, 10000):
        errs = []
        for seed in seeds:
            point = dataclasses.replace(cfg, n_particles=n, subsample_size=50, seed=seed)
            errs.append(abs(_final_temperature(point) - t_oracle))
        mean_abs[n] = float(np.mean(errs))
    ok = mean_abs[10000] < mean_abs[1000]
    _report(5, "reference-solver cross-validation", ok,
            f"mean |err| N=1e3: {mean_abs[1000]:.2e} > N=1e4: {mean_abs[10000]:.2e}")


def test_c06_conservation_and_positivity():
    basis = build_basis(PolynomialFamily.LEGENDRE, 4)
    spec = ModelSpec(basis=basis,
                     alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="0.1+0.05*theta"))
    n = 200
    cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=n, seed=2, model=spec)
    ens = sample_initial(InitialCondition.bivariate_bimodal_1d(), n, 2, basis.n_modes)
    mean_prev = ens.v_hat.mean(axis=0)
    worst_step = 0.0
    for k in range(100):
        ens = step(ens, cfg, np.random.default_rng(k))
        mean_now = ens.v_hat.mean(axis=0)
        worst_step = max(worst_step, np.abs(mean_now - mean_prev).max())
        mean_prev = mean_now
    ok_cons = worst_step < 1e-10

    ok_hist = True
    details = []
    for kind, axes in (("position", [(-3, 3, 40)]), ("velocity", [(-3, 3, 40)]),
                       ("phase-space", [(-3, 3, 40), (-3, 3, 40)])):
        grid = reconstruct_expected_density(ens, axes, kind=kind)
        ok_hist &= abs(grid.total_mass - 1.0) < 1e-12 and grid.values.min() >= 0.0
        details.append(f"{kind}: mass-1={grid.total_mass - 1.0:.1e}, min={grid.values.min():g}")
    _report(6, "conservation and histogram positivity", ok_cons and ok_hist,
            f"max per-step mean-velocity drift {worst_step:.1e} < 1e-10; " + "; ".join(details))


def test_c07_flocking_decay_at_every_node():
    cfg = load_config("cs_1d_desk")
    ic, solver_cfg = build_experiment(cfg)
    basis = solver_cfg.model.basis
    recs, _ = run(ic, solver_cfg, observers=[lambda e: flocking_spreads(e, basis)],
                  observer_stride=25)
    times = np.array([t for t, _ in recs])
    lams = np.array([lam for _, ((_, lam),) in recs])
    rates = [np.polyfit(times, np.log(lams[:, q]), 1)[0] for q in range(basis.n_nodes)]
    collapse = lams[-1] / lams[0]
    ok = all(r < 0 for r in rates) and (lams[-1] < 1e-2 * lams[0]).all()
    _report(7, "1d flocking at every node", ok,
            f"fit rates in [{min(rates):.2f}, {max(rates):.2f}] all < 0; "
            f"max final/initial spread {collapse.max():.1e} < 1e-2")


def test_c08_2d_flocking_coherence():
    cfg = load_config("cs_2d_desk")
    ic, solver_cfg = build_experiment(cfg)
    _, fin = run(ic, solver_cfg)
    v0 = fin.v_hat[:, :, 0]
    coherence = np.linalg.norm(v0.mean(axis=0)) / np.linalg.norm(v0, axis=1).mean()
    _report(8, "2d flocking coherence", coherence > 0.9,
            f"|mean v| / mean |v| = {coherence:.4f} > 0.9 at t=10")


@pytest.mark.slow
def test_c09_mill_regime():
    cfg = load_config("mill_2d_desk")
    ic, solver_cfg = build_experiment(cfg)
    morse = solver_cfg.model.morse
    target = np.sqrt(morse.a / morse.b)
    # on every usable core: a run's result does not depend on its workers (c11)
    _, fin = run(ic, solver_cfg, threads=_run_threads(None))
    v_mid = reconstruct_at(fin.v_hat, 0.0, solver_cfg.model.basis)
    x_mid = reconstruct_at(fin.x_hat, 0.0, solver_cfg.model.basis)
    speeds = np.linalg.norm(v_mid, axis=1)
    rel_dev = abs(speeds.mean() - target) / target
    dispersion = speeds.std() / speeds.mean()
    cross = x_mid[:, 0] * v_mid[:, 1] - x_mid[:, 1] * v_mid[:, 0]
    ccw = float((cross > 0).mean())
    ok = rel_dev < 0.05 and dispersion < 0.1
    _report(9, "rotating mill regime", ok,
            f"mean|v|={speeds.mean():.4f} vs sqrt(a/b)={target:.4f} ({100 * rel_dev:.1f}% < 5%), "
            f"std/mean={dispersion:.3f} < 0.1; rotation split ccw={ccw:.2f}/cw={1 - ccw:.2f} "
            "(reported)")


def test_c10_tensor_uncertainty_consistency():
    order, n, t_end = 4, 100, 1.0
    b1 = build_basis(PolynomialFamily.LEGENDRE, order)
    b2 = build_basis(PolynomialFamily.LEGENDRE, order)
    tensor = tensor_basis(b1, b2)
    morse = MorseSwarmParams(a=0.7, b=0.5, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    align = CuckerSmaleParams(K="5.0", gamma="0.1+0.05*theta")
    ic = InitialCondition.annulus_rotating_2d()
    cfg2 = SolverConfig(n_particles=n, dt=0.01, t_end=t_end, subsample_size=n, seed=31,
                        model=ModelSpec(basis=tensor, alignment=align, morse=morse))
    cfg1 = SolverConfig(n_particles=n, dt=0.01, t_end=t_end, subsample_size=n, seed=31,
                        model=ModelSpec(basis=b1, alignment=align, morse=morse))
    _, fin2 = run(ic, cfg2)
    _, fin1 = run(ic, cfg1)
    m2 = b2.n_modes
    v2 = fin2.v_hat.reshape(n, 2, b1.n_modes, m2)
    x2 = fin2.x_hat.reshape(n, 2, b1.n_modes, m2)
    spurious = max(np.abs(v2[:, :, :, 1:]).max(), np.abs(x2[:, :, :, 1:]).max())
    marginal = max(np.abs(v2[:, :, :, 0] - fin1.v_hat).max(),
                   np.abs(x2[:, :, :, 0] - fin1.x_hat).max())
    ok = spurious < 1e-10 and marginal < 1e-8
    _report(10, "tensor-uncertainty consistency", ok,
            f"second-input modes {spurious:.1e} < 1e-10; marginal mismatch {marginal:.1e} < 1e-8")


def test_c11_reproducibility(tmp_path):
    # cs_1d_desk's 1000 rows are one chunk; 5 steps of mill_2d_desk take
    # the node path on 4 chunks of 655 rows on one thread, and on 7 and 10
    # chunks shared by 2 and 3 workers (at most one per usable core)
    mill = tmp_path / "mill_short.cfg"
    mill.write_text(preset_path("mill_2d_desk").read_text().replace("t_end = 100.0", "t_end = 0.1"))
    runs = {}
    for config, threads in (("cs_1d_desk", 1), ("cs_1d_desk", 4),
                            (str(mill), 1), (str(mill), 2), (str(mill), 3)):
        out = tmp_path / f"{Path(config).stem}_{threads}"
        rc = cmd_run(config, out=str(out), threads=threads)
        assert rc == 0
        runs.setdefault(config, set()).add(((out / "stats.csv").read_bytes(),
                                            (out / "ensemble_final.csv").read_bytes()))
    ok = all(len(outputs) == 1 for outputs in runs.values())
    _report(11, "bit-identical reproducibility", ok,
            "stats.csv and final snapshot identical across thread counts")
