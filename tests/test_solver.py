import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse, stats

from swarmuq.cli import available_presets, build_experiment, load_config
from swarmuq.ensemble import GpcEnsemble, InitialCondition, evaluate_at_nodes, sample_initial
from swarmuq.errors import ConfigurationError, IntegrationBlowupError
from swarmuq.gpc import PolynomialFamily, build_basis, tensor_basis
from swarmuq.models import CuckerSmaleParams, MorseSwarmParams, alignment_kernel
from swarmuq import solver
from swarmuq.solver import (
    ModelSpec,
    SolverConfig,
    _Context,
    _Workers,
    _forces_for_rows,
    _openblas,
    _partner_mean_less_own,
    _rows_of,
    _sorted_redraw,
    _velocity_rate_full,
    draw_subsamples,
    run,
    step,
)

from oracles import direct_rk4, forces_for_rows, rejection_subsamples


def _cs_spec(order=5, K="1.0", gamma="0.1+0.05*theta", quad=None):
    basis = build_basis(PolynomialFamily.LEGENDRE, order, quad)
    return ModelSpec(basis=basis, alignment=CuckerSmaleParams(K=K, gamma=gamma))


def _interaction_coeffs(ens, i, j, params, basis):
    """Modal interaction matrix e[h, k] between particles i and j:
    the coupling matrix of the alignment kernel at their node distances."""
    nodes = basis.nodes[0]
    xi, xj = ens.x_hat[i] @ basis.basis_table, ens.x_hat[j] @ basis.basis_table
    r_sq = np.sum((xi - xj) ** 2, axis=0)
    return basis.coupling_matrix(alignment_kernel(params.K(nodes), params.gamma(nodes), r_sq))


def _rate(ens, partners, spec):
    """Modal velocity rate of every particle when each interacts with the
    same partners."""
    sub = np.tile(np.asarray(partners), (ens.n_particles, 1))
    return _velocity_rate_full(ens.x_hat, ens.v_hat, sub, _Context(spec))


def _mill_spec(order=3):
    morse = MorseSwarmParams(a=0.7, b=0.5, C_A="30+theta", C_R="10+theta", ell_A=100.0, ell_R=3.0)
    return ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, order), morse=morse)


def _combined_spec(order=2):
    morse = MorseSwarmParams(a=0.07, b=0.05, C_A="30+theta", C_R=10.0, ell_A=100.0, ell_R=3.0)
    align = CuckerSmaleParams(K="5.0", gamma="0.1+0.05*theta")
    basis = build_basis(PolynomialFamily.LEGENDRE, order)
    return ModelSpec(basis=tensor_basis(basis, basis), alignment=align, morse=morse)


def test_interaction_coeffs_constant_kernel_is_identity():
    spec = _cs_spec(order=3, K="2.5", gamma="0.0")
    rng = np.random.default_rng(0)
    ens = GpcEnsemble(rng.normal(size=(2, 1, 4)), np.zeros((2, 1, 4)))
    e = _interaction_coeffs(ens, 0, 1, spec.alignment, spec.basis)
    assert np.abs(e - 2.5 * np.eye(4)).max() < 1e-12


def test_interaction_coeffs_affine_strength():
    # coincident positions, strength 1 + theta: the entries are the exact
    # moments of 1 + theta against the first two modes
    basis = build_basis(PolynomialFamily.LEGENDRE, 1)
    ens = GpcEnsemble(np.zeros((2, 1, 2)), np.zeros((2, 1, 2)))
    params = CuckerSmaleParams(K="1+theta", gamma="0.7")
    e = _interaction_coeffs(ens, 0, 1, params, basis)
    assert np.abs(e - np.array([[1.0, 1.0 / 3.0], [1.0, 1.0]])).max() < 1e-12


def test_interaction_coeffs_deterministic_state_diagonal():
    spec = _cs_spec(order=4, K="1.5", gamma="0.3")
    x_hat = np.zeros((2, 1, 5))
    x_hat[0, 0, 0] = 0.0
    x_hat[1, 0, 0] = 2.0
    ens = GpcEnsemble(x_hat, np.zeros((2, 1, 5)))
    e = _interaction_coeffs(ens, 0, 1, spec.alignment, spec.basis)
    expected = 1.5 / (1.0 + 4.0) ** 0.3
    assert np.abs(e - expected * np.eye(5)).max() < 1e-10


def test_velocity_rate_examples():
    spec = _cs_spec(order=5, K="2.0", gamma="0.0")
    x = np.zeros((3, 1, 6))
    v = np.zeros((3, 1, 6))
    v[:, 0, 0] = [1.0, 3.0, -2.0]
    ens = GpcEnsemble(x, v)
    # identical velocities: zero rate
    same = GpcEnsemble(x.copy(), np.tile(v[0], (3, 1, 1)))
    assert np.abs(_rate(same, [1, 2], spec)[0]).max() < 1e-14
    # subsample of just the particle itself: zero rate
    assert np.abs(_rate(ens, [1], spec)[1]).max() < 1e-14
    # two-particle hand value: rate = K0 (v_j - v_i)
    rate = _rate(ens, [1], spec)[0]
    assert abs(rate[0, 0] - 2.0 * (3.0 - 1.0)) < 1e-12
    assert np.abs(rate[:, 1:]).max() < 1e-14


def test_step_contraction_matches_rk4_polynomial():
    # N = 2, S = 2, constant kernel: the velocity difference w obeys
    # w' = -K0 w, so one RK4 step contracts it by the degree-4 expansion
    # of exp(-K0 dt)
    k0, dt = 2.0, 0.05
    spec = _cs_spec(order=5, K=str(k0), gamma="0.0")
    x = np.zeros((2, 1, 6))
    v = np.zeros((2, 1, 6))
    v[0, 0, 0] = 1.0
    v[1, 0, 0] = 3.0
    ens = GpcEnsemble(x, v)
    cfg = SolverConfig(n_particles=2, dt=dt, t_end=1.0, subsample_size=2, seed=0, model=spec)
    out = step(ens, cfg, np.random.default_rng(0))
    z = -k0 * dt
    poly = sum(z**p / math.factorial(p) for p in range(5))
    w0 = v[1, 0, 0] - v[0, 0, 0]
    w1 = out.v_hat[1, 0, 0] - out.v_hat[0, 0, 0]
    assert abs(w1 / w0 - poly) < 1e-14


def test_step_zero_dt_is_identity():
    spec = _cs_spec()
    ens = sample_initial(InitialCondition.bivariate_bimodal_1d(), 10, 1, spec.basis.n_modes)
    cfg = SolverConfig(n_particles=10, dt=0.0, t_end=0.0, subsample_size=3, seed=0, model=spec)
    out = step(ens, cfg, np.random.default_rng(5))
    assert np.array_equal(out.x_hat, ens.x_hat)
    assert np.array_equal(out.v_hat, ens.v_hat)


def test_single_particle_transport_is_exact():
    spec = _cs_spec()
    x = np.zeros((1, 1, 6))
    v = np.zeros((1, 1, 6))
    v[0, 0, 0] = 0.75
    ens = GpcEnsemble(x, v)
    cfg = SolverConfig(n_particles=1, dt=0.1, t_end=1.0, subsample_size=1, seed=0, model=spec)
    out = step(ens, cfg, np.random.default_rng(0))
    assert abs(out.v_hat[0, 0, 0] - 0.75) < 1e-15
    assert abs(out.x_hat[0, 0, 0] - 0.075) < 1e-15


def test_run_zero_t_end_observes_initial_state():
    spec = _cs_spec()
    cfg = SolverConfig(n_particles=20, dt=0.01, t_end=0.0, subsample_size=5, seed=3, model=spec)
    records, final = run(InitialCondition.bivariate_bimodal_1d(), cfg,
                         observers=[lambda e: e.time])
    assert len(records) == 1
    assert final.time == 0.0


def test_initial_ensemble_is_freed_after_the_first_step(monkeypatch):
    # run keeps no reference to the sampled initial ensemble once the
    # first step has made the next one, on every supported Python: 3.10
    # keeps a call's arguments alive until the call returns, so run must
    # not pass the ensemble to the time loop as one
    initial = []
    alive_at_step = []

    def sample(*args):
        ens = sample_initial(*args)
        initial.append(weakref.ref(ens))
        return ens

    def traced_step(ens, *args, **kwargs):
        alive_at_step.append(initial[0]() is not None)
        return step(ens, *args, **kwargs)

    monkeypatch.setattr(solver, "sample_initial", sample)
    monkeypatch.setattr(solver, "step", traced_step)
    cfg = SolverConfig(n_particles=20, dt=0.01, t_end=0.03, subsample_size=5, seed=3, model=_cs_spec())
    run(InitialCondition.bivariate_bimodal_1d(), cfg, observers=[lambda e: e.time])
    assert alive_at_step == [True, False, False]


def test_homogeneous_variance_decay_rate():
    # position-independent kernel: deviations contract at rate K, so the
    # sample variance decays like exp(-2 K t)
    k0 = 2.0
    spec = _cs_spec(K=str(k0), gamma="0.0")
    cfg = SolverConfig(n_particles=2000, dt=0.01, t_end=1.0, subsample_size=2000, seed=7,
                       model=spec)
    _, fin = run(InitialCondition.bimodal_velocity_1d(), cfg)
    v0 = sample_initial(InitialCondition.bimodal_velocity_1d(), 2000, 7, 1).v_hat[:, 0, 0]
    ratio = fin.v_hat[:, 0, 0].var() / v0.var()
    assert abs(ratio - np.exp(-2 * k0)) / np.exp(-2 * k0) < 1e-6


def test_uncertain_flocking_collapses_at_every_node():
    spec = _cs_spec(K="1.0", gamma="0.1+0.05*theta")
    cfg = SolverConfig(n_particles=100, dt=0.01, t_end=5.0, subsample_size=100, seed=11,
                       model=spec)
    ens0 = sample_initial(InitialCondition.bivariate_bimodal_1d(), 100, 11, spec.basis.n_modes)
    _, fin = run(InitialCondition.bivariate_bimodal_1d(), cfg)
    _, v_nodes0 = evaluate_at_nodes(ens0, spec.basis)
    _, v_nodes = evaluate_at_nodes(fin, spec.basis)
    spread0 = v_nodes0.var(axis=0).max()
    spread = v_nodes.var(axis=0).max()
    assert spread < 1e-2 * spread0


def test_mean_velocity_conserved_with_full_interaction():
    # pure alignment, S = N: pairwise antisymmetry conserves every mode of
    # the ensemble-mean velocity
    spec = _cs_spec(order=4, K="1+0.5*theta", gamma="0.1+0.05*theta")
    n = 200
    cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=n, seed=2, model=spec)
    ens = sample_initial(InitialCondition.bivariate_bimodal_1d(), n, 2, spec.basis.n_modes)
    mean0 = ens.v_hat.mean(axis=0)
    for k in range(100):
        ens = step(ens, cfg, np.random.default_rng(k))
    drift = np.abs(ens.v_hat.mean(axis=0) - mean0).max()
    assert drift < 1e-10


def test_deterministic_model_keeps_higher_modes_exactly_zero():
    spec = _cs_spec(K="1.0", gamma="0.3")
    cfg = SolverConfig(n_particles=50, dt=0.01, t_end=0.5, subsample_size=5, seed=3, model=spec)
    _, fin = run(InitialCondition.bivariate_bimodal_1d(), cfg)
    assert not fin.x_hat[:, :, 1:].any()
    assert not fin.v_hat[:, :, 1:].any()
    # morse flavor
    morse = MorseSwarmParams(a=0.07, b=0.05, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    spec_m = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 4), morse=morse)
    cfg_m = SolverConfig(n_particles=50, dt=0.01, t_end=0.5, subsample_size=10, seed=3,
                         model=spec_m)
    _, fin_m = run(InitialCondition.annulus_rotating_2d(), cfg_m)
    assert not fin_m.x_hat[:, :, 1:].any()
    assert not fin_m.v_hat[:, :, 1:].any()


def test_deterministic_shortcut_matches_generic_path():
    # same model run through the single-node shortcut (exact-zero modes)
    # and the generic quadrature path (seeded nonzero high modes), for an
    # alignment and a mill (Morse) model
    mill = MorseSwarmParams(a=0.7, b=0.5, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    cases = (
        (_cs_spec(order=4, K="1.0", gamma="0.3"), InitialCondition.bivariate_bimodal_1d()),
        (ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 4), morse=mill),
         InitialCondition.annulus_rotating_2d()),
    )
    n = 30
    for spec, ic in cases:
        ens = sample_initial(ic, n, 9, spec.basis.n_modes)
        perturbed = GpcEnsemble(ens.x_hat.copy(), ens.v_hat.copy(), ens.time)
        perturbed.x_hat[:, :, 1] += 1e-300  # flips the path selector only
        cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=5, seed=4, model=spec)
        a = step(ens, cfg, np.random.default_rng(0))
        b = step(perturbed, cfg, np.random.default_rng(0))
        assert not a.x_hat[:, :, 1:].any() and not a.v_hat[:, :, 1:].any()
        assert np.abs(a.v_hat - b.v_hat).max() < 1e-12
        assert np.abs(a.x_hat - b.x_hat).max() < 1e-12


def test_homogeneous_fast_path_matches_generic_kernel_path():
    # gamma = 0 through the factorized modal path vs the same dynamics
    # written as a generic position-dependent kernel with gamma = 1e-300
    n = 40
    base = build_basis(PolynomialFamily.LEGENDRE, 3)
    fast = ModelSpec(basis=base, alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="0.0"))
    slow = ModelSpec(basis=base, alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="1e-300"))
    ic = InitialCondition.bimodal_velocity_1d(sigma_x_sq=0.3)
    for s in (n, 7):
        cfg_fast = SolverConfig(n_particles=n, dt=0.01, t_end=0.5, subsample_size=s, seed=6,
                                model=fast)
        cfg_slow = SolverConfig(n_particles=n, dt=0.01, t_end=0.5, subsample_size=s, seed=6,
                                model=slow)
        _, fin_fast = run(ic, cfg_fast)
        _, fin_slow = run(ic, cfg_slow)
        assert np.abs(fin_fast.v_hat - fin_slow.v_hat).max() < 1e-12


def test_theta_pointwise_match_against_direct_integration():
    # small instance, full interaction: reconstructing the chaos solution
    # at each node must match an independent fixed-theta integration, with
    # spectral improvement in the expansion order
    n, q, dt, t_end = 6, 12, 0.01, 0.5
    ic = InitialCondition.bivariate_bimodal_1d()
    k_fun = lambda th: 1.0 + 0.0 * np.asarray(th)
    g_fun = lambda th: 0.1 + 0.05 * np.asarray(th)
    errors = {}
    for order in (1, 2, 3, 4):
        spec = _cs_spec(order=order, K="1.0", gamma="0.1+0.05*theta", quad=q)
        cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=19,
                           model=spec)
        _, fin = run(ic, cfg)
        x_nodes, v_nodes = evaluate_at_nodes(fin, spec.basis)
        ens0 = sample_initial(ic, n, 19, spec.basis.n_modes)
        worst = 0.0
        for idx, theta in enumerate(spec.basis.quad_nodes):
            xd, vd = direct_rk4(ens0.x_hat[:, :, 0], ens0.v_hat[:, :, 0], theta, dt,
                                round(t_end / dt), k_fun=k_fun, gamma_fun=g_fun)
            worst = max(worst, np.abs(x_nodes[:, :, idx] - xd).max(),
                        np.abs(v_nodes[:, :, idx] - vd).max())
        errors[order] = worst
    assert errors[4] < 1e-8
    for order in (1, 2, 3):
        assert errors[order + 1] < errors[order] or errors[order + 1] < 1e-10


def test_combined_model_direct_integration_match():
    # alignment + propulsion + morse in 2D, deterministic params, against
    # the independent integrator
    morse = MorseSwarmParams(a=0.5, b=0.3, C_A=2.0, C_R=1.0, ell_A=3.0, ell_R=0.5)
    align = CuckerSmaleParams(K="1.0", gamma="0.4")
    spec = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 2), alignment=align,
                     morse=morse)
    n, dt, t_end = 5, 0.01, 0.4
    ic = InitialCondition.annulus_rotating_2d()
    cfg = SolverConfig(n_particles=n, dt=dt, t_end=t_end, subsample_size=n, seed=23, model=spec)
    _, fin = run(ic, cfg)
    ens0 = sample_initial(ic, n, 23, spec.basis.n_modes)
    model = dict(k_fun=lambda th: 1.0, gamma_fun=lambda th: 0.4,
                 morse=dict(a=0.5, b=0.3, C_A=lambda th: 2.0, C_R=lambda th: 1.0,
                            ell_A=3.0, ell_R=0.5))
    xd, vd = direct_rk4(ens0.x_hat[:, :, 0], ens0.v_hat[:, :, 0], 0.0, dt,
                        round(t_end / dt), **model)
    assert np.abs(fin.x_hat[:, :, 0] - xd).max() < 1e-12
    assert np.abs(fin.v_hat[:, :, 0] - vd).max() < 1e-12


def test_tensor_uncertainty_reduces_to_1d_when_second_input_trivial():
    b1 = build_basis(PolynomialFamily.LEGENDRE, 3)
    b2 = build_basis(PolynomialFamily.LEGENDRE, 3)
    tb = tensor_basis(b1, b2)
    morse_c = MorseSwarmParams(a=0.07, b=0.05, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    align = CuckerSmaleParams(K="5.0", gamma="0.1+0.05*theta")
    spec2 = ModelSpec(basis=tb, alignment=align, morse=morse_c)
    spec1 = ModelSpec(basis=b1, alignment=align, morse=morse_c)
    n = 30
    ic = InitialCondition.annulus_rotating_2d()
    cfg2 = SolverConfig(n_particles=n, dt=0.01, t_end=0.3, subsample_size=n, seed=31, model=spec2)
    cfg1 = SolverConfig(n_particles=n, dt=0.01, t_end=0.3, subsample_size=n, seed=31, model=spec1)
    _, fin2 = run(ic, cfg2)
    _, fin1 = run(ic, cfg1)
    v2 = fin2.v_hat.reshape(n, 2, b1.n_modes, b2.n_modes)
    assert np.abs(v2[:, :, :, 1:]).max() < 1e-12
    assert np.abs(v2[:, :, :, 0] - fin1.v_hat).max() < 1e-10


_COLLOCATION_MODELS = {
    # name: (alignment, morse, initial condition)
    "alignment": (_cs_spec().alignment, None, InitialCondition.bivariate_bimodal_1d()),
    "morse": (None, _mill_spec().morse, InitialCondition.annulus_rotating_2d()),
    "combined": (CuckerSmaleParams(K="5.0", gamma="0.1+0.05*theta"), _mill_spec().morse,
                 InitialCondition.annulus_rotating_2d()),
}


def _collocation_error(name, order, quad):
    """Largest relative distance between a subsampled chaos run's node
    values and a deterministic order-0 run at each node, over x, v and the
    nodes; both runs share N, S, seed and dt, hence their partner stream."""
    align, morse, ic = _COLLOCATION_MODELS[name]
    basis = build_basis(PolynomialFamily.LEGENDRE, order, quad)
    if align is not None and morse is not None:
        basis = tensor_basis(basis, basis)
    setup = dict(n_particles=80, dt=0.01, t_end=0.25, subsample_size=8, seed=5)
    _, fin = run(ic, SolverConfig(**setup, model=ModelSpec(basis=basis, alignment=align, morse=morse)))
    worst = 0.0
    for q, (theta_align, theta_morse) in enumerate(basis.nodes[[0, -1]].T):
        at_node = ModelSpec(
            basis=build_basis(PolynomialFamily.LEGENDRE, 0),
            alignment=None if align is None else CuckerSmaleParams(
                K=float(align.K(theta_align)), gamma=float(align.gamma(theta_align))),
            morse=None if morse is None else replace(
                morse, C_A=float(morse.C_A(theta_morse)), C_R=float(morse.C_R(theta_morse))))
        _, ref = run(ic, SolverConfig(**setup, model=at_node))
        for hat, ref_hat in ((fin.x_hat, ref.x_hat[:, :, 0]), (fin.v_hat, ref.v_hat[:, :, 0])):
            node = hat @ basis.basis_table[:, q]
            worst = max(worst, np.abs(node - ref_hat).max() / np.abs(ref_hat).max())
    return worst


@pytest.mark.parametrize("name", sorted(_COLLOCATION_MODELS))
def test_minimal_gauss_rule_is_stochastic_collocation(name):
    # at Q = M+1 nodes per input the basis table is square and the
    # projection its inverse, so each node moves exactly as the
    # deterministic system at that node; at Q = 2(M+1) it does not
    order = 3
    assert _collocation_error(name, order, order + 1) <= 1e-13
    assert _collocation_error(name, order, 2 * (order + 1)) > 1e-13


def test_reproducibility_bit_identical():
    spec = _cs_spec()
    ic = InitialCondition.bivariate_bimodal_1d()
    cfg = SolverConfig(n_particles=64, dt=0.01, t_end=0.5, subsample_size=5, seed=13, model=spec)
    _, a = run(ic, cfg)
    _, b = run(ic, cfg)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.v_hat, b.v_hat)
    other = SolverConfig(n_particles=64, dt=0.01, t_end=0.5, subsample_size=5, seed=14,
                         model=spec)
    _, c = run(ic, other)
    assert not np.array_equal(a.v_hat, c.v_hat)


def test_euler_integrator_option():
    k0, dt = 2.0, 0.05
    spec = _cs_spec(order=2, K=str(k0), gamma="0.0")
    x = np.zeros((2, 1, 3))
    v = np.zeros((2, 1, 3))
    v[1, 0, 0] = 1.0
    cfg = SolverConfig(n_particles=2, dt=dt, t_end=1.0, subsample_size=2, seed=0, model=spec,
                       integrator="euler")
    out = step(GpcEnsemble(x, v), cfg, np.random.default_rng(0))
    w1 = out.v_hat[1, 0, 0] - out.v_hat[0, 0, 0]
    assert abs(w1 - (1.0 - k0 * dt)) < 1e-14


def test_blowup_raises_with_particle_info(monkeypatch):
    # an absurd time step makes the morse dynamics explode; on 2 threads,
    # with 4 chunks of 5 rows (a budget of 5 rows cuts each worker's share
    # of 10 in two) and warnings as errors, the overflow in the
    # workers must be silenced as on the calling thread, whose error state
    # numpy does not pass on to other threads.  The model is deterministic,
    # so the steps run on the one-node order-0 rule.
    morse = MorseSwarmParams(a=10.0, b=0.001, C_A=3000.0, C_R=1.0, ell_A=100.0, ell_R=0.01)
    spec = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 1), morse=morse)
    cfg = SolverConfig(n_particles=20, dt=1e6, t_end=2e6, subsample_size=20, seed=0, model=spec)
    with pytest.raises(IntegrationBlowupError, match="particle"):
        run(InitialCondition.annulus_rotating_2d(), cfg)
    monkeypatch.setattr(solver, "_CHUNK_BUDGET", 5 * 20 * 2)
    ws = _Context(spec, _Workers(2)).order0.workspace(20, 20, 2)
    assert ws.rows == 5 and len(ws.chunks) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError, match="particle"):
            run(InitialCondition.annulus_rotating_2d(), cfg, threads=2)


def test_solver_config_validation():
    spec = _cs_spec()
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=1.0, subsample_size=11, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.0, t_end=1.0, subsample_size=5, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=-1.0, subsample_size=5, seed=0, model=spec)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            SolverConfig(n_particles=10, dt=value, t_end=1.0, subsample_size=5, seed=0, model=spec)
        with pytest.raises(ConfigurationError, match="finite"):
            SolverConfig(n_particles=10, dt=0.01, t_end=value, subsample_size=5, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=1.0, subsample_size=5, seed=0, model=spec,
                     integrator="verlet")
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=1.0, subsample_size=5, seed=-1, model=spec)
    with pytest.raises(ConfigurationError):
        ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 2))


def test_subsamples_distinct_and_uniform(monkeypatch):
    rng = np.random.default_rng(99)
    assert draw_subsamples(rng, 50, 50) is None
    # up to 10 S = 3 N past the collision-light regime: the sorted redraw,
    # also at that edge
    for s in (20, 120):
        middle = draw_subsamples(np.random.default_rng(1), 400, s)
        assert np.array_equal(middle, _sorted_redraw(np.random.default_rng(1), 400, s, 400))
    # single partner, collision-light, middle (also at its edge, S = 12 of
    # 40) and very dense regimes (from S = 13 of 40), >= 1e5 sampled
    # indices each; then each regime again in row blocks of 150, 150 and
    # 100 rows or of 15, 15 and 10, drawn from three streams
    one_block = solver._DRAW_BLOCK
    for n, s, reps, block in ((40, 1, 2500, one_block), (40, 3, 850, one_block),
                              (400, 20, 13, one_block), (40, 12, 210, one_block),
                              (40, 13, 210, one_block), (40, 25, 120, one_block),
                              (400, 4, 63, 150 * 4), (400, 20, 13, 150 * 20), (40, 13, 210, 15 * 13)):
        monkeypatch.setattr(solver, "_DRAW_BLOCK", block)
        counts = np.zeros(n)
        draws = 0
        for _ in range(reps):
            sub = draw_subsamples(rng, n, s)
            assert sub.shape == (n, s)
            srt = np.sort(sub, axis=1)
            assert (np.diff(srt, axis=1) > 0).all(), "indices must be distinct"
            assert sub.min() >= 0 and sub.max() < n
            counts += np.bincount(sub.ravel(), minlength=n)
            draws += n
        assert draws * s >= 100000
        # every index is included with probability s/n: chi-square at 1%
        expected = draws * s / n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, n - 1) > 0.01


def test_subsample_sets_uniform_over_all_subsets():
    # the joint law, which the per-index counts above cannot see: every
    # 3-subset of 6 indices equally likely, chi-square over all 20 at 1%,
    # for the sorted redraw and for the very dense regime of (6, 3)
    rng = np.random.default_rng(5)
    weights = 1 << np.arange(6)
    for name, draw in (("sorted redraw", lambda: _sorted_redraw(rng, 6, 3, 6)),
                       ("very dense", lambda: draw_subsamples(rng, 6, 3))):
        subs = np.concatenate([draw() for _ in range(1000)])
        assert (np.diff(np.sort(subs, axis=1), axis=1) > 0).all()
        if name == "sorted redraw":
            assert (np.diff(subs, axis=1) > 0).all(), "rows come out sorted"
        _, counts = np.unique(weights[subs].sum(axis=1), return_counts=True)
        assert counts.size == math.comb(6, 3)
        expected = subs.shape[0] / counts.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, counts.size - 1) > 0.01, name


class _CountingRng:
    """A generator that counts the ``integers`` calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_collision_light_stream_is_unchanged():
    # the regime of the mill and combined presets keeps its random stream
    # up to its edge s(s-1) = n//4: with s = 10, n = 360 is the smallest
    # collision-light size, and n = 359 takes the sorted redraw.  The
    # reference redraws at least twice at n = 360, so a round that
    # re-tests only the rows redrawn in the one before is covered.  The
    # table stores the reference's int64 values as uint16 up to n = 2^16,
    # and as uint32 above: n = 70000, s = 3 is two row blocks, the second
    # drawn from the first jump of the stream
    for n, rounds in ((2000, 1), (360, 2)):
        sub = draw_subsamples(np.random.default_rng(7), n, 10)
        counted = _CountingRng(np.random.default_rng(7))
        ref = rejection_subsamples(counted, n, 10)
        assert counted.calls - 1 >= rounds, n
        assert ref.dtype == np.int64 and sub.dtype == np.uint16 and np.array_equal(sub, ref)
    middle = draw_subsamples(np.random.default_rng(7), 359, 10)
    assert middle.dtype == np.uint16 and (np.diff(middle, axis=1) > 0).all()
    n, s = 70000, 3
    rows = solver._DRAW_BLOCK // s
    assert rows < n <= 2 * rows
    sub = draw_subsamples(np.random.default_rng(7), n, s)
    jumped = np.random.Generator(np.random.default_rng(7).bit_generator.jumped(1))
    ref = np.concatenate([rejection_subsamples(np.random.default_rng(7), n, s, rows),
                          rejection_subsamples(jumped, n, s, n - rows)])
    assert ref.dtype == np.int64 and sub.dtype == np.uint32 and np.array_equal(sub, ref)
    assert ref.max() >= 1 << 16


def test_draw_blocks_are_the_same_for_every_worker_count(monkeypatch):
    # tables of three row blocks, the last one short, in each regime:
    # block b is the regime's draw of its rows from the b-th jump of the
    # step's stream (block 0 from the stream itself), stored as uint16,
    # whatever the number of workers sharing the blocks; a short switch
    # interval interleaves the workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n, s, rows, draw in ((400, 4, 150, solver._rejection_rows), (400, 20, 150, _sorted_redraw),
                                 (40, 13, 15, solver._shuffled_rows)):
            monkeypatch.setattr(solver, "_DRAW_BLOCK", rows * s)
            streams = [np.random.default_rng(3)] + [
                np.random.Generator(np.random.default_rng(3).bit_generator.jumped(b)) for b in (1, 2)]
            want = np.concatenate([draw(rng, n, s, min(rows, n - b * rows)) for b, rng in enumerate(streams)])
            for threads in (1, 2, 3, 5):
                workers = _Workers(threads)
                try:
                    got = draw_subsamples(np.random.default_rng(3), n, s, workers)
                finally:
                    workers.close()
                assert got.dtype == np.uint16 and np.array_equal(got, want), (n, s, threads)
            assert (np.diff(np.sort(got, axis=1), axis=1) > 0).all(), "indices must be distinct"
            assert got.min() >= 0 and got.max() < n
            assert not np.array_equal(got[rows:2 * rows], got[:rows]), "blocks 0 and 1 share a stream"
    finally:
        sys.setswitchinterval(interval)


def test_forces_for_rows_match_allocating_reference(monkeypatch):
    # the workspace path against the whole-array reference on random chaos
    # states, with particles 0 and 1 coincident (r = 0 at every node), for
    # a subsample table and for all-to-all (sub is None); the modal rate is
    # the reference's node rates of all rows through the per-dimension
    # (N, Q) @ (Q, m) projection.  Morse alone writes each chunk's rate
    # over its rows of v_nodes: on 1, 2 and 3 workers with chunks of 3 and
    # 2 rows, no chunk may read another's overwritten rows, nor its own
    # before the propulsion
    rng = np.random.default_rng(21)
    homogeneous_mill = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 3),
                                 alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="0.0"),
                                 morse=_mill_spec().morse)
    n = 12
    for spec, d in ((_cs_spec(order=3), 1), (_mill_spec(), 2), (_combined_spec(), 2),
                    (homogeneous_mill, 2)):
        ctx = _Context(spec)
        m = spec.basis.n_modes
        x_hat = rng.normal(size=(n, d, m)) * 0.5 ** np.arange(m)
        v_hat = rng.normal(size=(n, d, m)) * 0.5 ** np.arange(m)
        x_hat[1] = x_hat[0]
        x_nodes = x_hat.transpose(1, 0, 2) @ ctx.table   # (d, N, Q)
        v_nodes = v_hat.transpose(1, 0, 2) @ ctx.table
        for sub in (draw_subsamples(rng, n, 4), None):
            ws = ctx.workspace(n, n if sub is None else sub.shape[1], d)
            for lo, hi in ((0, n), (3, 7)):
                got = _forces_for_rows(lo, hi, x_nodes, v_nodes, sub, ctx, ws.chunks[0], ws.rate)
                want = forces_for_rows(np.arange(lo, hi), x_nodes, v_nodes, sub, ctx)
                assert np.array_equal(got, want)
            if ctx.homogeneous:
                continue
            want = np.matmul(forces_for_rows(np.arange(n), x_nodes, v_nodes, sub, ctx), ctx.proj)
            want = want.transpose(1, 0, 2)
            assert np.array_equal(_velocity_rate_full(x_hat, v_hat, sub, ctx), want)
            if spec.alignment is not None:
                continue
            partners = n if sub is None else sub.shape[1]
            monkeypatch.setattr(solver, "_CHUNK_BUDGET", 3 * partners * d * spec.basis.n_nodes)
            monkeypatch.setattr(solver, "_SHARED_PRODUCT_MIN", 0)
            for threads in (1, 2, 3):
                shared = _Context(spec, _Workers(threads))
                try:
                    got = _velocity_rate_full(x_hat, v_hat, sub, shared)
                    ws = shared.workspace(n, partners, d)
                finally:
                    shared.workers.close()
                assert ws.rate is ws.v_nodes and ws.rows == {1: 3, 2: 3, 3: 2}[threads], threads
                assert np.array_equal(got, want), threads
            monkeypatch.undo()


def test_node_path_makes_no_pair_sized_temporary():
    # a warm stage of the node path allocates its (N, d, m) modal rate and
    # small iterator buffers, but no temporary of pair size: one (P, R, Q)
    # array of the workspace is about 0.5 MiB and one (d, P, R, Q) array
    # 1 MiB, for the desk presets' subsamples and for all-to-all
    for name in ("mill_2d_desk", "combined_2d_desk"):
        ic, cfg = build_experiment(load_config(name))
        ctx = _Context(cfg.model)
        ens = sample_initial(ic, cfg.n_particles, 1, cfg.model.basis.n_modes)
        for n, sub in ((cfg.n_particles, draw_subsamples(np.random.default_rng(2), cfg.n_particles,
                                                         cfg.subsample_size)),
                       (200, None)):
            x_hat, v_hat = ens.x_hat[:n], ens.v_hat[:n]
            _velocity_rate_full(x_hat, v_hat, sub, ctx)   # builds the workspace
            ws = ctx.workspace(n, n if sub is None else sub.shape[1], ic.dim)
            tracemalloc.start()
            try:
                _velocity_rate_full(x_hat, v_hat, sub, ctx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < v_hat.nbytes + ws.chunks[0].r_sq.nbytes // 2, (name, n, peak)


def test_step_holds_the_table_and_six_state_arrays():
    # the memory model of one warm RK4 step, above its start: the step's
    # subsample table and at most 6 arrays of the size of one (N, d, m)
    # state array, which rk4 holds while it forms its third and fourth
    # stages, plus numpy's ufunc buffer of getbufsize() doubles for the
    # small temporaries.  While a stage's rate is computed rk4 holds 4,
    # beside the modal rate and the projection's (N, m) products.  An rk4
    # that forms c * k as a temporary before each sum holds 8 on the two
    # desk presets and 7 on homogeneous, and fails.  The homogeneous
    # preset keeps its N = 10^4: below about N = 5000 the temporaries of
    # a draw's row block of 2^17 indices outgrow 6 of its (N, 1, 6) state
    # arrays
    for name, n, s in (("mill_2d_desk", 1000, 10), ("combined_2d_desk", 500, 5), ("homogeneous", 10000, 100)):
        ic, cfg = build_experiment(load_config(name))
        cfg = replace(cfg, n_particles=n, subsample_size=s)
        ctx = _Context(cfg.model)
        ens = step(sample_initial(ic, n, 1, cfg.model.basis.n_modes), cfg, np.random.default_rng(0), ctx=ctx)
        table = draw_subsamples(np.random.default_rng(1), n, s).nbytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step(ens, cfg, np.random.default_rng(1), ctx=ctx)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= table + 6 * ens.x_hat.nbytes + 8 * np.getbufsize(), (name, peak / ens.x_hat.nbytes)


# Row chunks of 11 particles under a budget of 3 rows per worker, by
# worker count: (rows per chunk, chunk count).  The last chunk is partial
# every time, and the 5 workers outnumber their 4 chunks.
_SMALL_CHUNKS = {1: (3, 4), 2: (3, 4), 3: (2, 6), 5: (3, 4)}


def test_chunked_step_matches_one_chunk(monkeypatch):
    # a budget of 3 rows cuts 11 particles into chunks of 3, 3, 3, 2 on
    # 1 and 2 workers, 2, 2, 2, 2, 2, 1 on 3 and 3, 3, 3, 2 on 5, more
    # workers than chunks; every step equals one of a single chunk on
    # one worker
    n, s, fit = 11, 5, 3
    ic = InitialCondition.annulus_rotating_2d()
    for spec in (_mill_spec(), _combined_spec()):
        ens = sample_initial(ic, n, 5, spec.basis.n_modes)
        cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=s, seed=0, model=spec)
        whole = step(ens, cfg, np.random.default_rng(1))
        per_row = s * 2 * spec.basis.n_nodes
        for threads, (rows, chunks) in _SMALL_CHUNKS.items():
            monkeypatch.setattr(solver, "_CHUNK_BUDGET", fit * per_row)
            ctx = _Context(spec, _Workers(threads))
            try:
                ws = ctx.workspace(n, s, 2)
                assert ws.rows == rows and -(-n // rows) == chunks and n % rows != 0
                assert len(ws.chunks) == min(threads, chunks)
                chunked = step(ens, cfg, np.random.default_rng(1), ctx=ctx)
            finally:
                ctx.workers.close()
            monkeypatch.undo()
            assert np.array_equal(chunked.x_hat, whole.x_hat), threads
            assert np.array_equal(chunked.v_hat, whole.v_hat), threads


def test_per_dimension_products_match_the_stacked_ones(monkeypatch):
    # the reconstruction and projection run as one product per dimension,
    # shared by the workers or, for small products, all on the calling
    # thread; on 4, 4 and 6 row chunks of 37 particles (10, 10, 10, 7 and
    # 7, ..., 7, 2) on 1, 2 and 3 workers they equal the stacked
    # (d, N, m) @ (m, Q) and (d, N, Q) @ (Q, m) products bit for bit, on
    # random chaos states; the homogeneous shortcut adds the projection
    # to its modal alignment rate.  With Morse alone on the node path the
    # rate is held in v_nodes, which the projection reads
    n, s, fit = 37, 5, 10
    rng = np.random.default_rng(17)
    homogeneous_mill = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 3),
                                 alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="0.0"),
                                 morse=_mill_spec().morse)
    for spec in (_combined_spec(), homogeneous_mill):
        m = spec.basis.n_modes
        x_hat = rng.normal(size=(n, 2, m)) * 0.5 ** np.arange(m)
        v_hat = rng.normal(size=(n, 2, m)) * 0.5 ** np.arange(m)
        sub = draw_subsamples(rng, n, s)
        alignment_only = _velocity_rate_full(x_hat, v_hat, sub,
                                             _Context(replace(spec, morse=None)))
        for threads, product_min in itertools.product((1, 2, 3), (0, solver._SHARED_PRODUCT_MIN)):
            monkeypatch.setattr(solver, "_CHUNK_BUDGET", fit * s * 2 * spec.basis.n_nodes)
            monkeypatch.setattr(solver, "_SHARED_PRODUCT_MIN", product_min)
            ctx = _Context(spec, _Workers(threads))
            try:
                got = _velocity_rate_full(x_hat, v_hat, sub, ctx)
                ws = ctx.workspace(n, s, 2)
                assert (ws.rows, len(ws.chunks)) == {1: (10, 1), 2: (10, 2), 3: (7, 3)}[threads]
                assert np.array_equal(ws.x_nodes, np.matmul(x_hat.transpose(1, 0, 2), ctx.table))
                if ctx.homogeneous:
                    assert ws.rate is ws.v_nodes
                else:
                    assert ws.rate is not ws.v_nodes
                    assert np.array_equal(ws.v_nodes, np.matmul(v_hat.transpose(1, 0, 2), ctx.table))
                want = np.matmul(ws.rate, ctx.proj).transpose(1, 0, 2)
                if ctx.homogeneous:
                    want = alignment_only + want
                assert np.array_equal(got, want), (threads, product_min)
            finally:
                ctx.workers.close()
            monkeypatch.undo()


def test_subsample_mean_matches_the_csr_product(monkeypatch):
    # the homogeneous shortcut's subsample mean, gathered and summed in
    # row chunks on the workers, equals scipy's CSR product with data
    # 1/S, which computed it before, bit for bit, and so does the rate
    # built on it: in each sampler regime (rejection, sorted redraw,
    # shuffled; a uint16 table in each), on 1, 2, 3 and 5 workers, with the
    # whole chunk budget and with chunks of 3 rows, which leave the last
    # of N = 37 rows alone, with the chunks shared and on the calling
    # thread, for the alignment alone, with the Morse node path, and for
    # a mean of one column (d = m = 1), which numpy would sum pairwise in
    # a chunk of one row; a step on any worker count equals one on a
    # single worker; a short switch interval interleaves the workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _check_subsample_mean(monkeypatch)
    finally:
        sys.setswitchinterval(interval)


def _csr_mean(flat, sub):
    """Each row's mean over its partners ``sub`` as scipy's CSR
    matrix-vector product with data 1/S."""
    n, s = sub.shape
    indptr = np.arange(0, n * s + 1, s)
    return sparse.csr_matrix((np.full(n * s, 1.0 / s), sub.ravel(), indptr), shape=(n, n)) @ flat


def _csr_rate(x_hat, v_hat, sub, spec):
    """The homogeneous modal rate with the subsample mean of ``_csr_mean``,
    plus the Morse node path's rate."""
    n, d, m = v_hat.shape
    flat = v_hat.reshape(n, d * m)
    rate = ((_csr_mean(flat, sub) - flat).reshape(n * d, m) @ _Context(spec).e_const.T).reshape(n, d, m)
    if spec.morse is not None:
        rate = rate + _velocity_rate_full(x_hat, v_hat, sub, _Context(replace(spec, alignment=None)))
    return rate


def _check_subsample_mean(monkeypatch):
    n = 37
    rng = np.random.default_rng(29)
    homogeneous = _cs_spec(order=3, K="1+0.5*theta", gamma="0.0")
    one_column = replace(homogeneous, basis=build_basis(PolynomialFamily.LEGENDRE, 0, 1))
    cases = [(spec, d) for spec, d in ((homogeneous, 2), (replace(homogeneous, morse=_mill_spec().morse), 2),
                                       (one_column, 1))]
    for (spec, d), s in itertools.product(cases, (3, 6, 20)):
        m = spec.basis.n_modes
        x_hat = rng.normal(size=(n, d, m)) * 0.5 ** np.arange(m)
        v_hat = rng.normal(size=(n, d, m)) * 10.0 ** rng.integers(-4, 5, size=(n, d, m))
        sub = draw_subsamples(rng, n, s)
        assert sub.dtype == np.uint16, s
        # a column of -0.0 but for one particle r that is not its own
        # partner: r's partners' mean is -0.0 unless the sum starts from
        # 0.0, and keeps that sign less r's own +0.0
        r = np.flatnonzero((sub != np.arange(n)[:, None]).all(axis=1))[0]
        v_hat[:, 0, 0], v_hat[r, 0, 0] = -0.0, 0.0
        flat = v_hat.reshape(n, d * m)
        mean = _csr_mean(flat, sub)
        want = _csr_rate(x_hat, v_hat, sub, spec)
        ens = GpcEnsemble(x_hat, v_hat)
        cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=s, seed=0, model=spec)
        whole = step(ens, cfg, np.random.default_rng(2))
        for threads, budget, product_min in itertools.product(
                (1, 2, 3, 5), (solver._CHUNK_BUDGET, 3 * s * max(d * m, 2)), (0, solver._SHARED_PRODUCT_MIN)):
            monkeypatch.setattr(solver, "_CHUNK_BUDGET", budget)
            monkeypatch.setattr(solver, "_SHARED_PRODUCT_MIN", product_min)
            ctx = _Context(spec, _Workers(threads))
            try:
                mean_got = _partner_mean_less_own(flat, sub, ctx).copy()   # ctx rewrites it
                got = _velocity_rate_full(x_hat, v_hat, sub, ctx)
                stepped = step(ens, cfg, np.random.default_rng(2), ctx=ctx)
                rows, buffers = ctx.means[-2:]
            finally:
                ctx.workers.close()
            monkeypatch.undo()
            case = (s, d * m, threads, budget, product_min)
            assert mean_got.tobytes() == (mean - flat).tobytes(), case
            assert got.tobytes() == want.tobytes(), case
            assert stepped.x_hat.tobytes() == whole.x_hat.tobytes(), case
            assert stepped.v_hat.tobytes() == whole.v_hat.tobytes(), case
            if budget < 1 << 17:
                assert rows == 3 and n % rows == 1, case
                assert len(buffers) == threads, case


def test_workers_map_runs_task_0_on_the_calling_thread():
    # the calling thread is worker 0 and the pool runs the other tasks;
    # when task 0 raises, map waits for the pool's tasks before it raises,
    # and the first exception in task order is the one raised, even when
    # a later task raises too
    workers = _Workers(2)
    try:
        ran_on = {}
        workers.map(lambda k: ran_on.setdefault(k, threading.get_ident()), 2)
        assert ran_on[0] == threading.get_ident() != ran_on[1]
        finished = threading.Event()

        def first_raises(k):
            if k == 0:
                raise KeyError("task 0")
            time.sleep(0.2)
            finished.set()
            raise ValueError("task 1")

        with pytest.raises(KeyError, match="task 0"):
            workers.map(first_raises, 2)
        assert finished.is_set()

        def second_raises(k):
            if k == 1:
                raise ValueError("task 1")

        with pytest.raises(ValueError, match="task 1"):
            workers.map(second_raises, 2)
    finally:
        workers.close()


def test_node_path_reads_no_stale_workspace(monkeypatch):
    # every workspace buffer, those of every worker included, filled with
    # NaN (masks with True) before a warm stage: the result must equal
    # that of a fresh single-threaded context bit for bit, for a subsample
    # table and for all-to-all, with a budget of 3 rows that leaves the
    # last chunk of the 11 rows partial, on 1, 2, 3 and 5 workers, the 5
    # more than the chunks; a short switch interval interleaves the
    # workers often, so that a row left unwritten, or a buffer that two
    # workers share, would show
    n, s, fit = 11, 5, 3
    ic = InitialCondition.annulus_rotating_2d()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _check_no_stale_workspace(monkeypatch, n, s, fit, ic)
    finally:
        sys.setswitchinterval(interval)


def _check_no_stale_workspace(monkeypatch, n, s, fit, ic):
    for spec in (_mill_spec(), _combined_spec()):
        ens = sample_initial(ic, n, 3, spec.basis.n_modes)
        q = spec.basis.n_nodes
        for sub in (draw_subsamples(np.random.default_rng(4), n, s), None):
            partners = n if sub is None else s
            want = _velocity_rate_full(ens.x_hat, ens.v_hat, sub, _Context(spec))
            monkeypatch.setattr(solver, "_CHUNK_BUDGET", fit * partners * 2 * q)
            for threads, (rows, chunks) in _SMALL_CHUNKS.items():
                ctx = _Context(spec, _Workers(threads))
                try:
                    _velocity_rate_full(ens.x_hat, ens.v_hat, sub, ctx)
                    ws = ctx.workspace(n, partners, 2)
                    assert ws.rows == rows and n % rows != 0
                    assert len(ws.chunks) == min(threads, chunks)
                    buffers = [value for holder in [ws, *ws.chunks] for value in vars(holder).values()
                               if isinstance(value, np.ndarray)]
                    for buf in buffers:
                        buf.fill(True if buf.dtype == bool else np.nan)
                    got = _velocity_rate_full(ens.x_hat, ens.v_hat, sub, ctx)
                finally:
                    ctx.workers.close()
                assert np.array_equal(got, want), threads
            monkeypatch.undo()


def test_rows_of_is_a_contiguous_prefix_of_every_chunk_buffer():
    # a partial chunk reads every buffer of _ChunkBuffers, and the
    # subsample mean's, through _rows_of: a C-contiguous view with the
    # chunk's rows on axis -2 that starts at the buffer's first element
    rng = np.random.default_rng(4)
    n, s, d = 11, 3, 2
    ctx = _Context(_cs_spec())
    _partner_mean_less_own(rng.normal(size=(n, 6)), draw_subsamples(rng, n, s), ctx)
    chunk = ctx.workspace(n, s, d).chunks[0]
    buffers = dict(vars(chunk), mean=ctx.means[4][0])
    assert sorted(buffers) == ["coef", "kernel", "mask", "mean", "pairs", "r", "r_sq", "speed_sq", "term"]
    for name, buf in buffers.items():
        for rows in (1, buf.shape[-2] - 1):
            view = _rows_of(buf, rows)
            assert view.shape == buf.shape[:-2] + (rows, buf.shape[-1]), name
            assert view.flags.c_contiguous and np.shares_memory(view, buf), name
            assert view.ctypes.data == buf.ctypes.data, name


def test_row_chunks_fit_in_l2_for_every_preset():
    # the partner buffer, the node path's only (d, P, R, Q) array, holds
    # at most 1 MiB on each worker for every shipped preset, so that it
    # and the chunk's (P, R, Q) arrays share one core's 2 MiB of L2; a
    # single row larger than that is a chunk of its own.  Each worker's
    # share of ceil(N/W) rows is cut into the fewest equal chunks that
    # fit, so on 1, 2 and 4 workers every worker takes the same number
    # of chunks, and on one worker no chunk is larger than the largest
    # that fits, the rule of version 0.4.0
    for name in available_presets():
        ic, cfg = build_experiment(load_config(name))
        n, s, q = cfg.n_particles, cfg.subsample_size, cfg.model.basis.n_nodes
        fit = max(1, (1 << 17) // (s * ic.dim * q))
        for threads in (1, 2, 4):
            ws = _Context(cfg.model, _Workers(threads)).workspace(n, s, ic.dim)
            share = -(-n // threads)
            per_worker, extra = divmod(-(-n // ws.rows), threads)
            assert extra == 0 and per_worker == -(-share // fit), name
            assert ws.rows * (per_worker - 1) < share <= ws.rows * per_worker, name
            assert len(ws.chunks) == threads, name
            if threads == 1:
                assert ws.rows <= min(n, fit), name
            for chunk in ws.chunks:
                assert chunk.pairs.shape == (ic.dim, s, ws.rows, q), name
                assert [key for key, value in vars(chunk).items() if np.ndim(value) == 4] == ["pairs"], name
            assert [key for key, value in vars(ws).items() if np.ndim(value) == 4] == [], name
            assert ws.chunks[0].pairs.nbytes <= 1 << 20 or ws.rows == 1, name


def test_runs_of_different_models_share_no_buffers():
    # mill, then combined (other N, Q and modes), then mill again: the
    # repeated run must not see anything the earlier runs left behind
    ic = InitialCondition.annulus_rotating_2d()
    mill = SolverConfig(n_particles=30, dt=0.01, t_end=0.1, subsample_size=5, seed=8,
                        model=_mill_spec())
    combined = SolverConfig(n_particles=24, dt=0.01, t_end=0.1, subsample_size=24, seed=8,
                            model=_combined_spec())
    _, first = run(ic, mill)
    run(ic, combined)
    _, again = run(ic, mill)
    assert np.array_equal(first.x_hat, again.x_hat)
    assert np.array_equal(first.v_hat, again.v_hat)


def test_openblas_thread_count_restored_after_run(monkeypatch):
    # a threaded run holds OpenBLAS at one thread from its start, seen
    # from the observers on the initial state and between steps, and
    # gives back the earlier count when it returns and when it raises;
    # the budget gives the runs 8 and 2 row chunks on 2 workers
    monkeypatch.setattr(solver, "_CHUNK_BUDGET", 400)
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get_threads, _ = blas
    before = get_threads()
    ic = InitialCondition.annulus_rotating_2d()
    cfg = SolverConfig(n_particles=40, dt=0.01, t_end=0.03, subsample_size=5, seed=2, model=_mill_spec())
    records, _ = run(ic, cfg, observers=[lambda e: get_threads()], threads=2)
    assert [threads for _, (threads,) in records] == [1, 1, 1, 1]
    assert get_threads() == before
    morse = MorseSwarmParams(a=10.0, b=0.001, C_A=3000.0, C_R=1.0, ell_A=100.0, ell_R=0.01)
    blowup = SolverConfig(n_particles=20, dt=1e6, t_end=2e6, subsample_size=20, seed=0,
                          model=ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 1), morse=morse))
    seen = []
    with pytest.raises(IntegrationBlowupError):
        run(ic, blowup, observers=[lambda e: seen.append(get_threads())], threads=2)
    assert seen == [1, 1]
    assert get_threads() == before


def test_concurrent_runs_share_one_openblas_hold():
    # two one-worker runs on a 2-thread pool, as `converge --threads 2`
    # runs its sweep points: both are inside the hold at their first
    # observation (a barrier), the long run's third observation waits
    # until the short run has returned, and every observation of both
    # sees one thread; the earlier count is back once both have ended
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get_threads, _ = blas
    before = get_threads()
    ic = InitialCondition.annulus_rotating_2d()
    short = SolverConfig(n_particles=40, dt=0.01, t_end=0.03, subsample_size=5, seed=2, model=_mill_spec())
    long = replace(short, t_end=0.06)
    started, short_done = threading.Barrier(2, timeout=60), threading.Event()

    def observer(seen, wait_for=None):
        def observe(e):
            if not seen:
                started.wait()
            elif len(seen) == 2 and wait_for is not None:
                assert wait_for.wait(60)
            seen.append(get_threads())
        return observe

    def short_run(seen):
        try:
            run(ic, short, observers=[observer(seen)])
        finally:
            short_done.set()

    short_seen, long_seen = [], []
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(short_run, short_seen),
                   pool.submit(run, ic, long, observers=[observer(long_seen, short_done)])]
        for future in futures:
            future.result(timeout=120)
    assert short_seen == [1] * 4 and long_seen == [1] * 7
    assert get_threads() == before


def test_openblas_hold_survives_many_concurrent_holders():
    # 6 threads, more than the cores, enter and leave the hold 200 times
    # each under a short switch interval: inside it OpenBLAS always runs
    # one thread, and the earlier count is back once all have left.  A
    # holder count updated without the lock loses updates, and the last
    # one out then restores too early or saves 1 as the earlier count
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get_threads, _ = blas
    before = get_threads()
    seen = []

    def hold():
        for _ in range(200):
            with solver._BLAS_HOLD:
                seen.append(get_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hold) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 1200
    assert get_threads() == before
