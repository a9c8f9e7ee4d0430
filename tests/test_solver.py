import math

import numpy as np
import pytest
from scipy import stats

from swarmuq.ensemble import GpcEnsemble, InitialCondition, evaluate_at_nodes, sample_initial
from swarmuq.errors import ConfigurationError, IntegrationBlowupError
from swarmuq.gpc import PolynomialFamily, build_basis, tensor_basis
from swarmuq.models import CuckerSmaleParams, MorseSwarmParams, alignment_kernel
from swarmuq import solver
from swarmuq.solver import (
    ModelSpec,
    SolverConfig,
    _Context,
    _forces_for_rows,
    _subsample_mean_matrix,
    _velocity_rate_full,
    draw_subsamples,
    run,
    step,
)

from oracles import direct_rk4, forces_for_rows


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
    return _velocity_rate_full(ens.x_hat, ens.v_hat, sub,
                               _subsample_mean_matrix(sub, ens.n_particles), _Context(spec))


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
        perturbed = ens.copy()
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


def test_blowup_raises_with_particle_info():
    # an absurd time step makes the morse dynamics explode
    morse = MorseSwarmParams(a=10.0, b=0.001, C_A=3000.0, C_R=1.0, ell_A=100.0, ell_R=0.01)
    spec = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 1), morse=morse)
    cfg = SolverConfig(n_particles=20, dt=1e6, t_end=2e6, subsample_size=20, seed=0, model=spec)
    with pytest.raises(IntegrationBlowupError, match="particle"):
        run(InitialCondition.annulus_rotating_2d(), cfg)


def test_solver_config_validation():
    spec = _cs_spec()
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=1.0, subsample_size=11, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.0, t_end=1.0, subsample_size=5, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=-1.0, subsample_size=5, seed=0, model=spec)
    with pytest.raises(ConfigurationError):
        SolverConfig(n_particles=10, dt=0.01, t_end=1.0, subsample_size=5, seed=0, model=spec,
                     integrator="verlet")
    with pytest.raises(ConfigurationError):
        ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 2))


def test_subsamples_distinct_and_uniform():
    rng = np.random.default_rng(99)
    assert draw_subsamples(rng, 50, 50) is None
    # single partner, rejection regime and dense regime, >= 1e5 sampled indices each
    for n, s, reps in ((40, 1, 2500), (40, 3, 850), (40, 25, 120)):
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


def test_forces_for_rows_match_allocating_reference():
    # the workspace path against the whole-array reference on random chaos
    # states, with particles 0 and 1 coincident (r = 0 at every node), for
    # a subsample table and for all-to-all (sub is None)
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
        x_nodes, v_nodes = x_hat @ ctx.table, v_hat @ ctx.table
        for sub in (draw_subsamples(rng, n, 4), None):
            ws = ctx.workspace(n, n if sub is None else sub.shape[1], d)
            for lo, hi in ((0, n), (3, 7)):
                got = _forces_for_rows(lo, hi, x_nodes, v_nodes, sub, ctx, ws)
                want = forces_for_rows(np.arange(lo, hi), x_nodes, v_nodes, sub, ctx)
                assert np.array_equal(got, want)


def test_chunked_step_matches_one_chunk(monkeypatch):
    # a budget of 13 rows splits 40 particles into chunks of 13, 13, 13, 1
    n, s, rows = 40, 5, 13
    ic = InitialCondition.annulus_rotating_2d()
    for spec in (_mill_spec(), _combined_spec()):
        ens = sample_initial(ic, n, 5, spec.basis.n_modes)
        cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=s, seed=0, model=spec)
        whole = step(ens, cfg, np.random.default_rng(1))
        per_row = s * 2 * spec.basis.n_nodes
        monkeypatch.setattr(solver, "_CHUNK_BUDGET", rows * per_row)
        assert _Context(spec).workspace(n, s, 2).rows == rows
        chunked = step(ens, cfg, np.random.default_rng(1))
        monkeypatch.undo()
        assert np.array_equal(chunked.x_hat, whole.x_hat)
        assert np.array_equal(chunked.v_hat, whole.v_hat)


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
