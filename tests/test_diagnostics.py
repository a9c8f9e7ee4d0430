import tracemalloc

import numpy as np
import pytest

from swarmuq.diagnostics import (
    DensityGrid,
    compute_stats,
    convergence_error,
    expected_temperature,
    flocking_spreads,
    reconstruct_expected_density,
    velocity_field,
    write_density_csv,
    write_pgm,
    write_stats_csv,
    write_velocity_field_csv,
)
from swarmuq.ensemble import GpcEnsemble, InitialCondition, sample_initial
from swarmuq.errors import ConfigurationError, DimensionMismatchError
from swarmuq.gpc import PolynomialFamily, build_basis, expectation_and_variance, project, tensor_basis

from oracles import bimodal_moments, cell_mean_velocities, pairwise_spread, two_pass_stats, uniform_expectation


def test_point_mass_histogram():
    ens = GpcEnsemble(np.zeros((7, 1, 2)), np.zeros((7, 1, 2)))
    grid = reconstruct_expected_density(ens, [(-1.0, 1.0, 4)], kind="position")
    assert grid.values.shape == (4,)
    assert grid.values[2] == pytest.approx(1.0 / 0.5)  # all mass in one bin
    assert abs(grid.total_mass - 1.0) < 1e-12
    assert grid.spill == 0


def test_uniform_histogram_binomial_bounds():
    rng = np.random.default_rng(0)
    n, bins = 100000, 20
    x = rng.uniform(-1, 1, size=(n, 1, 1))
    ens = GpcEnsemble(x, np.zeros_like(x))
    grid = reconstruct_expected_density(ens, [(-1.0, 1.0, bins)], kind="position")
    cell = 2.0 / bins
    counts = grid.values * n * cell
    p = 1.0 / bins
    sd = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 5 * sd


def test_histogram_positivity_and_mass_always():
    rng = np.random.default_rng(5)
    for kind in ("position", "velocity", "phase-space"):
        ens = GpcEnsemble(rng.normal(size=(500, 1, 3)), rng.normal(size=(500, 1, 3)))
        axes = [(-2.0, 2.0, 30)] * (2 if kind == "phase-space" else 1)
        grid = reconstruct_expected_density(ens, axes, kind=kind)
        assert grid.values.min() >= 0.0
        assert abs(grid.total_mass - 1.0) < 1e-12


def test_out_of_range_samples_are_clamped_and_counted():
    x = np.zeros((5, 1, 1))
    x[:, 0, 0] = [-5.0, -0.5, 0.0, 0.5, 9.0]
    ens = GpcEnsemble(x, np.zeros_like(x))
    grid = reconstruct_expected_density(ens, [(-1.0, 1.0, 4)], kind="position")
    assert grid.spill == 2
    assert abs(grid.total_mass - 1.0) < 1e-12
    assert grid.values[0] > 0 and grid.values[-1] > 0


def test_density_rejects_bad_requests():
    ens = GpcEnsemble(np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))
    with pytest.raises(ConfigurationError):
        reconstruct_expected_density(ens, [(-1, 1, 4)], kind="entropy")
    with pytest.raises(DimensionMismatchError):
        reconstruct_expected_density(ens, [(-1, 1, 4), (-1, 1, 4)], kind="position")


def test_expected_temperature_basic_cases():
    basis = build_basis(PolynomialFamily.LEGENDRE, 3)
    v = np.zeros((10, 1, 4))
    v[:, 0, 0] = 1.5
    ens = GpcEnsemble(np.zeros_like(v), v)
    assert expected_temperature(ens, basis) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(1)
    v2 = np.zeros((1000, 1, 4))
    v2[:, 0, 0] = rng.normal(size=1000)
    ens2 = GpcEnsemble(np.zeros_like(v2), v2)
    assert expected_temperature(ens2, basis) == pytest.approx(v2[:, 0, 0].var(), rel=1e-12)


def test_expected_temperature_of_bimodal_sample():
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    n = 10000
    ens = sample_initial(InitialCondition.bimodal_velocity_1d(), n, 3, basis.n_modes)
    _, var = bimodal_moments(0.1, 0.25)
    assert abs(expected_temperature(ens, basis) - var) / var < 5 / np.sqrt(n)


def test_observable_uq_matches_quadrature():
    basis = build_basis(PolynomialFamily.LEGENDRE, 4)
    const = expectation_and_variance(project(np.full(basis.n_nodes, 2.5), basis), basis)
    assert const[0] == pytest.approx(2.5) and const[1] == pytest.approx(0.0, abs=1e-14)
    mean, var = expectation_and_variance(project(basis.quad_nodes, basis), basis)
    assert abs(mean) < 1e-14
    assert var == pytest.approx(uniform_expectation(lambda th: th**2), abs=1e-13)
    # degree <= M polynomial: variance equals the direct weighted sum
    vals = 0.3 + basis.quad_nodes**3
    mean, var = expectation_and_variance(project(vals, basis), basis)
    direct = np.sum(basis.quad_weights * (vals - np.sum(basis.quad_weights * vals)) ** 2)
    assert abs(var - direct) < 1e-10


def test_observable_uq_shift_and_scale():
    basis = build_basis(PolynomialFamily.LEGENDRE, 3)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=basis.n_nodes)
    _, var = expectation_and_variance(project(vals, basis), basis)
    _, var_shift = expectation_and_variance(project(vals + 11.0, basis), basis)
    _, var_scale = expectation_and_variance(project(3.0 * vals, basis), basis)
    assert var_shift == pytest.approx(var, rel=1e-10)
    assert var_scale == pytest.approx(9.0 * var, rel=1e-10)


def test_flocking_spreads_identity_vs_bruteforce():
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    rng = np.random.default_rng(7)
    ens = GpcEnsemble(rng.normal(size=(100, 2, 3)), rng.normal(size=(100, 2, 3)))
    gamma, lam = flocking_spreads(ens, basis)
    from swarmuq.ensemble import evaluate_at_nodes

    x_nodes, v_nodes = evaluate_at_nodes(ens, basis)
    for q in range(basis.n_nodes):
        assert gamma[q] == pytest.approx(pairwise_spread(x_nodes[:, :, q]), rel=1e-9)
        assert lam[q] == pytest.approx(pairwise_spread(v_nodes[:, :, q]), rel=1e-9)


def test_flocking_spreads_simple_values():
    basis = build_basis(PolynomialFamily.LEGENDRE, 0, 1)
    v = np.zeros((2, 1, 1))
    v[1, 0, 0] = 1.0
    ens = GpcEnsemble(np.zeros_like(v), v)
    gamma, lam = flocking_spreads(ens, basis)
    assert np.allclose(lam, 1.0)
    assert np.allclose(gamma, 0.0)
    same = GpcEnsemble(np.zeros((5, 1, 1)), np.ones((5, 1, 1)))
    _, lam_same = flocking_spreads(same, basis)
    assert np.allclose(lam_same, 0.0)


def test_convergence_error_values():
    assert convergence_error(1.0, 1.0) == 0.0
    assert convergence_error(1.1, 1.0) == pytest.approx(0.1)
    assert convergence_error(1.1, 1.0, relative=True) == pytest.approx(0.1)
    with pytest.raises(ConfigurationError):
        convergence_error(1.0, 0.0, relative=True)


def test_compute_stats_2d_orientation():
    ens = sample_initial(InitialCondition.annulus_rotating_2d(), 400, 1, 3)
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    rec = compute_stats(ens, basis)
    assert rec.ccw_frac == 1.0
    assert rec.speed_mean == pytest.approx(1.0, abs=1e-12)
    assert rec.speed_std == pytest.approx(0.0, abs=1e-12)
    assert rec.expected_temperature > 0.0


def _chaos_states():
    """A 1D homogeneous state, a 2D mill state and a tensor-basis state,
    each with decaying random higher modes on top of its initial law."""
    rng = np.random.default_rng(31)
    legendre4 = build_basis(PolynomialFamily.LEGENDRE, 4)
    cases = ((InitialCondition.bimodal_velocity_1d(), 1001, build_basis(PolynomialFamily.LEGENDRE, 5)),
             (InitialCondition.annulus_rotating_2d(), 2000, legendre4),
             (InitialCondition.annulus_rotating_2d(), 1000, tensor_basis(legendre4, legendre4)))
    for ic, n, basis in cases:
        ens = sample_initial(ic, n, 3, basis.n_modes)
        decay = 0.5 ** np.arange(1, basis.n_modes)
        ens.x_hat[:, :, 1:] = rng.normal(size=(n, ic.dim, basis.n_modes - 1)) * decay
        ens.v_hat[:, :, 1:] = rng.normal(size=(n, ic.dim, basis.n_modes - 1)) * decay
        yield ens, basis


def test_compute_stats_equals_the_two_pass_formulas():
    # compute_stats reconstructs x once and v once, centring and squaring
    # in place; its temperature and spreads, and those of
    # expected_temperature and flocking_spreads, equal the formulas that
    # reconstruct v twice and square into new arrays, bit for bit
    for ens, basis in _chaos_states():
        temperature, gamma, lam = two_pass_stats(ens, basis)
        rec = compute_stats(ens, basis)
        w = basis.quad_weights
        assert rec.expected_temperature == temperature
        assert rec.position_spread == float(w @ gamma)
        assert rec.velocity_spread == float(w @ lam)
        assert expected_temperature(ens, basis) == temperature
        got_gamma, got_lam = flocking_spreads(ens, basis)
        assert np.array_equal(got_gamma, gamma) and np.array_equal(got_lam, lam)


def test_compute_stats_holds_one_node_array():
    # at its peak compute_stats holds one (N, d, Q) array of node values
    # and O(N d + Q) more, with numpy's ufunc buffer of getbufsize()
    # doubles; two reconstructions of v and new arrays for the deviations
    # and squares held about four at once
    for ens, basis in _chaos_states():
        compute_stats(ens, basis)
        n, d, q = ens.n_particles, ens.dim, basis.n_nodes
        tracemalloc.start()
        try:
            compute_stats(ens, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * d * q + 8 * (n * d + q) + np.getbufsize()), (n, d, q, peak)


def test_compute_stats_checks_mode_count():
    ens = sample_initial(InitialCondition.annulus_rotating_2d(), 10, 1, 3)
    with pytest.raises(DimensionMismatchError, match="modes"):
        compute_stats(ens, build_basis(PolynomialFamily.LEGENDRE, 5))


def test_stats_csv_roundtrip(tmp_path):
    ens = sample_initial(InitialCondition.bivariate_bimodal_1d(), 50, 2, 3)
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    rec = compute_stats(ens, basis)
    path = tmp_path / "stats.csv"
    write_stats_csv([rec], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,temperature,mean_vx,mean_vy,Lambda,Gamma,speed_mean,speed_std,ccw_frac"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert float(fields[1]) == pytest.approx(rec.expected_temperature)
    assert np.isnan(float(fields[3]))  # no vy in 1D
    assert np.isnan(float(fields[8]))  # no rotation sense in 1D


def test_density_csv_format(tmp_path):
    rng = np.random.default_rng(0)
    ens = GpcEnsemble(rng.normal(size=(200, 2, 1)), rng.normal(size=(200, 2, 1)))
    grid = reconstruct_expected_density(ens, [(-3, 3, 8), (-3, 3, 8)], kind="position")
    path = tmp_path / "density.csv"
    write_density_csv(grid, path)
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("axis0" in ln for ln in header) and any("axis1" in ln for ln in header)
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines if not ln.startswith("#")])
    assert data.shape == (8, 8)
    assert np.allclose(data, grid.values)


def test_pgm_format(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 4.0]])
    grid = DensityGrid(axes=((-1, 1, 2), (-1, 1, 2)), values=values, kind="position",
                       total_mass=1.0, spill=0)
    path = tmp_path / "density.pgm"
    write_pgm(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "0 64"
    assert lines[4] == "128 255"
    with pytest.raises(ConfigurationError):
        write_pgm(DensityGrid(axes=((-1, 1, 2),), values=np.zeros(2), kind="position",
                              total_mass=1.0, spill=0), tmp_path / "bad.pgm")


def test_velocity_field_mean_per_cell(tmp_path):
    x = np.zeros((4, 2, 1))
    v = np.zeros((4, 2, 1))
    x[:, :, 0] = [[-0.5, -0.5], [-0.5, -0.5], [0.5, 0.5], [0.5, 0.5]]
    v[:, :, 0] = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [4.0, 4.0]]
    ens = GpcEnsemble(x, v)
    counts, means = velocity_field(ens, [(-1, 1, 2), (-1, 1, 2)])
    assert counts[0, 0] == 2 and counts[1, 1] == 2
    assert np.allclose(means[0, 0], [0.5, 0.5])
    assert np.allclose(means[1, 1], [3.0, 3.0])
    assert np.allclose(means[0, 1], 0.0)
    write_velocity_field_csv(counts, means, tmp_path / "vf.csv")
    lines = (tmp_path / "vf.csv").read_text().splitlines()
    assert lines[0] == "i,j,count,vx,vy"
    assert len(lines) == 1 + 4


def test_velocity_field_matches_loop_reference():
    rng = np.random.default_rng(5)
    axes = [(-1.0, 1.0, 4), (-1.0, 1.0, 3)]
    x = rng.uniform(-1.5, 1.5, size=(300, 2))
    # points on interior and outer cell edges, and outside the window
    x[:60, 0] = rng.choice(np.linspace(-1.0, 1.0, 5), 60)
    x[60:120, 1] = rng.choice(np.linspace(-1.0, 1.0, 4), 60)
    v = rng.normal(size=(300, 2))
    counts, means = velocity_field(GpcEnsemble(x[:, :, None], v[:, :, None]), axes)
    ref_counts, ref_means = cell_mean_velocities(x, v, axes)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(means, ref_means)
