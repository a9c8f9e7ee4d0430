import numpy as np
import pytest

from swarmuq.errors import ConfigurationError, SchemeFailureError
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.pde_oracle import (
    VelocityGrid,
    bimodal_density,
    oracle_expected_temperature,
    sg_homogeneous_solve,
)

from oracles import bimodal_moments, uniform_expectation


def test_velocity_grid_geometry():
    grid = VelocityGrid(-2.0, 2.0, 101)
    assert abs(grid.dv - 0.04) < 1e-15
    assert grid.nodes[0] == -2.0 and grid.nodes[-1] == 2.0
    with pytest.raises(ConfigurationError):
        VelocityGrid(1.0, -1.0, 101)
    with pytest.raises(ConfigurationError):
        VelocityGrid(-1.0, 1.0, 2)


def test_bimodal_density_unit_mass():
    grid = VelocityGrid(-2.0, 2.0, 201)
    f0 = bimodal_density(grid)
    assert (f0 >= 0).all()
    assert abs(f0.sum() * grid.dv - 1.0) < 1e-12


def test_initial_temperature_matches_mixture_moments():
    grid = VelocityGrid(-2.0, 2.0, 201)
    basis = build_basis(PolynomialFamily.LEGENDRE, 3)
    sol = sg_homogeneous_solve(bimodal_density(grid), 1.0, basis, grid, t_end=0.0)
    _, var = bimodal_moments(0.1, 0.25)
    assert abs(oracle_expected_temperature(sol, basis) - var) < 1e-3


def test_deterministic_strength_keeps_modes_zero_and_decays():
    grid = VelocityGrid(-2.0, 2.0, 201)
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    k0 = 1.0
    sol = sg_homogeneous_solve(bimodal_density(grid), k0, basis, grid, t_end=1.0)
    assert np.abs(sol.coeffs[1:]).max() == 0.0
    t0 = oracle_expected_temperature(
        sg_homogeneous_solve(bimodal_density(grid), k0, basis, grid, t_end=0.0), basis)
    t1 = oracle_expected_temperature(sol, basis)
    target = t0 * np.exp(-2.0 * k0)
    assert abs(t1 - target) / target < 0.01


def test_mass_conserved_through_the_run():
    grid = VelocityGrid(-2.0, 2.0, 101)
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    masses = []
    mass = lambda s: float(s.coeffs[0].sum() * s.grid.dv)
    sol = sg_homogeneous_solve(bimodal_density(grid), "1+0.5*theta", basis, grid, t_end=1.0,
                               observers=[lambda s: masses.append(mass(s))],
                               observer_stride=50)
    assert abs(mass(sol) - 1.0) < 1e-8
    assert max(abs(m - 1.0) for m in masses) < 1e-8


def test_affine_strength_matches_closed_form_decay():
    # T(t) = T0 * E[exp(-2 K(theta) t)], integrated by an independent
    # high-order quadrature
    grid = VelocityGrid(-2.0, 2.0, 201)
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    f0 = bimodal_density(grid)
    t_end = 1.0
    sol = sg_homogeneous_solve(f0, "1.0 + 0.5*theta", basis, grid, t_end=t_end)
    t0 = oracle_expected_temperature(
        sg_homogeneous_solve(f0, "1.0 + 0.5*theta", basis, grid, t_end=0.0), basis)
    closed = t0 * uniform_expectation(lambda th: np.exp(-2 * (1.0 + 0.5 * th) * t_end))
    assert abs(oracle_expected_temperature(sol, basis) - closed) / closed < 0.01


def test_order_zero_equals_mean_strength_run():
    grid = VelocityGrid(-2.0, 2.0, 101)
    f0 = bimodal_density(grid)
    b0 = build_basis(PolynomialFamily.LEGENDRE, 0)
    uncertain = sg_homogeneous_solve(f0, "1.0 + 0.5*theta", b0, grid, t_end=0.5)
    mean_k = sg_homogeneous_solve(f0, 1.0, b0, grid, t_end=0.5)
    assert np.abs(uncertain.coeffs[0] - mean_k.coeffs[0]).max() < 1e-12


def test_spectral_convergence_in_order():
    grid = VelocityGrid(-2.0, 2.0, 401)
    f0 = bimodal_density(grid)
    t_end = 1.0
    closed_factor = uniform_expectation(lambda th: np.exp(-2 * (1.0 + 0.5 * th) * t_end))
    errors = []
    for order in range(5):
        basis = build_basis(PolynomialFamily.LEGENDRE, order)
        sol = sg_homogeneous_solve(f0, "1.0 + 0.5*theta", basis, grid, t_end=t_end)
        t0 = oracle_expected_temperature(
            sg_homogeneous_solve(f0, "1.0 + 0.5*theta", basis, grid, t_end=0.0), basis)
        errors.append(abs(oracle_expected_temperature(sol, basis) - t0 * closed_factor))
    floor = 1e-5 * errors[0] + 1e-12
    for lower, higher in zip(errors[1:], errors[:-1]):
        assert lower < 0.5 * higher or lower < floor


def test_expected_density_variance_decreases_monotonically():
    grid = VelocityGrid(-2.0, 2.0, 201)
    basis = build_basis(PolynomialFamily.LEGENDRE, 4)
    variances = []

    def watch(sol):
        v = sol.grid.nodes
        mass = sol.coeffs[0].sum() * sol.grid.dv
        variances.append(((v - sol.u) ** 2 * sol.coeffs[0]).sum() * sol.grid.dv / mass)

    sg_homogeneous_solve(bimodal_density(grid), "1+0.5*theta", basis, grid, t_end=1.0,
                         observers=[watch], observer_stride=25)
    diffs = np.diff(variances)
    assert (diffs < 1e-12).all()


def test_solver_rejects_bad_inputs():
    grid = VelocityGrid(-2.0, 2.0, 101)
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    good = bimodal_density(grid)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(good, 1.0, basis, grid, dt=grid.dv**2 * 4.0, t_end=0.1)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(-good, 1.0, basis, grid, t_end=0.1)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(good * 3.0, 1.0, basis, grid, t_end=0.1)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(good, "-1.0", basis, grid, t_end=0.1)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(good[:-1], 1.0, basis, grid, t_end=0.1)
    with pytest.raises(ConfigurationError):
        sg_homogeneous_solve(np.where(good > good.max() / 2, np.nan, good), 1.0, basis, grid, t_end=0.1)


def test_blowup_reports_scheme_failure():
    # dt = dv^2 is only stable for moderate drift strength; a huge K blows
    # past the explicit stability region and must be reported
    grid = VelocityGrid(-2.0, 2.0, 101)
    basis = build_basis(PolynomialFamily.LEGENDRE, 1)
    f0 = bimodal_density(grid)
    with np.errstate(all="ignore"), pytest.raises(SchemeFailureError):
        sg_homogeneous_solve(f0, 50.0, basis, grid, t_end=1.0)
