import numpy as np
import pytest

from swarmuq.errors import ConfigurationError
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.models import UncertainScalar
from swarmuq.pde_oracle import ExactSg, VelocityGrid

from oracles import bimodal_moments, uniform_expectation

LEGENDRE, HERMITE = PolynomialFamily.LEGENDRE, PolynomialFamily.HERMITE


def test_velocity_grid_geometry():
    grid = VelocityGrid(-2.0, 2.0, 101)
    assert grid.nodes[0] == -2.0 and grid.nodes[-1] == 2.0
    assert np.allclose(np.diff(grid.nodes), 0.04, rtol=0, atol=1e-15)
    with pytest.raises(ConfigurationError):
        VelocityGrid(1.0, -1.0, 101)
    with pytest.raises(ConfigurationError):
        VelocityGrid(-1.0, 1.0, 2)


def test_strength_must_be_positive_at_every_node():
    basis = build_basis(LEGENDRE, 5)
    for strength in ("-1.0", "0.0", "0.5 + theta"):
        with pytest.raises(ConfigurationError):
            ExactSg(strength, basis, 0.1, 0.25)


def test_coefficients_solve_the_galerkin_system():
    # Centred differences in t and v of the returned coefficients satisfy
    # dc/dt = d/dv[(v - u) E c] = E (c + (v - u) dc/dv), with E built
    # from the quadrature, not from the eigenmodes; the residual falls
    # as h^2.
    basis = build_basis(LEGENDRE, 5)
    strength = UncertainScalar.parse("1.0 + 0.25*theta")
    sg = ExactSg(strength, basis, 0.1, 0.25)
    coupling = basis.coupling_matrix(strength(basis.quad_nodes))
    v, t = np.linspace(-1.5, 1.5, 61), 0.7
    c = sg.coefficients(v, t)

    def residual(h):
        dc_dt = (sg.coefficients(v, t + h) - sg.coefficients(v, t - h)) / (2 * h)
        dc_dv = (sg.coefficients(v + h, t) - sg.coefficients(v - h, t)) / (2 * h)
        return np.abs(dc_dt - coupling @ (c + (v - sg.u) * dc_dv)).max()

    coarse, fine = residual(1e-3), residual(5e-4)
    assert coarse < 1e-4 * np.abs(c).max()
    assert fine < 0.3 * coarse


@pytest.mark.parametrize("family, strength", [(LEGENDRE, "1.0 + 0.25*theta"), (HERMITE, "1.0 + 0.1*theta")])
@pytest.mark.parametrize("order", [3, 5, 8])
def test_eigenmodes_are_the_gauss_rule_of_order_plus_one_nodes(family, strength, order):
    # the rates are K at the M+1 Gauss nodes and U[0, k]^2 their weights,
    # on the basis's own rule of M+1 or 2(M+1) nodes
    gauss = build_basis(family, order, order + 1)
    for quad_points in (order + 1, 2 * (order + 1)):
        sg = ExactSg(strength, build_basis(family, order, quad_points), 0.1, 0.25)
        assert np.abs(sg.rates - UncertainScalar.parse(strength)(gauss.quad_nodes)).max() < 1e-13
        assert np.abs(sg.vectors[0] ** 2 - gauss.quad_weights).max() < 1e-13


def test_constant_strength_keeps_the_higher_modes_zero():
    basis = build_basis(LEGENDRE, 5)
    sg = ExactSg(1.25, basis, 0.1, 0.25)
    v = np.linspace(-2.0, 2.0, 101)
    c = sg.coefficients(v, 1.0)
    assert (c[1:] == 0.0).all()
    growth = np.exp(1.25)
    assert np.allclose(c[0], growth * sg.initial_density(v * growth), rtol=1e-15, atol=0)
    _, t0 = bimodal_moments(0.1, 0.25)
    assert abs(sg.temperature(1.0) - t0 * np.exp(-2.5)) <= 1e-15 * t0


def test_order_zero_runs_at_the_mean_strength():
    basis = build_basis(LEGENDRE, 0)
    v = np.linspace(-2.0, 2.0, 101)
    uncertain = ExactSg("1.0 + 0.5*theta", basis, 0.1, 0.25).coefficients(v, 0.5)
    assert np.allclose(uncertain, ExactSg(1.0, basis, 0.1, 0.25).coefficients(v, 0.5), rtol=1e-14, atol=0)


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
def test_mode_zero_is_a_nonnegative_unit_mass_with_the_expected_temperature(t):
    # the trapezoid rule on a fine grid is spectrally accurate for these
    # Gaussian bumps, the narrowest of which has width 0.32 e^(-1.25 t)
    sg = ExactSg("1.0 + 0.25*theta", build_basis(LEGENDRE, 5), 0.1, 0.25)
    v = np.linspace(-3.0, 3.0, 60001)
    c0 = sg.coefficients(v, t)[0]
    assert (c0 >= 0.0).all()
    integral = lambda f: (f.sum() - (f[0] + f[-1]) / 2) * (v[1] - v[0])
    assert abs(integral(c0) - 1.0) < 1e-10
    assert abs(integral((v - sg.u) ** 2 * c0) - sg.temperature(t)) < 1e-10 * sg.temperature(t)


def test_initial_temperature_is_the_mixture_variance():
    for sigma_v_sq, centre in ((0.1, 0.25), (0.2, 1.0)):
        sg = ExactSg("1.0 + 0.25*theta", build_basis(LEGENDRE, 3), sigma_v_sq, centre)
        _, var = bimodal_moments(sigma_v_sq, centre)
        assert abs(sg.temperature(0.0) - var) < 1e-15 * var


def test_temperature_converges_spectrally_in_order():
    # E[T](t) against T0 E[exp(-2 K(theta) t)] by a 200-node rule, and
    # against the same sum on the M+1 Gauss nodes, which it equals
    strength, t = UncertainScalar.parse("1.0 + 0.5*theta"), 1.0
    _, t0 = bimodal_moments(0.1, 0.25)
    exact = t0 * uniform_expectation(lambda th: np.exp(-2 * strength(th) * t))
    errors = []
    for order in range(8):
        temperature = ExactSg(strength, build_basis(LEGENDRE, order), 0.1, 0.25).temperature(t)
        gauss = build_basis(LEGENDRE, order, order + 1)
        on_nodes = t0 * gauss.quad_weights @ np.exp(-2 * strength(gauss.quad_nodes) * t)
        assert abs(temperature - on_nodes) <= 1e-13 * on_nodes
        errors.append(abs(temperature - exact))
    floor = 1e-14 * exact
    for lower, higher in zip(errors[1:], errors[:-1]):
        assert lower < 0.1 * higher or lower < floor
    assert errors[-1] < floor


def test_galerkin_density_loses_positivity_while_mode_zero_keeps_it():
    # the paper's claim for stochastic Galerkin: at M = 5 the density at
    # the quadrature nodes goes negative, and more so at t = 3 than at
    # t = 1, while its mean over theta, mode 0, stays nonnegative
    basis = build_basis(LEGENDRE, 5)
    sg = ExactSg("1.0 + 0.25*theta", basis, 0.1, 0.25)
    v = np.linspace(-2.0, 2.0, 4001)
    lowest = {}
    for t in (1.0, 3.0):
        c = sg.coefficients(v, t)
        assert (c[0] >= 0.0).all()
        lowest[t] = (basis.basis_table.T @ c).min()
    assert lowest[3.0] < -0.01
    assert lowest[3.0] < lowest[1.0] < 0.0
