import numpy as np
import pytest

from swarmuq.errors import ConfigurationError, DimensionMismatchError, QuadratureInsufficiencyError
from swarmuq.gpc import (
    PolynomialFamily,
    build_basis,
    expectation_and_variance,
    project,
    reconstruct_at,
    tensor_basis,
)

from oracles import gaussian_expectation, uniform_expectation


def test_trivial_constant_basis():
    basis = build_basis(PolynomialFamily.LEGENDRE, 0, 1)
    assert basis.n_modes == 1
    assert np.allclose(basis.basis_table, 1.0)
    assert abs(basis.sq_norms[0] - 1.0) < 1e-14


def test_legendre_norms_match_closed_form():
    basis = build_basis(PolynomialFamily.LEGENDRE, 3, 8)
    expected = np.array([1.0, 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0])
    assert np.allclose(basis.sq_norms, expected, atol=1e-13)
    # cross-check against a high-order quadrature oracle
    for h in range(4):
        oracle = uniform_expectation(lambda th, h=h: basis.eval_basis(th)[h] ** 2)
        assert abs(basis.sq_norms[h] - oracle) < 1e-12


def test_hermite_norms_are_factorials():
    basis = build_basis(PolynomialFamily.HERMITE, 2, 6)
    assert np.allclose(basis.sq_norms, [1.0, 1.0, 2.0], atol=1e-12)
    for h in range(3):
        oracle = gaussian_expectation(lambda th, h=h: basis.eval_basis(th)[h] ** 2)
        assert abs(basis.sq_norms[h] - oracle) < 1e-10


def test_weights_are_a_probability_measure():
    for family in PolynomialFamily:
        basis = build_basis(family, 6)
        assert abs(basis.quad_weights.sum() - 1.0) < 1e-12
        assert (basis.quad_weights > 0).all()


def test_discrete_orthogonality():
    for family in PolynomialFamily:
        for order in (1, 4, 9):
            basis = build_basis(family, order, 2 * order + 1)
            gram = (basis.basis_table * basis.quad_weights) @ basis.basis_table.T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-10
            assert (np.diag(gram) > 0).all()


def test_recurrence_stable_at_high_order():
    # relative residual, since the Hermite norms grow factorially
    for family in PolynomialFamily:
        basis = build_basis(family, 20, 41)
        gram = (basis.basis_table * basis.quad_weights) @ basis.basis_table.T
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off / np.abs(np.diag(gram)).max() < 1e-12


def test_build_basis_rejects_bad_inputs():
    with pytest.raises(QuadratureInsufficiencyError):
        build_basis(PolynomialFamily.LEGENDRE, 4, 3)
    with pytest.raises(ConfigurationError):
        build_basis(PolynomialFamily.LEGENDRE, -1)
    with pytest.raises(ConfigurationError):
        build_basis("legendre", 2)  # must pass the enum


def test_project_linear_and_constant():
    basis = build_basis(PolynomialFamily.LEGENDRE, 1)
    coeffs = project(basis.quad_nodes, basis)
    assert np.allclose(coeffs, [0.0, 1.0], atol=1e-14)
    const = project(np.full(basis.n_nodes, 4.2), basis)
    assert abs(const[0] - 4.2) < 1e-14
    assert np.abs(const[1:]).max() < 1e-14


def test_project_quadratic():
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    coeffs = project(basis.quad_nodes**2, basis)
    assert np.allclose(coeffs, [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-13)
    assert abs(reconstruct_at(coeffs, 0.5, basis) - 0.25) < 1e-13


def test_project_rejects_wrong_length():
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    with pytest.raises(DimensionMismatchError):
        project(np.zeros(basis.n_nodes + 1), basis)
    with pytest.raises(DimensionMismatchError):
        reconstruct_at(np.zeros(basis.n_modes + 2), 0.0, basis)


def test_reconstruct_trivial_cases():
    basis = build_basis(PolynomialFamily.LEGENDRE, 1)
    assert abs(reconstruct_at([0.0, 1.0], 0.3, basis) - 0.3) < 1e-14
    basis5 = build_basis(PolynomialFamily.LEGENDRE, 5)
    for theta in (-0.9, 0.0, 0.77):
        assert abs(reconstruct_at([2.5, 0, 0, 0, 0, 0], theta, basis5) - 2.5) < 1e-14


def test_project_reconstruct_identity_on_polynomials():
    rng = np.random.default_rng(42)
    for family in PolynomialFamily:
        for order in (2, 5, 8):
            basis = build_basis(family, order)
            poly = rng.normal(size=order + 1)
            samples = np.polyval(poly, basis.quad_nodes)
            coeffs = project(samples, basis)
            thetas = rng.uniform(-1, 1, 100)
            recon = np.array([reconstruct_at(coeffs, th, basis) for th in thetas])
            assert np.abs(recon - np.polyval(poly, thetas)).max() < 1e-10


def test_expectation_and_variance_examples():
    basis2 = build_basis(PolynomialFamily.LEGENDRE, 2)
    assert expectation_and_variance(np.array([5.0, 0.0, 0.0]), basis2) == (5.0, 0.0)
    basis1 = build_basis(PolynomialFamily.LEGENDRE, 1)
    mean, var = expectation_and_variance(np.array([0.0, 1.0]), basis1)
    # Var(theta) for the uniform law, against the quadrature oracle
    oracle = uniform_expectation(lambda th: th**2)
    assert abs(mean) < 1e-14 and abs(var - oracle) < 1e-13
    hermite1 = build_basis(PolynomialFamily.HERMITE, 1)
    mean, var = expectation_and_variance(np.array([1.0, 1.0]), hermite1)
    assert abs(mean - 1.0) < 1e-14
    assert abs(var - gaussian_expectation(lambda th: th**2)) < 1e-12


def test_moments_match_bruteforce_quadrature():
    rng = np.random.default_rng(3)
    for family in PolynomialFamily:
        basis = build_basis(family, 6)
        coeffs = rng.normal(size=basis.n_modes)
        mean, var = expectation_and_variance(coeffs, basis)
        fun = lambda th: np.array([reconstruct_at(coeffs, t, basis) for t in np.atleast_1d(th)])
        oracle = uniform_expectation if family is PolynomialFamily.LEGENDRE else gaussian_expectation
        mean_o = oracle(fun)
        var_o = oracle(lambda th: (fun(th) - mean_o) ** 2)
        assert abs(mean - mean_o) < 1e-10
        assert abs(var - var_o) < 1e-10


def test_projection_matrix_shape_and_roundtrip():
    basis = build_basis(PolynomialFamily.LEGENDRE, 4)
    proj = basis.projection_matrix()
    assert proj.shape == (basis.n_nodes, basis.n_modes)
    batch = np.random.default_rng(0).normal(size=(3, 2, basis.n_nodes))
    coeffs = project(batch, basis)
    assert coeffs.shape == (3, 2, basis.n_modes)


def test_basis_is_immutable():
    basis = build_basis(PolynomialFamily.LEGENDRE, 2)
    with pytest.raises(ValueError):
        basis.quad_weights[0] = 7.0


def test_tensor_basis_layout_and_orthogonality():
    b1 = build_basis(PolynomialFamily.LEGENDRE, 3)
    b2 = build_basis(PolynomialFamily.LEGENDRE, 2)
    tb = tensor_basis(b1, b2)
    assert tb.n_modes == 4 * 3
    assert tb.n_nodes == b1.n_nodes * b2.n_nodes
    assert tb.nodes.shape == (2, tb.n_nodes)
    assert tb.orders == (3, 2)
    assert abs(tb.quad_weights.sum() - 1.0) < 1e-12
    gram = (tb.basis_table * tb.quad_weights) @ tb.basis_table.T
    assert np.abs(gram - np.diag(tb.sq_norms)).max() < 1e-10
    # joint mode (k, h) sits at k * m2 + h, with node q at (nodes[0][q], nodes[1][q])
    k, h = 2, 1
    flat = k * b2.n_modes + h
    vals = tb.eval_basis((0.37, -0.52))
    expected = b1.eval_basis(0.37)[k] * b2.eval_basis(-0.52)[h]
    assert abs(vals[flat] - expected) < 1e-14
    assert np.array_equal(tb.basis_table[:, 7], tb.eval_basis(tb.nodes[:, 7]))
    with pytest.raises(ValueError):
        tb.nodes[0, 0] = 7.0


def test_tensor_basis_evaluates_arrays_pointwise():
    # array inputs are evaluated point by point, never at mixed (theta1, theta2) pairs
    b1 = build_basis(PolynomialFamily.LEGENDRE, 2)
    b2 = build_basis(PolynomialFamily.HERMITE, 3)
    tb = tensor_basis(b1, b2)
    t1, t2 = np.array([0.3, -0.8, 0.1]), np.array([1.5, 0.2, -2.0])
    vals = tb.eval_basis((t1, t2))
    assert vals.shape == (tb.n_modes, 3)
    for p in range(3):
        assert np.array_equal(vals[:, p], tb.eval_basis((t1[p], t2[p])))
    # a scalar input broadcasts against the other input's array
    assert np.array_equal(tb.eval_basis((0.3, t2)), tb.eval_basis((np.full(3, 0.3), t2)))
    coeffs = np.arange(tb.n_modes, dtype=float)
    recon = reconstruct_at(coeffs, (t1, t2), tb)
    assert recon.shape == (3,)
    assert np.allclose(recon, [reconstruct_at(coeffs, (t1[p], t2[p]), tb) for p in range(3)], rtol=1e-14)


def test_tensor_projection_separable_function():
    tb = tensor_basis(
        build_basis(PolynomialFamily.LEGENDRE, 2),
        build_basis(PolynomialFamily.LEGENDRE, 2),
    )
    # f(t1, t2) = t1 * t2^2 = P1(t1) * (1/3 + 2/3 P2(t2))
    samples = tb.nodes[0] * tb.nodes[1] ** 2
    coeffs = project(samples, tb)
    expected = np.zeros(tb.n_modes)
    expected[1 * 3 + 0] = 1.0 / 3.0
    expected[1 * 3 + 2] = 2.0 / 3.0
    assert np.abs(coeffs - expected).max() < 1e-13
    assert abs(reconstruct_at(coeffs, (0.5, -0.25), tb) - 0.5 * 0.0625) < 1e-13
