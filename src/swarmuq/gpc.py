"""Orthogonal polynomial bases for independent scalar random inputs.

Each basis pairs a polynomial family with the probability law it is
orthogonal against (Legendre with the uniform law on [-1, 1], Hermite
with the standard Gaussian).  Quadrature weights absorb the probability
density, so every discrete integral here is an expectation: sum(w) == 1.

Coefficients follow the normalized convention throughout: projecting a
function f returns c_h = <f, P_h> / ||P_h||^2, so that reconstruction
sum_h c_h P_h(theta) inverts the projection for polynomial inputs and
mean/variance read directly off the coefficients.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, QuadratureInsufficiencyError


class PolynomialFamily(enum.Enum):
    """Supported expansion families; each fixes the law of the random input.

    Further classical pairings (Jacobi/Beta, Laguerre/Gamma, ...) can be
    added by registering a rule in ``_FAMILY_RULES``.
    """

    LEGENDRE = "legendre"  # theta ~ Uniform([-1, 1])
    HERMITE = "hermite"    # theta ~ Normal(0, 1)


def _legendre_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return nodes, weights / 2.0  # absorb the uniform density 1/2


def _hermite_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Probabilists' convention: weight function exp(-x^2/2).
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def _legendre_values(order: int, theta: np.ndarray) -> np.ndarray:
    """Legendre polynomials P_0..P_order at theta, via the three-term recurrence."""
    theta = np.asarray(theta, dtype=float)
    table = np.empty((order + 1,) + theta.shape)
    table[0] = 1.0
    if order >= 1:
        table[1] = theta
    for h in range(1, order):
        table[h + 1] = ((2 * h + 1) * theta * table[h] - h * table[h - 1]) / (h + 1)
    return table


def _hermite_values(order: int, theta: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomials He_0..He_order at theta."""
    theta = np.asarray(theta, dtype=float)
    table = np.empty((order + 1,) + theta.shape)
    table[0] = 1.0
    if order >= 1:
        table[1] = theta
    for h in range(1, order):
        table[h + 1] = theta * table[h] - h * table[h - 1]
    return table


_FAMILY_RULES = {
    PolynomialFamily.LEGENDRE: (_legendre_quadrature, _legendre_values),
    PolynomialFamily.HERMITE: (_hermite_quadrature, _hermite_values),
}


@dataclass(frozen=True)
class Basis:
    """Orthogonal chaos basis over independent random inputs, plus the
    Gauss rule of their joint law.

    A basis over several inputs is the tensor product of one-input bases:
    joint mode (k, h) sits at flat position k * m2 + h (second index
    fastest), and the joint quadrature nodes use the same layout over the
    product grid.

    Attributes
    ----------
    families : tuple of PolynomialFamily, one per random input
    orders : tuple of int
        Highest polynomial degree per input.
    nodes : ndarray, shape (n_inputs, Q)
        Value of each random input at each joint quadrature node.
    quad_weights : ndarray, shape (Q,)
        Nonnegative, sum to 1 (they integrate the probability density).
    basis_table : ndarray, shape (n_modes, Q)
        Values of the joint modes at the joint nodes.
    sq_norms : ndarray, shape (n_modes,)
        Squared norms of the joint modes under the probability law.
    """

    families: tuple
    orders: tuple
    nodes: np.ndarray
    quad_weights: np.ndarray
    basis_table: np.ndarray
    sq_norms: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.quad_weights, self.basis_table, self.sq_norms):
            arr.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.basis_table.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.quad_weights.size

    @property
    def quad_nodes(self) -> np.ndarray:
        """Nodes of the first random input, shape (Q,); all nodes of a one-input basis."""
        return self.nodes[0]

    def eval_basis(self, theta) -> np.ndarray:
        """Values of all modes at theta, shape (n_modes,) + theta.shape.

        ``theta`` is one value (or array) per random input: a scalar or
        array for a one-input basis, a (theta1, theta2) pair for two.
        """
        thetas = (theta,) if len(self.families) == 1 else theta
        values = [_FAMILY_RULES[family][1](order, np.asarray(t, dtype=float))
                  for family, order, t in zip(self.families, self.orders, thetas)]
        return functools.reduce(np.kron, values)

    def projection_matrix(self) -> np.ndarray:
        """Matrix P with P[q, h] = w_q P_h(theta_q) / ||P_h||^2.

        Node samples f(theta_q) are projected to coefficients by f @ P.
        """
        return (self.quad_weights[:, None] * self.basis_table.T) / self.sq_norms[None, :]

    def coupling_matrix(self, factor) -> np.ndarray:
        """Modal matrix of multiplication by a random factor f.

        e[h, k] = sum_q w_q f(theta_q) P_k(theta_q) P_h(theta_q) / ||P_h||^2,
        with f given by its values at the nodes.  A scalar f is constant in
        theta and gives the exact diagonal f * I: orthogonality means a
        constant factor never mixes modes.
        """
        if np.ndim(factor) == 0:
            return factor * np.eye(self.n_modes)
        weighted = self.quad_weights * factor
        return (self.basis_table * weighted) @ self.basis_table.T / self.sq_norms[:, None]


def build_basis(
    family: PolynomialFamily,
    order: int,
    quad_points: int | None = None,
) -> Basis:
    """Construct a one-input basis with its Gauss quadrature rule.

    ``quad_points`` defaults to 2 * (order + 1), exact for polynomial
    integrands up to degree 4 * order + 3; it must be at least order + 1
    so that the rule resolves products of any two basis modes.
    """
    if not isinstance(family, PolynomialFamily):
        raise ConfigurationError(f"unsupported polynomial family: {family!r}")
    if order < 0:
        raise ConfigurationError(f"expansion order must be >= 0, got {order}")
    if quad_points is None:
        quad_points = 2 * (order + 1)
    if quad_points < order + 1:
        raise QuadratureInsufficiencyError(
            f"{quad_points} quadrature nodes cannot resolve order {order} "
            f"(need at least {order + 1})"
        )
    rule, values = _FAMILY_RULES[family]
    nodes, weights = rule(quad_points)
    table = values(order, nodes)
    return Basis(
        families=(family,),
        orders=(order,),
        nodes=nodes[None, :],
        quad_weights=weights,
        basis_table=table,
        sq_norms=table**2 @ weights,
    )


def tensor_basis(first: Basis, second: Basis) -> Basis:
    """Tensor product of two bases over independent random inputs.

    The inputs of ``first`` come before those of ``second``; modes and
    nodes are laid out with the second basis fastest.
    """
    return Basis(
        families=first.families + second.families,
        orders=first.orders + second.orders,
        nodes=np.vstack([np.repeat(first.nodes, second.n_nodes, axis=1),
                         np.tile(second.nodes, (1, first.n_nodes))]),
        quad_weights=np.kron(first.quad_weights, second.quad_weights),
        basis_table=np.kron(first.basis_table, second.basis_table),
        sq_norms=np.kron(first.sq_norms, second.sq_norms),
    )


def project(samples_at_nodes, basis) -> np.ndarray:
    """Project node samples onto the basis: c_h = sum_q w_q f_q P_h(q) / ||P_h||^2.

    ``samples_at_nodes`` may carry leading batch axes; the node axis is last.
    """
    samples = np.asarray(samples_at_nodes, dtype=float)
    if samples.shape[-1] != basis.n_nodes:
        raise DimensionMismatchError(
            f"expected {basis.n_nodes} node samples, got {samples.shape[-1]}"
        )
    return samples @ basis.projection_matrix()


def reconstruct_at(coeffs, theta, basis) -> float | np.ndarray:
    """Evaluate the expansion sum_h c_h P_h(theta)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != basis.n_modes:
        raise DimensionMismatchError(
            f"expected {basis.n_modes} coefficients, got {coeffs.shape[-1]}"
        )
    values = basis.eval_basis(theta)
    out = np.tensordot(coeffs, values, axes=(-1, 0))
    return float(out) if np.ndim(out) == 0 else out


def expectation_and_variance(coeffs, basis) -> tuple[float, float]:
    """Mean and variance of the expanded random quantity.

    Orthogonality gives E = c_0 and Var = sum_{h>=1} c_h^2 ||P_h||^2.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != basis.n_modes:
        raise DimensionMismatchError(
            f"expected {basis.n_modes} coefficients, got {coeffs.shape[-1]}"
        )
    mean = float(coeffs[..., 0])
    variance = float(np.sum(coeffs[..., 1:] ** 2 * basis.sq_norms[1:]))
    return mean, variance
