"""Exact stochastic-Galerkin solution of the space-homogeneous model.

The one-dimensional velocity density relaxes toward a point mass at the
conserved mean velocity u under the drift K(theta) (v - u).  Projecting
the equation onto the chaos basis gives the linear system
dc/dt = d/dv[(v - u) E c] for the coefficients c(t, v), with E the modal
matrix of multiplication by K (``Basis.coupling_matrix``).  With D the
squared norms of the modes, D^(1/2) E D^(-1/2) = U diag(lambda) U^T is
symmetric, so w = U^T D^(1/2) c splits into eigenmodes, each carried
exactly along its characteristics:

    w_k(t, v) = e^(lambda_k t) w_k(0, u + (v - u) e^(lambda_k t)).

For an affine K the lambda_k are K at the M+1 Gauss nodes and U[0, k]^2
their weights (Golub & Welsch, Math. Comp. 23, 1969).  No velocity grid
or time step enters, so wherever the density goes negative it is the
truncation in theta that makes it so: spectral projection loses
positivity, which is what the particle solver is validated against.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .gpc import Basis
from .models import UncertainScalar, _as_uncertain


class ExactSg:
    """The stochastic-Galerkin density of the homogeneous model under the
    strength K, from the deterministic initial law of two Gaussian bumps
    of variance ``sigma_v_sq`` at +-``centre``, the law that
    ``ensemble.sample_initial`` draws.  That law is symmetric, so the
    conserved mean velocity u is 0 and the initial temperature T0 is
    sigma_v_sq + centre^2."""

    u = 0.0

    def __init__(self, K: UncertainScalar | float | str, basis: Basis, sigma_v_sq: float, centre: float):
        K = _as_uncertain(K)
        if K.min_on(basis.quad_nodes) <= 0.0:
            raise ConfigurationError(f"K = {K} must be positive at every quadrature node")
        self.sigma_v_sq, self.centre = sigma_v_sq, centre
        self.t0 = sigma_v_sq + centre**2
        self.root_norms = np.sqrt(basis.sq_norms)
        coupling = basis.coupling_matrix(K.c0 if K.is_constant else K(basis.quad_nodes))
        self.rates, self.vectors = np.linalg.eigh(coupling * self.root_norms[:, None] / self.root_norms)

    def initial_density(self, v) -> np.ndarray:
        """The initial law's density at the velocities v."""
        bumps = np.exp(-((v - self.centre) ** 2) / (2 * self.sigma_v_sq))
        bumps += np.exp(-((v + self.centre) ** 2) / (2 * self.sigma_v_sq))
        return bumps / (2 * np.sqrt(2 * np.pi * self.sigma_v_sq))

    def coefficients(self, v, t: float) -> np.ndarray:
        """Chaos coefficients c[h, j] of the density at the velocities v[j]
        and time t: D^(-1/2) U diag(U[0]) of the eigenmodes carried from f0."""
        v = np.asarray(v, dtype=float)
        growth = np.exp(self.rates * t)[:, None]
        modes = growth * self.initial_density(self.u + (v - self.u) * growth)
        return (self.vectors * self.vectors[0]) @ modes / self.root_norms[:, None]

    def temperature(self, t: float) -> float:
        """Expectation over theta of the velocity variance around u:
        T0 sum_k U[0, k]^2 e^(-2 lambda_k t)."""
        return float(self.t0 * (self.vectors[0] ** 2 @ np.exp(-2.0 * self.rates * t)))
