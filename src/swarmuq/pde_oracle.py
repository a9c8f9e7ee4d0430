"""Reference finite-difference solver for the space-homogeneous model.

The one-dimensional velocity density relaxes toward a point mass at the
conserved mean velocity u under the drift K(theta) (v - u).  Its chaos
coefficients satisfy a coupled linear system obtained by projecting the
equation onto the basis; this module integrates that system with central
differences in v and classical RK4 in time.  The discrete flux is
arranged so the mode-0 mass is conserved to roundoff, but pointwise
nonnegativity of the coefficients is *not* guaranteed: spectral
projection loses positivity, which is exactly what the particle solver
is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SchemeFailureError
from .gpc import Basis
from .models import UncertainScalar, _as_uncertain
from .timegrid import march, rk4


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform grid on [v_min, v_max] with n_points nodes."""

    v_min: float
    v_max: float
    n_points: int

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ConfigurationError(f"need v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if self.n_points < 3:
            raise ConfigurationError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def dv(self) -> float:
        return (self.v_max - self.v_min) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.n_points)


@dataclass
class SgDensity:
    """Chaos coefficients of the velocity density on a grid.

    coeffs[h, j] is the h-th mode at grid node j; u is the conserved mean
    velocity entering the drift.
    """

    grid: VelocityGrid
    coeffs: np.ndarray
    time: float
    u: float


def bimodal_density(grid: VelocityGrid, sigma_v_sq: float = 0.1, mu: float = 0.25) -> np.ndarray:
    """Symmetric two-bump profile on the grid, normalized to unit discrete mass."""
    v = grid.nodes
    f = np.exp(-((v - mu) ** 2) / (2 * sigma_v_sq)) + np.exp(-((v + mu) ** 2) / (2 * sigma_v_sq))
    return f / (f.sum() * grid.dv)


def sg_homogeneous_solve(
    f0: np.ndarray,
    K: UncertainScalar | float | str,
    basis: Basis,
    grid: VelocityGrid,
    dt: float | None = None,
    t_end: float = 1.0,
    observers=(),
    observer_stride: int = 1,
) -> SgDensity:
    """Integrate the projected homogeneous equation to t_end.

    f0 must be nonnegative with unit discrete mass.  dt defaults to dv^2
    and must not exceed it.  Observers are callables of the current
    SgDensity, fired on the initial state, every ``observer_stride``
    steps, and at t_end.  The mode-0 mass and the finiteness of the
    coefficients are checked every 200 steps and on the returned state.
    """
    K = _as_uncertain(K)
    f0 = np.asarray(f0, dtype=float)
    dv = grid.dv
    if f0.shape != (grid.n_points,):
        raise ConfigurationError(f"f0 must have {grid.n_points} values, got shape {f0.shape}")
    if (f0 < 0).any():
        raise ConfigurationError("initial density must be nonnegative")
    if not abs(f0.sum() * dv - 1.0) <= 1e-8:   # a NaN fails too
        raise ConfigurationError(f"initial density mass is {f0.sum() * dv!r}, expected 1")
    if dt is None:
        dt = dv * dv
    if dt > dv * dv * (1.0 + 1e-12):
        raise ConfigurationError(f"dt={dt:g} violates the stability relation dt <= dv^2 = {dv * dv:g}")
    if K.min_on(basis.quad_nodes) <= 0.0:
        raise ConfigurationError(f"K = {K} must be positive at every quadrature node")

    v = grid.nodes
    coeffs = np.zeros((basis.n_modes, grid.n_points))
    coeffs[0] = f0
    u = float((v * f0).sum() * dv)
    # mode-coupling matrix of K(theta); exactly diagonal for constant K
    kernel = basis.coupling_matrix(K.c0 if K.is_constant else np.atleast_1d(K(basis.quad_nodes)))
    drift = v - u

    def rhs(c: np.ndarray) -> np.ndarray:
        flux = (kernel @ c) * drift
        out = np.empty_like(c)
        out[:, 1:-1] = (flux[:, 2:] - flux[:, :-2]) / (2 * dv)
        # Boundary rows chosen so the total discrete mass change telescopes
        # to zero exactly; they vanish anyway on a wide enough domain.
        out[:, 0] = (flux[:, 1] + flux[:, 0]) / (2 * dv)
        out[:, -1] = -(flux[:, -1] + flux[:, -2]) / (2 * dv)
        return (out,)

    def check(sol):
        drift_err = abs(sol.coeffs[0].sum() * dv - 1.0)
        if drift_err > 1e-6:
            raise SchemeFailureError(f"mode-0 mass drifted by {drift_err:.3e} at t={sol.time:g}")
        if not np.isfinite(sol.coeffs).all():
            raise SchemeFailureError(f"non-finite coefficients at t={sol.time:g}")

    def advance(sol, k, h):
        (sol.coeffs,) = rk4(rhs, (sol.coeffs,), h)
        sol.time += h
        if (k + 1) % 200 == 0:
            check(sol)
        return sol

    def observe(sol):
        for obs in observers:
            obs(SgDensity(grid=grid, coeffs=sol.coeffs.copy(), time=sol.time, u=sol.u))

    sol = march(SgDensity(grid=grid, coeffs=coeffs, time=0.0, u=u), advance, t_end, dt, observe,
                observer_stride)
    check(sol)
    return sol


def oracle_expected_temperature(sol: SgDensity, basis: Basis) -> float:
    """Expectation over theta of the velocity variance around u.

    Reconstructs the density at each quadrature node and integrates
    (v - u)^2 against it on the grid.
    """
    v = sol.grid.nodes
    f_nodes = basis.basis_table.T @ sol.coeffs          # (Q, n_points)
    t_nodes = ((v - sol.u) ** 2 * f_nodes).sum(axis=1) * sol.grid.dv
    return float(basis.quad_weights @ t_nodes)
