"""Particle state with per-agent chaos expansions, and initial samplers.

Each of the N agents stores, per spatial component, the coefficient
vector of its position and velocity expansion in the random input.  All
supported initial conditions are deterministic (independent of theta),
so freshly sampled ensembles carry data in mode 0 only; the dynamics
populate the higher modes.

Sampling uses numpy's default PCG64 generator seeded explicitly, which
makes runs reproducible across platforms for a fixed numpy major line.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError


@dataclass
class GpcEnsemble:
    """N particles; coefficient tensors have shape (N, d, n_modes).

    The mode axis is innermost so that evaluating all particles at the
    quadrature nodes is a single matmul against the basis table.
    """

    x_hat: np.ndarray
    v_hat: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.x_hat = np.asarray(self.x_hat, dtype=float)
        self.v_hat = np.asarray(self.v_hat, dtype=float)
        if self.x_hat.shape != self.v_hat.shape or self.x_hat.ndim != 3:
            raise DimensionMismatchError(
                f"x_hat and v_hat must share shape (N, d, modes), got {self.x_hat.shape} and {self.v_hat.shape}"
            )

    @property
    def n_particles(self) -> int:
        return self.x_hat.shape[0]

    @property
    def dim(self) -> int:
        return self.x_hat.shape[1]

    @property
    def n_modes(self) -> int:
        return self.x_hat.shape[2]

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.x_hat).all() and np.isfinite(self.v_hat).all())

    def copy(self) -> "GpcEnsemble":
        return GpcEnsemble(self.x_hat.copy(), self.v_hat.copy(), self.time)


class ICKind(enum.Enum):
    BIMODAL_VELOCITY_1D = "bimodal_velocity_1d"
    BIVARIATE_BIMODAL_1D = "bivariate_bimodal_1d"
    ANNULUS_ROTATING_2D = "annulus_rotating_2d"


@dataclass(frozen=True)
class InitialCondition:
    """Named initial phase-space density plus its parameters."""

    kind: ICKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p = self.params
        if self.kind is ICKind.BIMODAL_VELOCITY_1D:
            if p["sigma_v_sq"] <= 0:
                raise ConfigurationError("velocity variance must be positive")
            if p.get("sigma_x_sq") is not None and p["sigma_x_sq"] <= 0:
                raise ConfigurationError("position variance must be positive")
        elif self.kind is ICKind.BIVARIATE_BIMODAL_1D:
            if p["sigma_v_sq"] <= 0 or p["sigma_x_sq"] <= 0:
                raise ConfigurationError("variances must be positive")
        elif self.kind is ICKind.ANNULUS_ROTATING_2D:
            if not 0 < p["r_inner"] < p["r_outer"]:
                raise ConfigurationError("need 0 < r_inner < r_outer")

    @classmethod
    def bimodal_velocity_1d(cls, sigma_v_sq: float = 0.1, mu: float = 0.25,
                            sigma_x_sq: float | None = None) -> "InitialCondition":
        """Symmetric two-bump velocity profile, optional Gaussian in position.

        Without ``sigma_x_sq`` all particles start at the origin (the
        spatially homogeneous setting, where positions are irrelevant).
        """
        return cls(ICKind.BIMODAL_VELOCITY_1D,
                   {"sigma_v_sq": sigma_v_sq, "mu": mu, "sigma_x_sq": sigma_x_sq})

    @classmethod
    def bivariate_bimodal_1d(cls, vbar: float = 1.0, sigma_x_sq: float = 0.5,
                             sigma_v_sq: float = 0.2) -> "InitialCondition":
        """Gaussian in position times a symmetric two-bump (+-vbar) velocity profile."""
        return cls(ICKind.BIVARIATE_BIMODAL_1D,
                   {"vbar": vbar, "sigma_x_sq": sigma_x_sq, "sigma_v_sq": sigma_v_sq})

    @classmethod
    def annulus_rotating_2d(cls, r_inner: float = 0.5, r_outer: float = 1.0,
                            counterclockwise: bool = True) -> "InitialCondition":
        """Uniform on the annulus r_inner <= |x| <= r_outer, unit tangential speed."""
        return cls(ICKind.ANNULUS_ROTATING_2D,
                   {"r_inner": r_inner, "r_outer": r_outer, "counterclockwise": counterclockwise})

    @property
    def dim(self) -> int:
        return 2 if self.kind is ICKind.ANNULUS_ROTATING_2D else 1


def sample_initial(ic: InitialCondition, n_particles: int, seed: int, modes: int) -> GpcEnsemble:
    """Draw mode-0 samples from the initial density; modes >= 1 are zero."""
    if n_particles < 1:
        raise ConfigurationError(f"need at least one particle, got {n_particles}")
    rng = np.random.default_rng(seed)
    d = ic.dim
    x = np.zeros((n_particles, d))
    v = np.zeros((n_particles, d))
    p = ic.params
    if ic.kind is ICKind.BIMODAL_VELOCITY_1D:
        signs = rng.integers(0, 2, size=n_particles) * 2 - 1
        v[:, 0] = signs * p["mu"] + rng.normal(0.0, np.sqrt(p["sigma_v_sq"]), n_particles)
        if p.get("sigma_x_sq") is not None:
            x[:, 0] = rng.normal(0.0, np.sqrt(p["sigma_x_sq"]), n_particles)
    elif ic.kind is ICKind.BIVARIATE_BIMODAL_1D:
        x[:, 0] = rng.normal(0.0, np.sqrt(p["sigma_x_sq"]), n_particles)
        signs = rng.integers(0, 2, size=n_particles) * 2 - 1
        v[:, 0] = signs * p["vbar"] + rng.normal(0.0, np.sqrt(p["sigma_v_sq"]), n_particles)
    elif ic.kind is ICKind.ANNULUS_ROTATING_2D:
        # Area-uniform radius, uniform angle.
        r = np.sqrt(rng.uniform(p["r_inner"] ** 2, p["r_outer"] ** 2, n_particles))
        phi = rng.uniform(0.0, 2.0 * np.pi, n_particles)
        x[:, 0] = r * np.cos(phi)
        x[:, 1] = r * np.sin(phi)
        tangent = np.stack([-x[:, 1], x[:, 0]], axis=1) / r[:, None]
        v[:] = tangent if p["counterclockwise"] else -tangent
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unknown initial condition {ic.kind}")
    x_hat = np.zeros((n_particles, d, modes))
    v_hat = np.zeros((n_particles, d, modes))
    x_hat[:, :, 0] = x
    v_hat[:, :, 0] = v
    return GpcEnsemble(x_hat, v_hat, time=0.0)


def evaluate_at_theta(ens: GpcEnsemble, i: int, theta, basis) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct particle i's position and velocity at a random-input value.

    ``theta`` is a scalar for a one-input basis or a (theta1, theta2) pair
    for a two-input basis.
    """
    if not 0 <= i < ens.n_particles:
        raise IndexError(f"particle index {i} out of range [0, {ens.n_particles})")
    values = basis.eval_basis(theta)
    return ens.x_hat[i] @ values, ens.v_hat[i] @ values


def evaluate_at_nodes(ens: GpcEnsemble, basis) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of all particles at all quadrature nodes.

    Returns two arrays of shape (N, d, n_nodes).
    """
    if ens.n_modes != basis.n_modes:
        raise DimensionMismatchError(
            f"ensemble has {ens.n_modes} modes but basis has {basis.n_modes}"
        )
    return ens.x_hat @ basis.basis_table, ens.v_hat @ basis.basis_table


_SNAPSHOT_HEADER = "i,dim,mode,x_hat,v_hat"


def _basis_meta(basis) -> dict:
    """Orders and families of the basis, one per random input, joined by '|'."""
    if basis is None:
        return {"M": "", "family": ""}
    return {"M": "|".join(map(str, basis.orders)),
            "family": "|".join(family.value for family in basis.families)}


def save_snapshot(ens: GpcEnsemble, path, basis=None, seed: int | None = None) -> None:
    """Dump the coefficient tensors as CSV plus a key=value metadata sidecar.

    One row per (particle, dimension, mode); the sidecar lives at
    ``<path>.meta.txt``.
    """
    path = Path(path)
    n, d, m = ens.x_hat.shape
    idx = np.indices((n, d, m)).reshape(3, -1)
    with open(path, "w") as fh:
        fh.write(_SNAPSHOT_HEADER + "\n")
        for (i, dd, h), xv, vv in zip(idx.T, ens.x_hat.ravel(), ens.v_hat.ravel()):
            fh.write(f"{i},{dd},{h},{float(xv)!r},{float(vv)!r}\n")
    meta = {"N": str(n), "d": str(d), **_basis_meta(basis),
            "time": repr(ens.time), "seed": "" if seed is None else str(seed)}
    with open(path.with_name(path.name + ".meta.txt"), "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def load_snapshot(path) -> tuple[GpcEnsemble, dict]:
    """Read back a snapshot written by :func:`save_snapshot`."""
    path = Path(path)
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(raw[:, 0].max()) + 1
    d = int(raw[:, 1].max()) + 1
    m = int(raw[:, 2].max()) + 1
    if raw.shape[0] != n * d * m:
        raise DimensionMismatchError(f"snapshot {path} has {raw.shape[0]} rows, expected {n * d * m}")
    x_hat = raw[:, 3].reshape(n, d, m)
    v_hat = raw[:, 4].reshape(n, d, m)
    meta: dict = {}
    meta_path = path.with_name(path.name + ".meta.txt")
    if meta_path.exists():
        for line in meta_path.read_text().splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                meta[key] = value
    time = float(meta.get("time", 0.0) or 0.0)
    return GpcEnsemble(x_hat, v_hat, time=time), meta
