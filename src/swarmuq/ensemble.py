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

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

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


class InitialCondition:
    """An initial law in (x, v), deterministic in theta.

    Each kind is a frozen dataclass subclass whose fields are its
    ``[initial]`` keys, with their defaults.  It checks them when it is
    built, sets the class-level dimension ``dim``, and draws a sample in
    ``sample(rng, x, v)``, which fills the (N, dim) positions x and
    velocities v.  ``InitialCondition.<kind>`` is the class of a kind, and
    ``InitialCondition.kinds`` maps each kind's name to its class.
    """

    kinds: ClassVar[dict] = {}

    def __init_subclass__(cls, kind: str):
        InitialCondition.kinds[kind] = cls
        setattr(InitialCondition, kind, cls)


def _check(name: str, value: float, low: float = -math.inf) -> None:
    """Raise ConfigurationError unless value is a real number, not a bool,
    with low < value < inf (NaN fails)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not low < value < math.inf:
        raise ConfigurationError(f"need {low} < {name} < inf, got {value}")


def _bimodal(rng: np.random.Generator, n: int, centre: float, sigma_sq: float) -> np.ndarray:
    """n draws from the symmetric two-bump law +-centre + N(0, sigma_sq)."""
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return signs * centre + rng.normal(0.0, np.sqrt(sigma_sq), n)


@dataclass(frozen=True)
class BimodalVelocity1D(InitialCondition, kind="bimodal_velocity_1d"):
    """Symmetric two-bump velocity profile, optional Gaussian in position.

    Without ``sigma_x_sq`` all particles start at the origin (the
    spatially homogeneous setting, where positions are irrelevant).
    """

    sigma_v_sq: float = 0.1
    mu: float = 0.25
    sigma_x_sq: float | None = None
    dim: ClassVar[int] = 1

    def __post_init__(self):
        _check("sigma_v_sq", self.sigma_v_sq, 0.0)
        _check("mu", self.mu)
        if self.sigma_x_sq is not None:
            _check("sigma_x_sq", self.sigma_x_sq, 0.0)

    def sample(self, rng, x, v):
        n = len(x)
        v[:, 0] = _bimodal(rng, n, self.mu, self.sigma_v_sq)
        if self.sigma_x_sq is not None:
            x[:, 0] = rng.normal(0.0, np.sqrt(self.sigma_x_sq), n)


@dataclass(frozen=True)
class BivariateBimodal1D(InitialCondition, kind="bivariate_bimodal_1d"):
    """Gaussian in position times a symmetric two-bump (+-vbar) velocity profile."""

    vbar: float = 1.0
    sigma_x_sq: float = 0.5
    sigma_v_sq: float = 0.2
    dim: ClassVar[int] = 1

    def __post_init__(self):
        _check("vbar", self.vbar)
        _check("sigma_x_sq", self.sigma_x_sq, 0.0)
        _check("sigma_v_sq", self.sigma_v_sq, 0.0)

    def sample(self, rng, x, v):
        n = len(x)
        x[:, 0] = rng.normal(0.0, np.sqrt(self.sigma_x_sq), n)
        v[:, 0] = _bimodal(rng, n, self.vbar, self.sigma_v_sq)


@dataclass(frozen=True)
class AnnulusRotating2D(InitialCondition, kind="annulus_rotating_2d"):
    """Uniform on the annulus r_inner <= |x| <= r_outer, unit tangential speed."""

    r_inner: float = 0.5
    r_outer: float = 1.0
    counterclockwise: bool = True
    dim: ClassVar[int] = 2

    def __post_init__(self):
        _check("r_inner", self.r_inner, 0.0)
        _check("r_outer", self.r_outer, self.r_inner)
        if not isinstance(self.counterclockwise, bool):
            raise ConfigurationError(f"counterclockwise must be a bool, got {self.counterclockwise!r}")

    def sample(self, rng, x, v):
        n = len(x)
        # Area-uniform radius, uniform angle.
        r = np.sqrt(rng.uniform(self.r_inner ** 2, self.r_outer ** 2, n))
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        x[:, 0] = r * np.cos(phi)
        x[:, 1] = r * np.sin(phi)
        tangent = np.stack([-x[:, 1], x[:, 0]], axis=1) / r[:, None]
        v[:] = tangent if self.counterclockwise else -tangent


def sample_initial(ic: InitialCondition, n_particles: int, seed: int, modes: int) -> GpcEnsemble:
    """Draw mode-0 samples from the initial density; modes >= 1 are zero."""
    if n_particles < 1:
        raise ConfigurationError(f"need at least one particle, got {n_particles}")
    x_hat = np.zeros((n_particles, ic.dim, modes))
    v_hat = np.zeros((n_particles, ic.dim, modes))
    ic.sample(np.random.default_rng(seed), x_hat[:, :, 0], v_hat[:, :, 0])
    return GpcEnsemble(x_hat, v_hat, time=0.0)


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
_SNAPSHOT_BLOCK_ROWS = 1024  # rows formatted per write


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
    # Rows in C order of (i, dim, mode), each float by repr, which
    # round-trips float64.  They are formatted and written a block of
    # particles at a time: whole-file row lists would add about 20 MB
    # of Python strings to the run's peak memory at N = 10^4.
    tails = [f",{dd},{h}," for dd in range(d) for h in range(m)]
    block = max(1, _SNAPSHOT_BLOCK_ROWS // (d * m))
    with open(path, "w") as fh:
        fh.write(_SNAPSHOT_HEADER + "\n")
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            prefixes = [f"{i}{tail}" for i in range(lo, hi) for tail in tails]
            fh.write("".join([f"{prefix}{xv!r},{vv!r}\n" for prefix, xv, vv in
                              zip(prefixes, ens.x_hat[lo:hi].ravel().tolist(),
                                  ens.v_hat[lo:hi].ravel().tolist())]))
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
