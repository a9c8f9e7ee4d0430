"""Time integrator for the particle system with per-agent chaos expansions.

Each step draws, per particle, a subsample of S interaction partners
(uniform, without repetition, self allowed); the pairwise kernels are
evaluated at the quadrature nodes of the random input, combined with the
reconstructed states there, and projected back onto the basis.  The
subsample is frozen across the stages of one Runge-Kutta step so that
every step integrates a consistent ODE.

Cost per step is O(N * S * n_modes * n_nodes): positions and velocities
are reconstructed at the nodes once per stage and reused for every pair.
Two exact shortcuts avoid wasted work: a position-independent alignment
kernel (decay exponent identically zero) reduces to a constant modal
interaction matrix, and a fully deterministic model acting on a
deterministic state updates mode 0 only, keeping higher modes at exact
zero.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .ensemble import GpcEnsemble, InitialCondition, sample_initial
from .errors import ConfigurationError, IntegrationBlowupError
from .gpc import Basis, PolynomialFamily, build_basis
from .models import (
    CuckerSmaleParams,
    MorseSwarmParams,
    alignment_kernel,
    morse_radial_slope,
)
from .timegrid import time_steps

# Element budget for pairwise intermediates; keeps peak memory bounded.
_CHUNK_BUDGET = 1 << 22


@dataclass(frozen=True)
class ModelSpec:
    """Which forces act, with their parameters and the uncertainty basis.

    With a basis over two random inputs the alignment parameters depend
    on the first input only and the Morse strengths on the last only.
    """

    basis: Basis
    alignment: CuckerSmaleParams | None = None
    morse: MorseSwarmParams | None = None

    def __post_init__(self):
        if self.alignment is None and self.morse is None:
            raise ConfigurationError("at least one force (alignment or morse) must be enabled")
        if self.alignment is not None:
            self.alignment.validate_at(self.alignment_nodes)

    @property
    def alignment_nodes(self) -> np.ndarray:
        """Quadrature values of the random input driving the alignment kernel."""
        return self.basis.nodes[0]

    @property
    def morse_nodes(self) -> np.ndarray:
        """Quadrature values of the random input driving the Morse strengths."""
        return self.basis.nodes[-1]

    @property
    def is_deterministic(self) -> bool:
        det = True
        if self.alignment is not None:
            det &= self.alignment.K.is_constant and self.alignment.gamma.is_constant
        if self.morse is not None:
            det &= self.morse.C_A.is_constant and self.morse.C_R.is_constant
        return det


@dataclass(frozen=True)
class SolverConfig:
    n_particles: int
    dt: float
    t_end: float
    subsample_size: int
    seed: int
    model: ModelSpec
    integrator: str = "rk4"  # "rk4" | "euler"

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigurationError(f"need at least one particle, got {self.n_particles}")
        if not 1 <= self.subsample_size <= self.n_particles:
            raise ConfigurationError(
                f"subsample size must lie in [1, N={self.n_particles}], got {self.subsample_size}"
            )
        if self.t_end < 0:
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}")
        if self.dt < 0 or (self.dt == 0 and self.t_end > 0):
            raise ConfigurationError(f"dt must be positive for t_end > 0, got dt={self.dt}")
        if self.integrator not in ("rk4", "euler"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")


class _Context:
    """Per-model precomputation shared by all stages of all steps."""

    def __init__(self, model: ModelSpec):
        self.model = model
        basis = model.basis
        self.table = basis.basis_table          # (m, Q)
        self.proj = basis.projection_matrix()   # (Q, m)
        align = model.alignment
        self.homogeneous = align is not None and align.gamma.is_constant and align.gamma.c0 == 0.0
        if align is not None:
            self.k_nodes = np.atleast_1d(align.K(model.alignment_nodes))
            self.g_nodes = np.atleast_1d(align.gamma(model.alignment_nodes))
        if self.homogeneous:
            self.e_const = basis.coupling_matrix(align.K.c0 if align.K.is_constant else self.k_nodes)
        if model.morse is not None:
            self.ca_nodes = np.atleast_1d(model.morse.C_A(model.morse_nodes))
            self.cr_nodes = np.atleast_1d(model.morse.C_R(model.morse_nodes))


def draw_subsamples(rng: np.random.Generator, n: int, s: int) -> np.ndarray | None:
    """Per-particle subsamples: (n, s) distinct indices each, uniform over
    subsets, self allowed.  Returns None when s == n (the full set)."""
    if s == n:
        return None
    if s * (s - 1) <= n // 4:
        # Collision-light regime: redraw the few rows with duplicates.
        idx = rng.integers(0, n, size=(n, s))
        while True:
            bad = (np.diff(np.sort(idx, axis=1), axis=1) == 0).any(axis=1)
            if not bad.any():
                return idx
            idx[bad] = rng.integers(0, n, size=(int(bad.sum()), s))
    # Dense regime: partial Fisher-Yates over row chunks sized to stay
    # cache-resident (large chunks thrash on the scattered column swaps).
    out = np.empty((n, s), dtype=np.int64)
    chunk = max(1, (1 << 21) // n)
    base = np.arange(n, dtype=np.int64)
    offsets = np.arange(s)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        c = hi - lo
        perm = np.tile(base, (c, 1))
        rows = np.arange(c)
        targets = offsets + (rng.random((c, s)) * (n - offsets)).astype(np.int64)
        for t in range(s):
            j = targets[:, t]
            tmp = perm[:, t].copy()
            perm[:, t] = perm[rows, j]
            perm[rows, j] = tmp
        out[lo:hi] = perm[:, :s]
    return out


def _subsample_mean_matrix(sub: np.ndarray, n: int) -> sparse.csr_matrix:
    rows, s = sub.shape
    indptr = np.arange(0, rows * s + 1, s)
    data = np.full(rows * s, 1.0 / s)
    return sparse.csr_matrix((data, sub.ravel(), indptr), shape=(rows, n))


def _forces_for_rows(rows, x_nodes, v_nodes, sub, ctx) -> np.ndarray:
    """Modal velocity rate for the given particle rows, excluding the
    factorized homogeneous-alignment shortcut (handled by the caller).

    ``sub`` is the (N, S) partner table, or None for all-to-all.
    """
    model = ctx.model
    n = x_nodes.shape[0]
    xi = x_nodes[rows][:, None]                       # (R, 1, d, Q)
    vi = v_nodes[rows][:, None]
    if sub is None:
        xj = x_nodes[None, :]                         # (1, N, d, Q)
        vj = v_nodes[None, :]
        denom = n
    else:
        xj = x_nodes[sub[rows]]                       # (R, S, d, Q)
        vj = v_nodes[sub[rows]]
        denom = sub.shape[1]
    diff = xi - xj
    r_sq = np.einsum("rsdq,rsdq->rsq", diff, diff)    # (R, S|N, Q)
    rate_nodes = 0.0
    if model.alignment is not None and not ctx.homogeneous:
        h = alignment_kernel(ctx.k_nodes, ctx.g_nodes, r_sq)
        rate_nodes = np.einsum("rsq,rsdq->rdq", h, vj - vi) / denom
    if model.morse is not None:
        morse = model.morse
        r = np.sqrt(r_sq)
        slope = morse_radial_slope(ctx.ca_nodes, ctx.cr_nodes, morse.ell_A, morse.ell_R, r)
        # self pairs (and coincident particles) have r == 0 exactly and
        # contribute no force, matching the pair sum that skips j == i
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(r > 0.0, -slope / r, 0.0)
        rate_nodes = rate_nodes + np.einsum("rsq,rsdq->rdq", coef, diff) / denom
        speed_sq = np.einsum("rdq,rdq->rq", v_nodes[rows], v_nodes[rows])
        rate_nodes = rate_nodes + (morse.a - morse.b * speed_sq[:, None, :]) * v_nodes[rows]
    return rate_nodes @ ctx.proj


def _velocity_rate_full(x_hat, v_hat, sub, sub_mean, ctx) -> np.ndarray:
    """Modal velocity rate for every particle."""
    n, d, m = v_hat.shape
    dv = np.zeros_like(v_hat)
    if ctx.model.alignment is not None and ctx.homogeneous:
        if sub_mean is None:
            target = v_hat.mean(axis=0)[None, :, :]
        else:
            target = (sub_mean @ v_hat.reshape(n, d * m)).reshape(n, d, m)
        dv += (target - v_hat) @ ctx.e_const.T
        if ctx.model.morse is None:
            return dv
    q = ctx.table.shape[1]
    x_nodes = x_hat @ ctx.table
    v_nodes = v_hat @ ctx.table
    per_row = (n if sub is None else sub.shape[1]) * d * q
    chunk = max(1, _CHUNK_BUDGET // max(per_row, 1))
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(n, lo + chunk))
        dv[rows] += _forces_for_rows(rows, x_nodes, v_nodes, sub, ctx)
    return dv


def step(ens: GpcEnsemble, cfg: SolverConfig, rng: np.random.Generator, dt: float | None = None) -> GpcEnsemble:
    """Advance one time step; the per-particle subsamples are drawn once
    and frozen across stages."""
    dt = cfg.dt if dt is None else dt
    model = cfg.model
    x0, v0 = ens.x_hat, ens.v_hat
    deterministic = model.is_deterministic and not (x0[:, :, 1:].any() or v0[:, :, 1:].any())
    if deterministic:
        # A theta-independent model acting on a theta-independent state
        # moves mode 0 only: integrate it on the one-node order-0 rule and
        # keep the higher modes at exact zero.
        model = replace(model, basis=build_basis(PolynomialFamily.LEGENDRE, 0, 1))
        x0, v0 = x0[:, :, :1], v0[:, :, :1]
    ctx = _Context(model)
    n = ens.n_particles
    sub = draw_subsamples(rng, n, cfg.subsample_size)
    sub_mean = None if sub is None or not ctx.homogeneous else _subsample_mean_matrix(sub, n)

    def rhs(x_hat, v_hat):
        return v_hat, _velocity_rate_full(x_hat, v_hat, sub, sub_mean, ctx)

    # overflow in a diverging run is reported via the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.integrator == "euler":
            kx, kv = rhs(x0, v0)
            x_new = x0 + dt * kx
            v_new = v0 + dt * kv
        else:
            kx1, kv1 = rhs(x0, v0)
            kx2, kv2 = rhs(x0 + 0.5 * dt * kx1, v0 + 0.5 * dt * kv1)
            kx3, kv3 = rhs(x0 + 0.5 * dt * kx2, v0 + 0.5 * dt * kv2)
            kx4, kv4 = rhs(x0 + dt * kx3, v0 + dt * kv3)
            x_new = x0 + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
            v_new = v0 + (dt / 6.0) * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
    if deterministic:
        pad = ((0, 0), (0, 0), (0, ens.n_modes - 1))
        x_new, v_new = np.pad(x_new, pad), np.pad(v_new, pad)
    out = GpcEnsemble(x_new, v_new, time=ens.time + dt)
    if not out.is_finite():
        bad = np.flatnonzero(
            ~(np.isfinite(x_new).all(axis=(1, 2)) & np.isfinite(v_new).all(axis=(1, 2)))
        )
        raise IntegrationBlowupError(
            f"non-finite state for particle(s) {bad[:5].tolist()} at t={out.time:g}; "
            f"try a smaller dt than {dt:g}"
        )
    return out


def _step_rng(seed: int, step_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, step_index)))


def run(
    ic: InitialCondition,
    cfg: SolverConfig,
    observers=(),
    observer_stride: int = 1,
) -> tuple[list, GpcEnsemble]:
    """Sample the initial ensemble and integrate to t_end.

    Observers are callables of the ensemble; they fire on the initial
    state, every ``observer_stride`` steps, and on the final state.
    Returns the list of (time, [observer outputs]) records and the final
    ensemble.  Each step uses an RNG stream derived from (seed, step
    index), so trajectories are reproducible and independent of how work
    is scheduled.
    """
    if observer_stride < 1:
        raise ConfigurationError(f"observer stride must be >= 1, got {observer_stride}")
    ens = sample_initial(ic, cfg.n_particles, cfg.seed, cfg.model.basis.n_modes)
    records = []

    def observe(e):
        records.append((e.time, [obs(e) for obs in observers]))

    observe(ens)
    dts = time_steps(cfg.t_end, cfg.dt)
    for k, dt in enumerate(dts):
        ens = step(ens, cfg, _step_rng(cfg.seed, k), dt=dt)
        if (k + 1) % observer_stride == 0 or k + 1 == len(dts):
            observe(ens)
    return records, ens
