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

Memory: ``run`` builds one ``_Context`` per run, and its workspace holds
every array of the node path, reused by all stages of all steps: the
(N, d, Q) node values of x and v, the (R, P, d, Q) partner gather and
pair differences, the (R, P, Q) squared distances, distances, kernel
values and masks, and the (R, d, Q) and (R, d, m) rates, for a row chunk
of R particles with P partners (S, or N without subsampling).  Still
allocated per step are the subsample table and, for the homogeneous
shortcut, its sparse mean matrix; per stage, the (N, d, m) stage state
and modal rate, and the deterministic shortcut's order-0 slices.
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
    """Per-model precomputation and node-path workspace, shared by all
    stages of all steps of one run."""

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
        self._order0 = None
        self._workspace = None

    @property
    def order0(self) -> "_Context":
        """The same model on the one-node order-0 rule, for the
        deterministic shortcut; built on first use."""
        if self._order0 is None:
            self._order0 = _Context(replace(self.model, basis=build_basis(PolynomialFamily.LEGENDRE, 0, 1)))
        return self._order0

    def workspace(self, n: int, partners: int, d: int) -> "_Workspace":
        """Buffers for N particles with ``partners`` partners each in d
        dimensions; rebuilt only when that shape changes."""
        if self._workspace is None or self._workspace.shape != (n, partners, d):
            self._workspace = _Workspace(n, partners, d, *self.table.shape)
        return self._workspace


class _Workspace:
    """Every array the node path writes, sized for the largest row chunk
    (R rows of P partners): nothing is allocated per stage.  Unused
    buffers cost no resident memory, since pages are mapped on first
    write."""

    def __init__(self, n: int, partners: int, d: int, m: int, q: int):
        self.shape = (n, partners, d)
        self.rows = min(n, max(1, _CHUNK_BUDGET // max(partners * d * q, 1)))
        rows = self.rows
        self.x_nodes = np.empty((n, d, q))              # x_hat @ table
        self.v_nodes = np.empty((n, d, q))
        self.pairs = np.empty((rows, partners, d, q))   # partner gather, then v_j - v_i
        self.diff = np.empty((rows, partners, d, q))    # x_i - x_j
        self.r_sq = np.empty((rows, partners, q))       # also the Morse repulsion term
        self.r = np.empty((rows, partners, q))
        self.kernel = np.empty((rows, partners, q))     # alignment h, then the Morse coefficient
        self.mask = np.empty((rows, partners, q), dtype=bool)  # not r > 0
        self.rate = np.empty((rows, d, q))
        self.term = np.empty((rows, d, q))
        self.speed_sq = np.empty((rows, q))
        self.modal = np.empty((rows, d, m))


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


def _forces_for_rows(lo, hi, x_nodes, v_nodes, sub, ctx, ws) -> np.ndarray:
    """Modal velocity rate of particle rows lo:hi, excluding the
    factorized homogeneous-alignment shortcut (handled by the caller).

    ``sub`` is the (N, S) partner table, or None for all-to-all.  Every
    intermediate is written into the workspace ``ws``, and the result is
    a view of it, valid until the next call.
    """
    model = ctx.model
    rows = hi - lo
    xi = x_nodes[lo:hi, None]                         # (R, 1, d, Q)
    vi = v_nodes[lo:hi, None]
    pairs, diff, rate = ws.pairs[:rows], ws.diff[:rows], ws.rate[:rows]
    if sub is None:
        xj, denom = x_nodes[None], x_nodes.shape[0]   # (1, N, d, Q)
    else:
        # indices come from draw_subsamples; "clip" avoids the buffered copy of "raise"
        xj = np.take(x_nodes, sub[lo:hi], axis=0, out=pairs, mode="clip")  # (R, S, d, Q)
        denom = sub.shape[1]
    np.subtract(xi, xj, out=diff)
    r_sq = np.einsum("rsdq,rsdq->rsq", diff, diff, out=ws.r_sq[:rows])  # (R, S|N, Q)
    aligning = model.alignment is not None and not ctx.homogeneous
    if aligning:
        if sub is None:
            np.subtract(v_nodes[None], vi, out=pairs)
        else:
            np.subtract(np.take(v_nodes, sub[lo:hi], axis=0, out=pairs, mode="clip"), vi, out=pairs)
        h = alignment_kernel(ctx.k_nodes, ctx.g_nodes, r_sq, out=ws.kernel[:rows])
        np.divide(np.einsum("rsq,rsdq->rdq", h, pairs, out=rate), denom, out=rate)
    if model.morse is not None:
        morse = model.morse
        dist = np.sqrt(r_sq, out=ws.r[:rows])
        slope = morse_radial_slope(ctx.ca_nodes, ctx.cr_nodes, morse.ell_A, morse.ell_R, dist,
                                   out=ws.kernel[:rows], work=r_sq)
        # self pairs (and coincident particles) have r == 0 exactly and
        # contribute no force, matching the pair sum that skips j == i;
        # a NaN distance also gives zero, as np.where(r > 0, ...) does
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.divide(np.negative(slope, out=slope), dist, out=slope)
        mask = ws.mask[:rows]
        np.copyto(coef, 0.0, where=np.logical_not(np.greater(dist, 0.0, out=mask), out=mask))
        force = ws.term[:rows] if aligning else rate
        np.divide(np.einsum("rsq,rsdq->rdq", coef, diff, out=force), denom, out=force)
        if aligning:
            np.add(rate, force, out=rate)
        vr = v_nodes[lo:hi]
        propulsion = np.einsum("rdq,rdq->rq", vr, vr, out=ws.speed_sq[:rows])
        propulsion = np.subtract(morse.a, np.multiply(morse.b, propulsion, out=propulsion), out=propulsion)
        np.add(rate, np.multiply(propulsion[:, None, :], vr, out=ws.term[:rows]), out=rate)
    return np.matmul(rate, ctx.proj, out=ws.modal[:rows])


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
    ws = ctx.workspace(n, n if sub is None else sub.shape[1], d)
    x_nodes = np.matmul(x_hat, ctx.table, out=ws.x_nodes)
    v_nodes = np.matmul(v_hat, ctx.table, out=ws.v_nodes)
    for lo in range(0, n, ws.rows):
        hi = min(n, lo + ws.rows)
        dv[lo:hi] += _forces_for_rows(lo, hi, x_nodes, v_nodes, sub, ctx, ws)
    return dv


def step(ens: GpcEnsemble, cfg: SolverConfig, rng: np.random.Generator, dt: float | None = None,
         ctx: _Context | None = None) -> GpcEnsemble:
    """Advance one time step; the per-particle subsamples are drawn once
    and frozen across stages.  ``ctx`` is the run's context of
    ``cfg.model``, reused across steps; without it one is built here."""
    dt = cfg.dt if dt is None else dt
    if ctx is None or ctx.model is not cfg.model:
        ctx = _Context(cfg.model)
    x0, v0 = ens.x_hat, ens.v_hat
    deterministic = cfg.model.is_deterministic and not (x0[:, :, 1:].any() or v0[:, :, 1:].any())
    if deterministic:
        # A theta-independent model acting on a theta-independent state
        # moves mode 0 only: integrate it on the one-node order-0 rule and
        # keep the higher modes at exact zero.
        ctx = ctx.order0
        x0, v0 = x0[:, :, :1], v0[:, :, :1]
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
    ctx = _Context(cfg.model)
    dts = time_steps(cfg.t_end, cfg.dt)
    for k, dt in enumerate(dts):
        ens = step(ens, cfg, _step_rng(cfg.seed, k), dt=dt, ctx=ctx)
        if (k + 1) % observer_stride == 0 or k + 1 == len(dts):
            observe(ens)
    return records, ens
