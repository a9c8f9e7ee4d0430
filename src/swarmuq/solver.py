"""Time integrator for the particle system with per-agent chaos expansions.

Each step draws, per particle, a subsample of S interaction partners
(``draw_subsamples``: uniform, without repetition, self allowed); the
pairwise kernels are evaluated at the quadrature nodes of the random
input, combined with the reconstructed states there, and projected back
onto the basis.  The subsample is frozen across the stages of one
Runge-Kutta step so that every step integrates a consistent ODE.  The
stepping itself is ``timegrid``'s: ``step`` hands its rate to
``timegrid.rk4`` or ``timegrid.euler``, and ``run`` steps along
``timegrid.march``.

Cost per step is O(N * S * n_modes * n_nodes): positions and velocities
are reconstructed at the nodes once per stage and reused for every pair.
Two exact shortcuts avoid wasted work: a position-independent alignment
kernel (decay exponent identically zero) reduces to a constant modal
interaction matrix, and a fully deterministic model acting on a
deterministic state updates mode 0 only, keeping higher modes at exact
zero.

Memory: the workspace of a run's ``_Context`` holds every array of the
node path, reused by all stages of all steps.  Arrays with a dimension
axis are stored dimension-first, so the reconstruction and the
projection are one BLAS product per dimension and the distance and
contraction passes read contiguous (P, R, Q) slices of a chunk of R
rows with P partners each: partner-outer, so that the difference pass
broadcasts a particle's node values along the outer axis and runs
contiguous inner loops of R * Q elements, where a row-outer layout
runs loops of Q.  The projection runs once per stage, after the last
chunk, because BLAS rounds a row of a product differently with the
number of rows around it, and the result must not depend on the chunk
size.  The node rate has a node array of its own only where a force
of the node path reads partners' velocities, as alignment off the
homogeneous shortcut does; with Morse alone a chunk writes its rate over
its own rows of the node velocities, which no other chunk reads.  The
homogeneous shortcut's subsample mean keeps its own per-worker partner
buffers, cut by the same chunk rule, and its scaled modes and result in
the context too.  Still allocated per step are the subsample table, of
16-bit indices up to N = 65536 (see ``draw_subsamples``), and the stage
states and weighted sums of the rates that ``timegrid.rk4`` keeps, at
most 6 state-sized arrays at once; per stage, the modal rate.

Threads: with W workers (``run(..., threads=W)``) the step's subsample
draw and each phase of a stage (the homogeneous shortcut's subsample
mean, the reconstruction, the row chunks, the projection) are shared
out, worker k taking jobs k, k + W, ..., and each phase ends before the
next starts; numpy releases the interpreter lock inside every pass,
product, gather, reduction and bulk random draw.  The draw's jobs are
row blocks of a fixed size, each with its own random stream (see
``draw_subsamples``); the subsample mean's are row chunks.  A block's
partners do not depend on the worker that draws it, a row's mean
depends only on that row's partners in their stored order, a
per-dimension product is the same BLAS call that a stacked matmul over
the dimensions makes, and a row's rate does not depend on the chunk
that holds it, so results are bit-identical for every W.  The mean and
the products stay on the calling thread below ``_SHARED_PRODUCT_MIN``
multiply-adds.
Each worker has its own chunk buffers, whose partner buffer holds at
most ``_CHUNK_BUDGET`` elements.  A chunk has the rows of one of the
fewest equal pieces of a worker's share, ceil(N/W) rows, that fit that
buffer (see ``_Workspace``), so on the shipped presets every worker
takes as many chunks as the others for W = 1, 2 and 4.  The buffers of
W workers take up to W times the memory of one worker's, and those of
one worker are never larger than the largest chunk that fits.  While
any run goes, on any number of workers, numpy's bundled OpenBLAS is
held at one thread (``_BLAS_HOLD``): after a threaded product its idle
threads spin-wait, and on two cores a stage then ran at 0.8x the serial
speed.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ensemble import GpcEnsemble, InitialCondition, sample_initial
from .errors import ConfigurationError, IntegrationBlowupError
from .gpc import Basis, PolynomialFamily, build_basis
from .models import (
    CuckerSmaleParams,
    MorseSwarmParams,
    alignment_kernel,
    morse_radial_slope,
)
from .timegrid import check_grid, euler, march, rk4

# Elements of one worker's (d, P, R, Q) partner buffer: 1 MiB of float64,
# so that the buffer and the (P, R, Q) arrays of its row chunk fit
# together in one core's 2 MiB share of L2.  Every worker has a whole
# budget: with a W-th of it, 2 workers cut combined_2d_desk into chunks of
# 65 rows and ran a stage only 1.2-1.4x faster than one, their numpy calls
# too short to overlap.  A row larger than the budget is one chunk.
_CHUNK_BUDGET = 1 << 17

# Multiply-adds of one (N, m) @ (m, Q) product of the reconstruction or
# projection below which those products stay on the calling thread, and
# of the homogeneous subsample mean (N * S * d * m) below which all its
# row chunks stay there.  A pool thread starts a task 60-150 us after it is
# handed over, and one core does 2^19 multiply-adds in 40-100 us.  On 2
# workers of a 2-core Xeon, a stage of mill_2d_desk (10^5 per product,
# 20 us) took 4.32 ms with its products shared and 4.09 ms without; one
# of combined_2d_desk (2.5 * 10^6, 0.2 ms) took 14.8 and 15.9 ms.
_SHARED_PRODUCT_MIN = 1 << 19

# Entries of one row block of the subsample table (see draw_subsamples),
# whatever the worker count.  The draw is RNG-bound: on a 2-core Xeon,
# blocks of 2^17 drew N = 10^4, S = 100 in 6.4-6.9 ms on 2 workers
# against 8.8 ms as one table.  Blocks of 2^18 ran homogeneous_dense
# 3.5% faster, within the spread of 4 pairs of runs, and raised its peak
# memory by 1.1 MB.
_DRAW_BLOCK = 1 << 17


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
        check_grid(self.t_end, self.dt)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.integrator not in ("rk4", "euler"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")


def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheel, or None where numpy has no such library.  Looked up
    on first use, not at import."""
    import ctypes

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get_threads is not None and set_threads is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    return get_threads, set_threads
    return None


class _BlasHold:
    """A context that holds OpenBLAS at one thread while any holder is
    inside it.  The thread count is a setting of the whole process, so
    there is one hold (``_BLAS_HOLD``): the first holder in saves the
    count and sets it to one, and the last one out restores it, so runs
    on concurrent threads never give the count back while another run
    still holds it.  Idle OpenBLAS threads spin-wait after a threaded
    product: on 2 cores, two one-worker runs of combined_2d_desk (30
    steps) side by side took 4.0-4.9 s with the default count and
    1.8-1.9 s at one thread, and one such run alone used twice its wall
    time in CPU time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                blas = _openblas()
                if blas is not None:
                    get_threads, set_threads = blas
                    threads = get_threads()
                    set_threads(1)
                    self._restore = lambda: set_threads(threads)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_BLAS_HOLD = _BlasHold()


class _Workers:
    """The worker threads of one run: the calling thread is worker 0, and
    a pool holds the other ``count - 1``.  The pool starts when a step
    first shares work among more than one worker (the subsample draw's
    row blocks, row chunks, the per-dimension products or the subsample
    mean's row chunks) and ends at ``close``."""

    def __init__(self, count: int):
        self.count = count
        self._pool = None

    def map(self, fn, tasks: int) -> None:
        """fn(k) for k in range(tasks), tasks <= count: fn(0) on the
        calling thread, the others on the pool.  Returns when every call
        has, and raises the first exception in task order, only after
        every call has ended."""
        if tasks == 1:
            fn(0)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.count - 1, thread_name_prefix="swarmuq-rows")
        futures = [self._pool.submit(fn, k) for k in range(1, tasks)]
        try:
            fn(0)
        finally:
            # a raise in fn(0) leaves this block only when the pool's
            # calls, which may still write the workspace, have ended
            wait(futures)
        for future in futures:
            future.result()

    def share(self, jobs: int, job, tasks: int | None = None) -> None:
        """job(i, k) for i < jobs, worker k of ``tasks`` (at most all of
        them) taking i = k, k + tasks, ..., under the calling thread's
        numpy error state, which numpy keeps per thread."""
        errors = np.geterr()
        tasks = min(self.count if tasks is None else tasks, jobs)

        def worker(k):
            with np.errstate(**errors):
                for i in range(k, jobs, tasks):
                    job(i, k)

        self.map(worker, tasks)

    def close(self) -> None:
        """Join the pool."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class _Context:
    """Per-model precomputation and node-path workspace, shared by all
    stages of all steps of one run, and the run's workers (one, on the
    calling thread, unless given)."""

    def __init__(self, model: ModelSpec, workers: _Workers | None = None):
        self.model = model
        self.workers = _Workers(1) if workers is None else workers
        basis = model.basis
        self.table = basis.basis_table          # (m, Q)
        # (Q, m), copied from F to C order, in which a stacked matmul calls
        # BLAS: the per-dimension products make the same calls
        self.proj = np.ascontiguousarray(basis.projection_matrix())
        align = model.alignment
        self.homogeneous = align is not None and align.position_independent
        # a node-path force reads partners' velocities
        self.aligning = align is not None and not self.homogeneous
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
        # the homogeneous subsample mean's (N, S, width), its (N, width)
        # scaled modes and result, chunk rows and per-worker partner
        # buffers, kept while that shape lasts
        self.means = (None,)

    @property
    def order0(self) -> "_Context":
        """The same model on the one-node order-0 rule, for the
        deterministic shortcut, with the same workers; built on first use."""
        if self._order0 is None:
            self._order0 = _Context(replace(self.model, basis=build_basis(PolynomialFamily.LEGENDRE, 0, 1)),
                                    self.workers)
        return self._order0

    def workspace(self, n: int, partners: int, d: int) -> "_Workspace":
        """Buffers for N particles with ``partners`` partners each in d
        dimensions; rebuilt only when that shape changes."""
        if self._workspace is None or self._workspace.shape != (n, partners, d):
            self._workspace = _Workspace(n, partners, d, self.table.shape[1], self.workers.count, self.aligning)
        return self._workspace


class _Workspace:
    """Every array the node path writes: the (d, N, Q) node values and
    node rate, shared by all workers, each of which writes only its own
    rows of the rate, and one set of row-chunk buffers per worker that
    has a chunk.  Without ``aligning``, a force that reads partners'
    velocities, the rate is ``v_nodes`` itself.  Nothing is allocated per
    stage but the modal rate.

    Chunks have ``rows`` rows, the last one possibly fewer, by
    ``_row_chunks`` for the d * P * Q partner-buffer elements of a row."""

    def __init__(self, n: int, partners: int, d: int, q: int, workers: int, aligning: bool):
        self.shape = (n, partners, d)
        self.rows, self.chunks = _row_chunks(n, partners * d * q, workers,
                                             lambda rows: _ChunkBuffers(rows, partners, d, q))
        self.x_nodes = np.empty((d, n, q))              # x_hat @ table, per dimension
        self.v_nodes = np.empty((d, n, q))
        self.rate = np.empty((d, n, q)) if aligning else self.v_nodes   # projected once per stage


class _ChunkBuffers:
    """One worker's buffers for a row chunk of R particles with P
    partners each, partner-outer: each holds its rows on axis -2, and a
    chunk of fewer rows reads them through ``_rows_of``.  Unused buffers
    cost no resident memory, since pages are mapped on first write."""

    def __init__(self, rows: int, partners: int, d: int, q: int):
        self.pairs = np.empty((d, partners, rows, q))   # x_j - x_i, then v_j - v_i
        self.r_sq = np.empty((partners, rows, q))       # also the Morse repulsion term
        self.r = np.empty((partners, rows, q))
        self.kernel = np.empty((partners, rows, q))     # alignment h
        self.coef = np.empty((partners, rows, q))       # Morse slope / r
        self.mask = np.empty((partners, rows, q), dtype=bool)  # not r > 0
        self.term = np.empty((d, rows, q))              # Morse force, then propulsion
        self.speed_sq = np.empty((rows, q))


def _row_chunks(n: int, row_size: int, workers: int, buffers) -> tuple[int, list]:
    """The rows of one row chunk, for rows of ``row_size`` partner-buffer
    elements, and ``buffers(rows)`` for each of the W workers that has a
    chunk.  A worker's share of ceil(N/W) rows is cut into the fewest
    equal pieces whose partner buffer fits ``_CHUNK_BUDGET``, so the N
    rows make at most W times that many chunks.  At W = 1 there are as
    many chunks as with the largest chunk that fits, and none is larger."""
    share = -(-n // workers)
    fit = max(1, _CHUNK_BUDGET // max(row_size, 1))
    rows = -(-share // -(-share // fit))
    return rows, [buffers(rows) for _ in range(min(workers, -(-n // rows)))]


def _rows_of(buf, rows):
    """A chunk buffer, which holds its rows on axis -2, cut to ``rows``
    rows as a C-contiguous view of the prefix of its flat memory.  For a
    partial chunk a strided slice such as buf[..., :rows, :] is not
    contiguous: np.take would gather into a temporary and copy it back,
    and the passes would run shorter inner loops."""
    shape = buf.shape[:-2] + (rows, buf.shape[-1])
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def draw_subsamples(rng: np.random.Generator, n: int, s: int,
                    workers: _Workers | None = None) -> np.ndarray | None:
    """Per-particle subsamples: (n, s) distinct indices each, uniform over
    subsets, self allowed.  Returns None when s == n (the full set).

    Three regimes, picked from (n, s) for speed; every one gives each row
    a uniform s-subset, independently of the other rows:

    - collision-light, s(s-1) <= n//4: ``_rejection_rows``, in draw order.
    - middle, up to 10s = 3n: ``_sorted_redraw``, each row sorted
      ascending.
    - very dense, 10s > 3n: ``_shuffled_rows``, in permutation order.

    The table holds its indices in the narrowest type that fits: uint16
    for n <= 65536, else uint32.  Each block is cast as it is stored, so
    the draws are those of the regime's own dtype; ``np.take`` converts
    the indices of a chunk to intp as it gathers.

    The table is drawn in blocks of ``max(1, _DRAW_BLOCK // s)`` rows,
    which ``workers`` share out (on the calling thread without them).
    Block 0 draws from ``rng`` and block b >= 1 from
    ``Generator(rng.bit_generator.jumped(b))``; every jump is taken before
    block 0 advances ``rng``.  PCG64's jumped streams do not overlap, so
    each block draws its rows from fresh uniform variates, as one stream
    would: a row's law and its independence of the other rows do not
    change, and neither does the table for any worker count.  A table of
    at most ``_DRAW_BLOCK`` entries is one block, drawn on the calling
    thread from ``rng`` alone.
    """
    if s == n:
        return None
    # The redraw's cost grows with s and the row shuffle's does not; they
    # cross at s = 0.36n for n = 10^3 (14 ms a draw) and at s = 0.29n for
    # n = 10^4 (1.65 s), measured on a 2-core Xeon with numpy 2.4.
    if s * (s - 1) <= n // 4:
        draw = _rejection_rows
    elif 10 * s <= 3 * n:
        draw = _sorted_redraw
    else:
        draw = _shuffled_rows
    rows = max(1, _DRAW_BLOCK // s)
    streams = [rng] + [np.random.Generator(rng.bit_generator.jumped(b)) for b in range(1, -(-n // rows))]
    table = np.empty((n, s), dtype=np.uint16 if n <= 1 << 16 else np.uint32)

    def block(b, _):
        lo = b * rows
        table[lo:lo + rows] = draw(streams[b], n, s, min(rows, n - lo))

    (workers or _Workers(1)).share(len(streams), block)
    return table


def _rejection_rows(rng: np.random.Generator, n: int, s: int, rows: int) -> np.ndarray:
    """(rows, s) int64 rows of distinct indices in 0..n-1, for s(s-1) <=
    n//4: draw whole rows with replacement and redraw every row that
    repeats an index.  An accepted row is an i.i.d. uniform draw
    conditioned on being distinct, so its set is uniform.

    A row that passes a round keeps its indices and passes every later
    one, so each round after the first sorts and tests only the rows it
    redrew.  The rows redrawn, and so the draws and their order, are
    those of re-testing every row each round."""
    idx = rng.integers(0, n, size=(rows, s))
    check, block = np.arange(rows), idx     # block: the rows of idx being tested
    while True:
        bad = (np.diff(np.sort(block, axis=1), axis=1) == 0).any(axis=1)
        if not bad.any():
            return idx
        check = check[bad]
        idx[check] = block = rng.integers(0, n, size=(check.size, s))


def _sorted_redraw(rng: np.random.Generator, n: int, s: int, rows: int) -> np.ndarray:
    """(rows, s) int32 rows of distinct indices in 0..n-1, each sorted.

    Draw with replacement and sort each row; then, until no row has a
    repeat, redraw the slots equal to their left neighbour and re-sort
    only the rows that had one.

    Why each row's set is uniform: a round keeps one copy of every value
    of the row's multiset and replaces the other copies by fresh uniform
    draws.  Relabelling 0..n-1 by a permutation maps the first draw and
    every round to draws of the same law, so the law of the final set is
    invariant under every permutation.  Permutations reach every s-subset
    from any other, so that law is uniform.  Fresh draws are i.i.d.
    whichever slot takes them, so the rows stay independent.
    """
    idx = rng.integers(0, n, size=(rows, s), dtype=np.int32)
    idx.sort(axis=1)
    fixing, block = np.arange(rows), idx    # block: the rows still being fixed
    while True:
        # flat positions, split into (row, column): cheaper than 2-D nonzero
        repeats = np.flatnonzero(block[:, 1:] == block[:, :-1])
        if repeats.size == 0:
            return idx
        r, c = np.divmod(repeats, s - 1)
        block[r, c + 1] = rng.integers(0, n, size=r.size, dtype=np.int32)
        bad = np.unique(r)
        fixing, block = fixing[bad], np.sort(block[bad], axis=1)
        idx[fixing] = block


def _shuffled_rows(rng: np.random.Generator, n: int, s: int, rows: int) -> np.ndarray:
    """(rows, s) int64 rows of distinct indices in 0..n-1, for 10s > 3n:
    the first s entries of a uniform permutation of 0..n-1, which are a
    uniform s-subset.  numpy shuffles each row of the (rows, n) tile in
    C; a block's tile holds at most max(n, _DRAW_BLOCK / 0.3) entries."""
    perm = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    return rng.permuted(perm, axis=1, out=perm)[:, :s]


def _partner_mean_less_own(flat: np.ndarray, sub: np.ndarray, ctx: _Context) -> np.ndarray:
    """(N, d*m) mean of the modes ``flat`` of each particle's S partners
    ``sub``, less its own: the homogeneous shortcut's subsample mean.

    Each row chunk's partners are gathered into its worker's (S, R,
    width) buffer, cut by ``_row_chunks``, and summed along the outer
    axis, so a row adds the products (1/S) * v_j in its stored partner
    order, starting from 0.0: the sum that a CSR matrix-vector product
    with data 1/S forms, bit for bit, whatever the row's chunk or worker.
    The chunks run on the calling thread below ``_SHARED_PRODUCT_MIN``
    multiply-adds (N * S * d * m).  The result is a view of an array of
    ``ctx``, rewritten by the next call."""
    n, s = sub.shape
    # numpy sums a reduction of one element pairwise, not in order: a
    # single column is widened to two, so that no chunk is one element
    width = max(flat.shape[1], 2)
    if ctx.means[0] != (n, s, width):
        ctx.means = ((n, s, width), np.empty((n, width)), np.empty((n, width)),
                     *_row_chunks(n, s * width, ctx.workers.count, lambda rows: np.empty((s, rows, width))))
    _, scaled, diff, rows, buffers = ctx.means
    np.multiply(flat, 1.0 / s, out=scaled)

    def mean_rows(i, k):   # chunk i, in worker k's buffer
        lo, hi = i * rows, min(n, (i + 1) * rows)
        gathered = _rows_of(buffers[k], hi - lo)
        # indices come from draw_subsamples; "clip" avoids the buffered copy of "raise"
        np.take(scaled, sub[lo:hi].T, axis=0, out=gathered, mode="clip")
        np.add.reduce(gathered, axis=0, out=diff[lo:hi], initial=0.0)
        np.subtract(diff[lo:hi], flat[lo:hi], out=diff[lo:hi])

    tasks = len(buffers) if flat.size * s >= _SHARED_PRODUCT_MIN else 1
    ctx.workers.share(-(-n // rows), mean_rows, tasks)
    return diff[:, :flat.shape[1]]


def _contract(w, pairs, out):
    """out[k, r, q] = sum over s of w[s, r, q] * pairs[k, s, r, q], one
    einsum per dimension k over contiguous (P, R, Q) slices."""
    for k in range(pairs.shape[0]):
        np.einsum("srq,srq->rq", w, pairs[k], out=out[k])
    return out


def _forces_for_rows(lo, hi, x_nodes, v_nodes, sub, ctx, ws, node_rate) -> np.ndarray:
    """Velocity rate at the nodes of particle rows lo:hi, excluding the
    factorized homogeneous-alignment shortcut (handled by the caller).

    ``x_nodes`` and ``v_nodes`` are the (d, N, Q) node values and ``sub``
    the (N, S) partner table, or None for all-to-all.  Every intermediate
    is written into the chunk buffers ``ws``; the result is the (d, R, Q)
    view ``node_rate[:, lo:hi]``.  Without alignment on the node path
    ``node_rate`` may be ``v_nodes`` itself: the chunk reads no other
    rows of it, and overwrites its own after the propulsion has read them.
    """
    morse = ctx.model.morse
    rows = hi - lo
    pairs, rate, term = _rows_of(ws.pairs, rows), node_rate[:, lo:hi], _rows_of(ws.term, rows)
    denom = x_nodes.shape[1] if sub is None else sub.shape[1]

    def partner_differences(nodes):   # pairs[k, s, r] = nodes[k, partner s of lo + r] - nodes[k, lo + r]
        # indices come from draw_subsamples; "clip" avoids the buffered copy of "raise"
        nodes_j = nodes[:, :, None] if sub is None else np.take(nodes, sub[lo:hi].T, axis=1, out=pairs, mode="clip")
        return np.subtract(nodes_j, nodes[:, None, lo:hi], out=pairs)   # (d, S|N, R, Q)

    partner_differences(x_nodes)   # x_j - x_i, kept until the Morse force has read it
    r_sq = np.einsum("dsrq,dsrq->srq", pairs, pairs, out=_rows_of(ws.r_sq, rows))  # (S|N, R, Q)
    if ctx.aligning:
        h = alignment_kernel(ctx.k_nodes, ctx.g_nodes, r_sq, out=_rows_of(ws.kernel, rows))
    if morse is not None:
        dist = np.sqrt(r_sq, out=_rows_of(ws.r, rows))
        slope = morse_radial_slope(ctx.ca_nodes, ctx.cr_nodes, morse.ell_A, morse.ell_R, dist,
                                   out=_rows_of(ws.coef, rows), work=r_sq)
        # self pairs (and coincident particles) have r == 0 exactly and
        # contribute no force, matching the pair sum that skips j == i;
        # a NaN distance also gives zero, as np.where(r > 0, ...) does
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.divide(slope, dist, out=slope)
        mask = _rows_of(ws.mask, rows)
        np.copyto(coef, 0.0, where=np.logical_not(np.greater(dist, 0.0, out=mask), out=mask))
        # -sum coef * (x_i - x_j) / denom is sum coef * (x_j - x_i) / denom
        # bit for bit, since IEEE negation commutes with rounding
        np.divide(_contract(coef, pairs, term), denom, out=term)   # the Morse force
    if ctx.aligning:
        np.divide(_contract(h, partner_differences(v_nodes), rate), denom, out=rate)  # v_j - v_i
        if morse is not None:
            np.add(rate, term, out=rate)
    if morse is not None:
        vr = v_nodes[:, lo:hi]
        propulsion = np.einsum("drq,drq->rq", vr, vr, out=_rows_of(ws.speed_sq, rows))
        propulsion = np.subtract(morse.a, np.multiply(morse.b, propulsion, out=propulsion), out=propulsion)
        # p * v goes to term once the force is in rate; without alignment
        # it goes to rate, which may be vr itself, now that vr has been read
        np.multiply(propulsion, vr, out=term if ctx.aligning else rate)
        np.add(rate, term, out=rate)
    return rate


def _velocity_rate_full(x_hat, v_hat, sub, ctx) -> np.ndarray:
    """Modal velocity rate for every particle, with the (N, S) partner
    table ``sub``, or None for all-to-all."""
    n, d, m = v_hat.shape
    share = ctx.workers.share
    if ctx.homogeneous:
        flat = v_hat.reshape(n, d * m)
        diff = flat.mean(axis=0) - flat if sub is None else _partner_mean_less_own(flat, sub, ctx)
        # one (N*d, m) @ (m, m) product on the calling thread, not N stacked
        # (d, m) @ (m, m) ones: BLAS rounds a row with the product's height
        dv = (diff.reshape(n * d, m) @ ctx.e_const.T).reshape(n, d, m)
        if ctx.model.morse is None:
            return dv
    else:
        dv = np.empty_like(v_hat)   # every row is written below
    ws = ctx.workspace(n, n if sub is None else sub.shape[1], d)
    x_nodes, v_nodes, rate = ws.x_nodes, ws.v_nodes, ws.rate
    chunks, tasks = -(-n // ws.rows), len(ws.chunks)
    product_tasks = tasks if n * ctx.table.size >= _SHARED_PRODUCT_MIN else 1

    def reconstruct(i, _):   # x, then v: one (N, m) @ (m, Q) product per dimension
        hat, nodes = (x_hat, x_nodes) if i < d else (v_hat, v_nodes)
        np.matmul(hat[:, i % d], ctx.table, out=nodes[i % d])

    def forces(i, k):   # chunk i, in worker k's buffers: a row's rate is the same in any chunk
        lo = i * ws.rows
        _forces_for_rows(lo, min(n, lo + ws.rows), x_nodes, v_nodes, sub, ctx, ws.chunks[k], rate)

    def project(i, _):   # one (N, Q) @ (Q, m) product per dimension, after the
        # last chunk: its rows round alike whatever the chunk size
        if ctx.homogeneous:
            dv[:, i] += np.matmul(rate[i], ctx.proj)
        else:
            np.matmul(rate[i], ctx.proj, out=dv[:, i])

    share(2 * d, reconstruct, product_tasks)
    share(chunks, forces, tasks)
    share(d, project, product_tasks)
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
    sub = draw_subsamples(rng, ens.n_particles, cfg.subsample_size, ctx.workers)

    def rhs(x_hat, v_hat):
        return v_hat, _velocity_rate_full(x_hat, v_hat, sub, ctx)

    integrate = euler if cfg.integrator == "euler" else rk4
    # overflow in a diverging run is reported via the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        x_new, v_new = integrate(rhs, (x0, v0), dt)
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
    threads: int = 1,
) -> tuple[list, GpcEnsemble]:
    """Sample the initial ensemble and integrate to t_end.

    Observers are callables of the ensemble; they fire on the initial
    state, every ``observer_stride`` steps, and on the final state.
    Returns the list of (time, [observer outputs]) records and the final
    ensemble.  Each step uses an RNG stream derived from (seed, step
    index), so trajectories are reproducible and independent of how work
    is scheduled.  ``threads`` workers share the row blocks of the
    subsample draw, the row chunks and products of the node path and the
    row chunks of the homogeneous shortcut's subsample mean; the result is
    bit-identical for every count.  OpenBLAS is held at one thread until
    the run returns or raises (``_BLAS_HOLD``).
    """
    if threads < 1:
        raise ConfigurationError(f"need at least one worker thread, got {threads}")
    records = []
    workers = _Workers(threads)
    ctx = _Context(cfg.model, workers)

    def advance(e, k, dt):
        return step(e, cfg, _step_rng(cfg.seed, k), dt=dt, ctx=ctx)

    def observe(e):
        records.append((e.time, [obs(e) for obs in observers]))

    with _BLAS_HOLD:
        try:
            ens = march(lambda: sample_initial(ic, cfg.n_particles, cfg.seed, cfg.model.basis.n_modes),
                        advance, cfg.t_end, cfg.dt, observe, observer_stride)
        finally:
            workers.close()
    return records, ens
