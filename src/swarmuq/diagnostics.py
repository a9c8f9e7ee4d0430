"""Expected-density reconstruction and macroscopic statistics.

The expected phase-space density is reconstructed as a histogram of the
mode-0 (expected) particle states: cell counts are nonnegative and the
normalized grid has unit mass by construction, which is the structural
advantage of the particle representation over direct spectral solvers.
Out-of-range samples are clamped into the edge bins and counted in a
spill statistic instead of being dropped, so mass is never lost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import GpcEnsemble
from .errors import ConfigurationError, DimensionMismatchError

_DENSITY_KINDS = ("position", "velocity", "phase-space")


@dataclass(frozen=True)
class DensityGrid:
    """Histogram density: per-axis (min, max, n_bins), nonnegative values."""

    axes: tuple
    values: np.ndarray
    kind: str
    total_mass: float
    spill: int


def _histogram(data: np.ndarray, axes, weights=None) -> tuple[np.ndarray, int]:
    """Per-cell sums of ``weights`` (counts without them) over the rows of
    ``data``, one column per (min, max, n_bins) axis, and the number of
    rows outside the window; those are clamped into the edge bins."""
    lows = np.array([a[0] for a in axes])
    highs = np.array([a[1] for a in axes])
    spill = int(np.any((data < lows) | (data > highs), axis=1).sum())
    sums, _ = np.histogramdd(np.clip(data, lows, highs), bins=[a[2] for a in axes],
                             range=[(a[0], a[1]) for a in axes], weights=weights)
    return sums, spill


def reconstruct_expected_density(ens: GpcEnsemble, axes, kind: str = "position") -> DensityGrid:
    """Unit-mass histogram of the expected (mode-0) particle states.

    ``axes`` is one (min, max, n_bins) triple per histogram dimension:
    d of them for position or velocity, 2d for phase-space (positions
    first).  Samples outside the range are clamped to the edge bins and
    counted in ``spill``.
    """
    if ens.n_particles == 0:
        raise ConfigurationError("cannot reconstruct a density from an empty ensemble")
    if kind not in _DENSITY_KINDS:
        raise ConfigurationError(f"kind must be one of {_DENSITY_KINDS}, got {kind!r}")
    if kind == "position":
        data = ens.x_hat[:, :, 0]
    elif kind == "velocity":
        data = ens.v_hat[:, :, 0]
    else:
        data = np.hstack([ens.x_hat[:, :, 0], ens.v_hat[:, :, 0]])
    axes = tuple((float(lo), float(hi), int(nb)) for lo, hi, nb in axes)
    if len(axes) != data.shape[1]:
        raise DimensionMismatchError(f"{kind} histogram needs {data.shape[1]} axes, got {len(axes)}")
    counts, spill = _histogram(data, axes)
    cell_volume = np.prod([(a[1] - a[0]) / a[2] for a in axes])
    values = counts / (ens.n_particles * cell_volume)
    return DensityGrid(axes=axes, values=values, kind=kind,
                       total_mass=float(values.sum() * cell_volume), spill=spill)


def _squared_deviations(coefs: np.ndarray, basis) -> np.ndarray:
    """(N, d, Q) squares of the node values of the (N, d, m) ``coefs``
    (an ensemble's x_hat or v_hat) minus their ensemble mean at each node
    and component, centred and squared in place: one (N, d, Q) array in
    all."""
    if coefs.shape[2] != basis.n_modes:
        raise DimensionMismatchError(f"ensemble has {coefs.shape[2]} modes but basis has {basis.n_modes}")
    nodes = coefs @ basis.basis_table
    nodes -= nodes.mean(axis=0, keepdims=True)
    return np.square(nodes, out=nodes)


def _spread(squares: np.ndarray) -> np.ndarray:
    """N sum_i |u_i - mean|^2 per node, from ``_squared_deviations``."""
    return squares.shape[0] * squares.sum(axis=(0, 1))


def _temperature(squares: np.ndarray, basis) -> float:
    """Quadrature average of the per-node velocity variance, from the
    ``_squared_deviations`` of v, which it overwrites: the components are
    summed into the first in place, in the order ``sum(axis=1)`` adds.
    numpy copies an input that may overlap the output, so the sums run
    in row blocks of at most N*d values."""
    n, d, q = squares.shape
    block = max(1, n * d // q)
    for lo in range(0, n, block):
        rows = squares[lo:lo + block]
        for k in range(1, d):
            np.add(rows[:, 0], rows[:, k], out=rows[:, 0])
    return float(basis.quad_weights @ squares[:, 0].mean(axis=0))


def expected_temperature(ens: GpcEnsemble, basis) -> float:
    """Random-input average of the ensemble velocity variance.

    At each quadrature node the variance of the reconstructed velocities
    around their ensemble mean is computed (summed over components in
    more than one dimension), then averaged with the quadrature weights.
    """
    return _temperature(_squared_deviations(ens.v_hat, basis), basis)


def flocking_spreads(ens: GpcEnsemble, basis) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise spreads Gamma (positions) and Lambda (velocities) per node.

    Gamma = 0.5 sum_{i != j} |x_i - x_j|^2, evaluated through the O(N)
    identity 0.5 sum_{i != j} |u_i - u_j|^2 = N sum_i |u_i - mean|^2.
    """
    gamma = _spread(_squared_deviations(ens.x_hat, basis))
    return gamma, _spread(_squared_deviations(ens.v_hat, basis))


def convergence_error(quantity: float, reference: float, relative: bool = False) -> float:
    """Absolute (or relative) deviation from a reference value."""
    err = abs(quantity - reference)
    if relative:
        if reference == 0.0:
            raise ConfigurationError("relative error undefined for a zero reference")
        return err / abs(reference)
    return err


@dataclass(frozen=True)
class StatRecord:
    """One row of the macroscopic time series."""

    time: float
    expected_temperature: float
    mean_velocity: tuple
    velocity_spread: float
    position_spread: float
    speed_mean: float
    speed_std: float
    ccw_frac: float


def compute_stats(ens: GpcEnsemble, basis) -> StatRecord:
    """Macroscopic statistics of the current state.

    Spreads are averaged over the random input with the quadrature
    weights; mean velocity and speed statistics use the expected (mode-0)
    velocities.  The counterclockwise fraction counts particles whose
    planar cross product x ^ v is positive and is NaN in one dimension.
    The spreads and the temperature are those of ``flocking_spreads`` and
    ``expected_temperature``, bit for bit, from one reconstruction of x
    and one of v, freed in turn.
    """
    w = basis.quad_weights
    position_spread = float(w @ _spread(_squared_deviations(ens.x_hat, basis)))
    v_squares = _squared_deviations(ens.v_hat, basis)
    velocity_spread = float(w @ _spread(v_squares))
    temperature = _temperature(v_squares, basis)
    x0 = ens.x_hat[:, :, 0]
    v0 = ens.v_hat[:, :, 0]
    speeds = np.linalg.norm(v0, axis=1)
    if ens.dim == 2:
        cross = x0[:, 0] * v0[:, 1] - x0[:, 1] * v0[:, 0]
        ccw = float((cross > 0).mean())
    else:
        ccw = float("nan")
    return StatRecord(
        time=ens.time,
        expected_temperature=temperature,
        mean_velocity=tuple(v0.mean(axis=0)),
        velocity_spread=velocity_spread,
        position_spread=position_spread,
        speed_mean=float(speeds.mean()),
        speed_std=float(speeds.std()),
        ccw_frac=ccw,
    )


STATS_HEADER = "t,temperature,mean_vx,mean_vy,Lambda,Gamma,speed_mean,speed_std,ccw_frac"


def write_rows(path, rows, header=()) -> None:
    """A CSV table: the ``header`` lines, then one line per row, each
    integer written as itself and any other number as repr(float(x)),
    which reads back to the same double."""
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row) + "\n")


def write_stats_csv(records, path) -> None:
    """Time series of StatRecord rows; mean_vy and ccw_frac are NaN in 1D."""
    rows = []
    for rec in records:
        vx = rec.mean_velocity[0]
        vy = rec.mean_velocity[1] if len(rec.mean_velocity) > 1 else float("nan")
        rows.append((rec.time, rec.expected_temperature, vx, vy, rec.velocity_spread,
                     rec.position_spread, rec.speed_mean, rec.speed_std, rec.ccw_frac))
    write_rows(path, rows, [STATS_HEADER])


def write_density_csv(grid: DensityGrid, path) -> None:
    """Grid values as CSV preceded by an axes header block (# comments)."""
    values = grid.values
    header = [f"# kind={grid.kind}"]
    header += [f"# axis{d}=min:{lo!r},max:{hi!r},bins:{nb}" for d, (lo, hi, nb) in enumerate(grid.axes)]
    header += [f"# total_mass={grid.total_mass!r}", f"# spill={grid.spill}"]
    flat = values.reshape(values.shape[0], -1) if values.ndim > 1 else values[None, :]
    write_rows(path, flat, header)


def write_pgm(grid: DensityGrid, path) -> None:
    """Grayscale P2 heatmap of a 2D grid, linearly scaled to 0..255.

    Rows and columns are those of the value array; a zero-max grid maps
    to all black.  The format is plain ASCII: 'P2', dimensions, maxval 255,
    then one raster row per line.
    """
    if grid.values.ndim != 2:
        raise ConfigurationError("PGM emission requires a 2D density grid")
    vmax = grid.values.max()
    scaled = np.zeros_like(grid.values, dtype=int) if vmax == 0 else np.rint(
        grid.values / vmax * 255).astype(int)
    height, width = scaled.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for row in scaled:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def velocity_field(ens: GpcEnsemble, axes) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean expected velocity over a 2D position grid.

    Returns (counts, mean_velocities) with shapes (nx, ny) and
    (nx, ny, 2); cells without samples hold zero velocity.
    """
    if ens.dim != 2:
        raise ConfigurationError("velocity fields are only defined for 2D ensembles")
    axes = tuple((float(lo), float(hi), int(nb)) for lo, hi, nb in axes)
    x0 = ens.x_hat[:, :, 0]
    v0 = ens.v_hat[:, :, 0]
    counts, _ = _histogram(x0, axes)
    sums = np.stack([_histogram(x0, axes, weights=v0[:, c])[0] for c in range(2)], axis=-1)
    with np.errstate(invalid="ignore"):
        means = np.where(counts[:, :, None] > 0, sums / np.maximum(counts, 1.0)[:, :, None], 0.0)
    return counts, means


def write_velocity_field_csv(counts: np.ndarray, means: np.ndarray, path) -> None:
    nx, ny = counts.shape
    write_rows(path, ((i, j, int(counts[i, j]), means[i, j, 0], means[i, j, 1])
                      for i in range(nx) for j in range(ny)), ["i,j,count,vx,vy"])
