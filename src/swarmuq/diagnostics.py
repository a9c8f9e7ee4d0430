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

from .ensemble import GpcEnsemble, evaluate_at_nodes
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


def expected_temperature(ens: GpcEnsemble, basis) -> float:
    """Random-input average of the ensemble velocity variance.

    At each quadrature node the variance of the reconstructed velocities
    around their ensemble mean is computed (summed over components in
    more than one dimension), then averaged with the quadrature weights.
    """
    _, v_nodes = evaluate_at_nodes(ens, basis)
    mean = v_nodes.mean(axis=0, keepdims=True)
    t_nodes = ((v_nodes - mean) ** 2).sum(axis=1).mean(axis=0)
    return float(basis.quad_weights @ t_nodes)


def flocking_spreads(ens: GpcEnsemble, basis) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise spreads Gamma (positions) and Lambda (velocities) per node.

    Gamma = 0.5 sum_{i != j} |x_i - x_j|^2, evaluated through the O(N)
    identity 0.5 sum_{i != j} |u_i - u_j|^2 = N sum_i |u_i - mean|^2.
    """
    x_nodes, v_nodes = evaluate_at_nodes(ens, basis)
    n = ens.n_particles

    def spread(values):
        mean = values.mean(axis=0, keepdims=True)
        return n * ((values - mean) ** 2).sum(axis=(0, 1))

    return spread(x_nodes), spread(v_nodes)


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
    """
    gamma_nodes, lambda_nodes = flocking_spreads(ens, basis)
    w = basis.quad_weights
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
        expected_temperature=expected_temperature(ens, basis),
        mean_velocity=tuple(v0.mean(axis=0)),
        velocity_spread=float(w @ lambda_nodes),
        position_spread=float(w @ gamma_nodes),
        speed_mean=float(speeds.mean()),
        speed_std=float(speeds.std()),
        ccw_frac=ccw,
    )


STATS_HEADER = "t,temperature,mean_vx,mean_vy,Lambda,Gamma,speed_mean,speed_std,ccw_frac"


def write_stats_csv(records, path) -> None:
    """Time series of StatRecord rows; mean_vy and ccw_frac are NaN in 1D."""
    with open(path, "w") as fh:
        fh.write(STATS_HEADER + "\n")
        for rec in records:
            vx = rec.mean_velocity[0]
            vy = rec.mean_velocity[1] if len(rec.mean_velocity) > 1 else float("nan")
            row = (rec.time, rec.expected_temperature, vx, vy, rec.velocity_spread,
                   rec.position_spread, rec.speed_mean, rec.speed_std, rec.ccw_frac)
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_density_csv(grid: DensityGrid, path) -> None:
    """Grid values as CSV preceded by an axes header block (# comments)."""
    values = grid.values
    with open(path, "w") as fh:
        fh.write(f"# kind={grid.kind}\n")
        for d, (lo, hi, nb) in enumerate(grid.axes):
            fh.write(f"# axis{d}=min:{lo!r},max:{hi!r},bins:{nb}\n")
        fh.write(f"# total_mass={grid.total_mass!r}\n")
        fh.write(f"# spill={grid.spill}\n")
        flat = values.reshape(values.shape[0], -1) if values.ndim > 1 else values[None, :]
        for row in flat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_pgm(grid: DensityGrid, path) -> None:
    """Grayscale P2 heatmap of a 2D grid, linearly scaled to 0..255.

    Row----column order follows the value array; a zero-max grid maps to
    all black.  The format is plain ASCII: 'P2', dimensions, maxval 255,
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
    with open(path, "w") as fh:
        fh.write("i,j,count,vx,vy\n")
        nx, ny = counts.shape
        for i in range(nx):
            for j in range(ny):
                fh.write(f"{i},{j},{int(counts[i, j])},{float(means[i, j, 0])!r},{float(means[i, j, 1])!r}\n")
