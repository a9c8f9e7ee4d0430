"""Output checks of one `swarmuq run`; every failure counts against fail_rate.

Each check returns a list of messages, empty when the output is correct:

- every artifact was written;
- ``stats.csv`` is finite and ends at the workload's end time;
- every density is nonnegative with total mass 1 to roundoff;
- the final expected temperature matches a reference: the ``swarmuq
  oracle`` finite-difference solution on the homogeneous workload, a band
  recorded over seeds elsewhere.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

COMMON_ARTIFACTS = ("stats.csv", "density_position.csv", "density_velocity.csv",
                    "ensemble_final.csv", "ensemble_final.csv.meta.txt", "manifest.txt")
ARTIFACTS_BY_DIM = {1: ("density_phase_space.csv",), 2: ("velocity_field.csv",)}
# stats.csv columns that are NaN by design in one dimension
NAN_IN_1D = ("mean_vy", "ccw_frac")
MASS_TOL = 1e-9


def check_artifacts(out_dir: Path, dim: int) -> list[str]:
    names = COMMON_ARTIFACTS + ARTIFACTS_BY_DIM[dim]
    return [f"missing artifact {name}" for name in names
            if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]


def read_stats(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], ndmin=2)
    return {name: rows[:, k] for k, name in enumerate(header)}


def check_stats(out_dir: Path, dim: int, t_end: float) -> list[str]:
    try:
        stats = read_stats(out_dir / "stats.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"stats.csv unreadable: {exc}"]
    failures = []
    for name, column in stats.items():
        if dim == 1 and name in NAN_IN_1D:
            continue
        if not np.isfinite(column).all():
            failures.append(f"stats.csv column {name} is not finite")
    t = stats.get("t")
    if t is None or len(t) < 2 or not math.isclose(t[-1], t_end, rel_tol=1e-9, abs_tol=1e-12):
        failures.append(f"stats.csv does not end at t_end={t_end!r}")
    return failures


def read_density(path: Path) -> tuple[dict[str, str], list[tuple[float, float, int]], np.ndarray]:
    header: dict[str, str] = {}
    axes = []
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.startswith("axis"):
                parts = dict(p.split(":") for p in value.split(","))
                axes.append((float(parts["min"]), float(parts["max"]), int(parts["bins"])))
            else:
                header[key] = value
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return header, axes, np.array(rows, ndmin=2)


def check_densities(out_dir: Path) -> list[str]:
    failures = []
    for path in sorted(out_dir.glob("density_*.csv")):
        try:
            header, axes, values = read_density(path)
            stated = float(header["total_mass"])
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{path.name} unreadable: {exc}")
            continue
        if not (np.isfinite(values).all() and (values >= 0.0).all()):
            failures.append(f"{path.name} has negative or non-finite values")
            continue
        cell_volume = math.prod((hi - lo) / nb for lo, hi, nb in axes)
        mass = float(values.sum()) * cell_volume
        if abs(stated - 1.0) > MASS_TOL or abs(mass - 1.0) > MASS_TOL:
            failures.append(f"{path.name} total mass {stated!r} (summed {mass!r}) is not 1")
    return failures


def final_temperature(out_dir: Path) -> float:
    return float(read_stats(out_dir / "stats.csv")["temperature"][-1])


def check_temperature(out_dir: Path, low: float, high: float) -> list[str]:
    try:
        temp = final_temperature(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"final temperature unreadable: {exc}"]
    if not low <= temp <= high:
        return [f"final expected temperature {temp!r} outside [{low!r}, {high!r}]"]
    return []


def oracle_temperature(oracle_dir: Path) -> float:
    """Last row of the ``swarmuq oracle`` temperature history."""
    last = (oracle_dir / "oracle_temperature.csv").read_text().splitlines()[-1]
    return float(last.split(",")[1])


def check_run(out_dir: Path, dim: int, t_end: float, band: tuple[float, float]) -> list[str]:
    """All checks of one run; the temperature band is absolute."""
    failures = check_artifacts(out_dir, dim)
    if "missing artifact stats.csv" in failures:
        return failures
    failures += check_stats(out_dir, dim, t_end)
    failures += check_densities(out_dir)
    failures += check_temperature(out_dir, *band)
    return failures
