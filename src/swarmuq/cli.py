"""Configuration-driven command line: run experiments, sweeps, reference solves.

Commands:
    swarmuq run CONFIG       integrate a preset/experiment, emit artifacts
    swarmuq converge CONFIG --sweep AXIS=V1,V2,...   error table vs a reference
    swarmuq oracle CONFIG    finite-difference reference for the homogeneous case

CONFIG is an INI-style file (key = value under [section] headers); see the
shipped presets for the full schema.  Uncertain scalars are written as
affine expressions in theta, e.g. ``gamma = 0.1 + 0.05*theta``.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import inspect
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .diagnostics import (
    compute_stats,
    convergence_error,
    expected_temperature,
    reconstruct_expected_density,
    velocity_field,
    write_density_csv,
    write_pgm,
    write_rows,
    write_stats_csv,
    write_velocity_field_csv,
)
from .ensemble import ICKind, InitialCondition, save_snapshot
from .errors import ConfigurationError, IntegrationBlowupError, SchemeFailureError
from .gpc import PolynomialFamily, build_basis, tensor_basis
from .models import CuckerSmaleParams, MorseSwarmParams, UncertainScalar
from .pde_oracle import VelocityGrid, bimodal_density, oracle_expected_temperature, sg_homogeneous_solve
from .solver import ModelSpec, SolverConfig, run

# Each experiment kind: its default initial condition and the [model] keys
# it reads, with their defaults.  A default's type is the key's type: a
# string is an uncertain scalar in theta, a float a plain number.  A force
# acts when the experiment reads its parameters (alignment: k, gamma;
# Morse: a, b, c_a, c_r, ell_a, ell_r); with both, each rides its own
# random input.  The experiment's dimension is that of its initial condition.
_ALIGNMENT = {"k": "1.0", "gamma": "0.1 + 0.05*theta"}
_MORSE = {"a": 0.07, "b": 0.05, "c_a": "30 + theta", "c_r": "10 + theta",
          "ell_a": 100.0, "ell_r": 3.0}
EXPERIMENTS = {
    "homogeneous": ("bimodal_velocity_1d", {"k": "1.0", "gamma": "0"}),
    "cs_1d": ("bivariate_bimodal_1d", _ALIGNMENT),
    "cs_2d": ("annulus_rotating_2d", _ALIGNMENT),
    "mill_2d": ("annulus_rotating_2d", _MORSE),
    "combined_2d": ("annulus_rotating_2d", {**_ALIGNMENT, "k": "5.0", **_MORSE}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_particles: int
    subsample_size: int
    order: int
    quad_points: int | None
    dt: float
    t_end: float
    seed: int
    family: str
    model_params: dict
    ic_kind: str
    ic_params: dict
    out_dir: str
    stride: int
    grid_min: float
    grid_max: float
    grid_bins: int
    pgm: bool
    integrator: str
    reference: str
    reference_order: int | None
    oracle_points: int
    oracle_v_min: float
    oracle_v_max: float
    source: str


def preset_path(name: str) -> Path:
    """Filesystem path of a shipped preset (name with or without .cfg)."""
    fname = name if name.endswith(".cfg") else name + ".cfg"
    path = resources.files("swarmuq").joinpath("presets", fname)
    if not path.is_file():
        raise ConfigurationError(f"no shipped preset named {name!r}")
    return Path(str(path))


def available_presets() -> list[str]:
    folder = resources.files("swarmuq").joinpath("presets")
    return sorted(p.name[:-4] for p in folder.iterdir() if p.name.endswith(".cfg"))


def _one_of(*choices: str):
    def cast(text: str) -> str:
        if text not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return text
    return cast


def _as_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("choose from 1/0, true/false, yes/no, on/off") from None


def _as_float(text: str) -> float:
    """A real value; an infinity or a NaN is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _as_int(text: str) -> int:
    """An integer value, written as an integer or in exponent form (1e4);
    a fraction, an infinity or a NaN is an error."""
    value = _as_float(text)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _as_affine(text: str) -> str:
    """An uncertain scalar, affine in theta; kept as written."""
    UncertainScalar.parse(text)
    return text


def _cast_like(default):
    """How to cast a config value whose default is ``default``."""
    if isinstance(default, bool):
        return _as_bool
    return _as_affine if isinstance(default, str) else _as_float


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file (or shipped preset name).

    Every key is read through one ``get``, which casts it and records it;
    any section or key of the file that was not read is an error."""
    candidate = Path(path)
    if not candidate.exists():
        try:
            candidate = preset_path(str(path))
        except ConfigurationError:
            raise ConfigurationError(
                f"config file {path!r} not found (shipped presets: {', '.join(available_presets())})")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(candidate) as fh:
            parser.read_file(fh, source=str(candidate))
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {candidate}: {exc}") from exc

    required = object()
    read = set()

    def get(section, key, default=required, cast=str):
        read.add((section, key.lower()))
        if not parser.has_option(section, key):
            if default is required:
                raise ConfigurationError(f"{candidate}: missing [{section}] {key}")
            return default
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{candidate}: bad value for [{section}] {key}: {raw!r} ({exc})") from exc

    def given(section, casts):
        """The keys of ``casts`` that the file sets, cast."""
        return {key: value for key, cast in casts.items()
                if (value := get(section, key, None, cast)) is not None}

    kind = get("experiment", "kind", cast=_one_of(*EXPERIMENTS))
    default_ic, model_defaults = EXPERIMENTS[kind]
    ic_kind = get("initial", "kind", default_ic, lambda s: ICKind(s).value)
    ic_signature = inspect.signature(getattr(InitialCondition, ic_kind))
    cfg = ExperimentConfig(
        kind=kind,
        n_particles=get("experiment", "N", cast=_as_int),
        subsample_size=get("experiment", "S", cast=_as_int),
        order=get("experiment", "M", cast=_as_int),
        quad_points=get("experiment", "Q", None, _as_int),
        dt=get("experiment", "dt", cast=_as_float),
        t_end=get("experiment", "t_end", cast=_as_float),
        seed=get("experiment", "seed", 0, _as_int),
        family=get("experiment", "family", "legendre", lambda s: PolynomialFamily(s.lower()).value),
        model_params=given("model", {key: _cast_like(value) for key, value in model_defaults.items()}),
        ic_kind=ic_kind,
        ic_params=given("initial", {name: _cast_like(param.default)
                                    for name, param in ic_signature.parameters.items()}),
        out_dir=get("output", "dir", "out"),
        stride=get("output", "stride", 1, _as_int),
        grid_min=get("output", "grid_min", -2.0, _as_float),
        grid_max=get("output", "grid_max", 2.0, _as_float),
        grid_bins=get("output", "grid_bins", 50, _as_int),
        pgm=get("output", "pgm", False, _as_bool),
        integrator=get("experiment", "integrator", "rk4", _one_of("rk4", "euler")),
        reference=get("converge", "reference", "particle", _one_of("particle", "oracle")),
        reference_order=get("converge", "reference_order", None, _as_int),
        oracle_points=get("oracle", "points", 801, _as_int),
        oracle_v_min=get("oracle", "v_min", -2.0, _as_float),
        oracle_v_max=get("oracle", "v_max", 2.0, _as_float),
        source=str(candidate),
    )
    for section in parser.sections():
        known = {key for s, key in read if s == section}
        if not known:
            raise ConfigurationError(f"{candidate}: unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - known)
        if unknown:
            raise ConfigurationError(
                f"{candidate}: unknown [{section}] key(s) for experiment {kind!r}: {', '.join(unknown)}")
    if cfg.stride < 1:
        raise ConfigurationError(f"{candidate}: [output] stride must be >= 1, got {cfg.stride}")
    if cfg.grid_bins < 1:
        raise ConfigurationError(f"{candidate}: [output] grid_bins must be >= 1, got {cfg.grid_bins}")
    if not cfg.grid_min < cfg.grid_max:
        raise ConfigurationError(
            f"{candidate}: [output] needs grid_min < grid_max, got {cfg.grid_min} and {cfg.grid_max}")
    build_experiment(cfg)  # validate eagerly, before any artifact is written
    return cfg


def _model(cfg: ExperimentConfig) -> dict:
    """The [model] values: the config's over the experiment's defaults."""
    return {**EXPERIMENTS[cfg.kind][1], **cfg.model_params}


def _force(params_type, model: dict):
    """``params_type`` built from the [model] values, or None when the
    experiment does not read its keys (its fields, lowercased)."""
    keys = {fld.name: fld.name.lower() for fld in dataclasses.fields(params_type)}
    if not model.keys() >= set(keys.values()):
        return None
    return params_type(**{name: model[key] for name, key in keys.items()})


def build_experiment(cfg: ExperimentConfig) -> tuple[InitialCondition, SolverConfig]:
    """Resolve a config into the initial condition and solver configuration."""
    family = PolynomialFamily(cfg.family)
    basis = build_basis(family, cfg.order, cfg.quad_points)
    model_values = _model(cfg)
    alignment = _force(CuckerSmaleParams, model_values)
    morse = _force(MorseSwarmParams, model_values)
    if cfg.kind == "homogeneous" and not alignment.position_independent:
        raise ConfigurationError(
            f"{cfg.source}: the homogeneous experiment requires gamma = 0, got {alignment.gamma}"
        )
    if alignment is not None and morse is not None:
        # Alignment rides the first random input, Morse strengths the second.
        basis = tensor_basis(basis, build_basis(family, cfg.order, cfg.quad_points))
    model = ModelSpec(basis=basis, alignment=alignment, morse=morse)
    ic = getattr(InitialCondition, cfg.ic_kind)(**cfg.ic_params)
    expected_dim = getattr(InitialCondition, EXPERIMENTS[cfg.kind][0])().dim
    if ic.dim != expected_dim:
        raise ConfigurationError(
            f"{cfg.source}: experiment {cfg.kind!r} is {expected_dim}D but initial condition is {ic.dim}D"
        )
    solver_cfg = SolverConfig(
        n_particles=cfg.n_particles,
        dt=cfg.dt,
        t_end=cfg.t_end,
        subsample_size=cfg.subsample_size,
        seed=cfg.seed,
        model=model,
        integrator=cfg.integrator,
    )
    return ic, solver_cfg


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, command: str, threads: int,
                    extra: dict | None = None) -> None:
    lines = [f"swarmuq_version={__version__}", f"command={command}", f"threads={threads}"]
    for fld in dataclasses.fields(cfg):
        value = getattr(cfg, fld.name)
        if isinstance(value, dict):
            for key, item in sorted(value.items()):
                lines.append(f"{fld.name}.{key}={item}")
        else:
            lines.append(f"{fld.name}={value}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _grid_axes(cfg: ExperimentConfig, n: int):
    return [(cfg.grid_min, cfg.grid_max, cfg.grid_bins)] * n


def _emit_densities(out_dir: Path, ens, cfg: ExperimentConfig) -> None:
    kinds = [("position", ens.dim), ("velocity", ens.dim)]
    if ens.dim == 1:
        kinds.append(("phase-space", 2))
    for kind, n_axes in kinds:
        grid = reconstruct_expected_density(ens, _grid_axes(cfg, n_axes), kind=kind)
        name = kind.replace("-", "_")
        write_density_csv(grid, out_dir / f"density_{name}.csv")
        if cfg.pgm and grid.values.ndim == 2:
            write_pgm(grid, out_dir / f"density_{name}.pgm")
    if ens.dim == 2:
        counts, means = velocity_field(ens, _grid_axes(cfg, 2))
        write_velocity_field_csv(counts, means, out_dir / "velocity_field.csv")


def _configured(config_path, out: str | None = None, seed: int | None = None) -> ExperimentConfig:
    """Load a config and apply the command-line overrides."""
    cfg = load_config(config_path)
    if out is not None:
        cfg = dataclasses.replace(cfg, out_dir=out)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _exit_code(command):
    """Report a command's failures on stderr with their exit codes: 2 for a
    configuration error, 3 for a numerical failure.  Commands validate
    their inputs before they create the output directory, so a
    configuration error leaves nothing behind."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except (IntegrationBlowupError, SchemeFailureError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3

    return guarded


def _run_threads(threads: int | None) -> int:
    """Worker count of ``run``: ``threads``, or every usable core when it
    is None, and never more than the usable cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return cores if threads is None else min(threads, cores)


@_exit_code
def cmd_run(config_path, out: str | None = None, seed: int | None = None,
            threads: int | None = None) -> int:
    cfg = _configured(config_path, out, seed)
    ic, solver_cfg = build_experiment(cfg)
    basis = solver_cfg.model.basis
    threads = _run_threads(threads)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, final = run(ic, solver_cfg, observers=[lambda e: compute_stats(e, basis)],
                         observer_stride=cfg.stride, threads=threads)
    write_stats_csv([stats for _, (stats,) in records], out_dir / "stats.csv")
    _emit_densities(out_dir, final, cfg)
    save_snapshot(final, out_dir / "ensemble_final.csv", basis=basis, seed=cfg.seed)
    _write_manifest(out_dir, cfg, "run", threads)
    return 0


def _sweep_points(cfg: ExperimentConfig, axis: str, values: list[int]):
    for value in values:
        if axis == "M":
            yield value, dataclasses.replace(cfg, order=value, quad_points=None)
        elif axis == "S":
            yield value, dataclasses.replace(cfg, subsample_size=value)
        elif axis == "N":
            sub = min(cfg.subsample_size, value)
            yield value, dataclasses.replace(cfg, n_particles=value, subsample_size=sub)
        else:
            raise ConfigurationError(f"sweep axis must be M, S or N, got {axis!r}")


def _final_temperature(cfg: ExperimentConfig) -> float:
    ic, solver_cfg = build_experiment(cfg)
    _, final = run(ic, solver_cfg)
    return expected_temperature(final, solver_cfg.model.basis)


def _oracle_problem(cfg: ExperimentConfig):
    """Velocity grid, basis, initial density and strength K of the
    finite-difference reference solve."""
    grid = VelocityGrid(cfg.oracle_v_min, cfg.oracle_v_max, cfg.oracle_points)
    basis = build_basis(PolynomialFamily(cfg.family), cfg.order, cfg.quad_points)
    ic = getattr(InitialCondition, cfg.ic_kind)(**cfg.ic_params).params
    # the velocity law of either 1D initial condition: two bumps at +-mu or +-vbar
    f0 = bimodal_density(grid, ic["sigma_v_sq"], ic["vbar"] if "vbar" in ic else ic["mu"])
    return grid, basis, f0, _model(cfg)["k"]


def _oracle_temperature(cfg: ExperimentConfig) -> float:
    grid, basis, f0, strength = _oracle_problem(cfg)
    sol = sg_homogeneous_solve(f0, strength, basis, grid, t_end=cfg.t_end)
    return oracle_expected_temperature(sol, basis)


@_exit_code
def cmd_converge(config_path, sweep: str, out: str | None = None, seed: int | None = None,
                 threads: int | None = None) -> int:
    cfg = _configured(config_path, out, seed)
    axis, _, raw_values = sweep.partition("=")
    axis = axis.strip().upper()
    try:
        values = [_as_int(v) for v in raw_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad sweep values {raw_values!r}") from exc
    if not values:
        raise ConfigurationError(f"empty sweep {sweep!r}")
    points = list(_sweep_points(cfg, axis, values))
    if cfg.reference == "oracle" and cfg.kind != "homogeneous":
        raise ConfigurationError("the oracle reference is only available for the homogeneous experiment")
    ref_cfg = None
    if cfg.reference == "particle":
        ref_order = cfg.reference_order
        if ref_order is None:
            ref_order = max(values) + 4 if axis == "M" else cfg.order
        ref_cfg = dataclasses.replace(cfg, order=ref_order, quad_points=None,
                                      subsample_size=cfg.n_particles)
    # build every experiment and the reference problem now, so that a bad
    # point or oracle grid fails before anything is written
    for point_cfg in [pc for _, pc in points] + ([ref_cfg] if ref_cfg else []):
        build_experiment(point_cfg)
    if ref_cfg is None:
        _oracle_problem(cfg)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = _oracle_temperature(cfg) if ref_cfg is None else _final_temperature(ref_cfg)
    threads = threads or 1   # sweep points in parallel, each run on one thread
    with ThreadPoolExecutor(max_workers=threads) as pool:
        temps = list(pool.map(lambda pc: _final_temperature(pc[1]), points))
    write_rows(out_dir / "errors.csv",
               ((point_cfg.order, point_cfg.subsample_size, point_cfg.n_particles, temp, reference,
                 convergence_error(temp, reference), convergence_error(temp, reference, relative=True))
                for (_, point_cfg), temp in zip(points, temps)),
               ["M,S,N,temperature,reference,abs_error,rel_error"])
    _write_manifest(out_dir, cfg, f"converge --sweep {sweep}", threads,
                    extra={"reference_value": reference})
    return 0


@_exit_code
def cmd_oracle(config_path, out: str | None = None) -> int:
    cfg = _configured(config_path, out)  # the reference solve draws no random numbers
    if cfg.kind != "homogeneous":
        raise ConfigurationError("the oracle command only applies to the homogeneous experiment")
    grid, basis, f0, strength = _oracle_problem(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history = []
    stride = max(1, int(round(cfg.dt / (grid.dv ** 2)))) * cfg.stride
    sol = sg_homogeneous_solve(
        f0, strength, basis, grid, t_end=cfg.t_end,
        observers=[lambda s: history.append((s.time, oracle_expected_temperature(s, basis)))],
        observer_stride=stride,
    )
    write_rows(out_dir / "oracle_solution.csv", sol.coeffs.T)
    meta = {
        "v_min": grid.v_min, "v_max": grid.v_max, "n_points": grid.n_points,
        "M": cfg.order, "family": cfg.family, "time": sol.time, "u": sol.u,
    }
    (out_dir / "oracle_solution.csv.meta.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in meta.items()))
    write_rows(out_dir / "oracle_temperature.csv", history, ["t,temperature"])
    _write_manifest(out_dir, cfg, "oracle", 1)
    return 0


def _positive_int(text: str) -> int:
    """argparse type of ``--threads``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swarmuq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"swarmuq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, seeded=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="config file path or shipped preset name")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
            p.add_argument("--threads", type=_positive_int, default=None,
                           help="worker threads: for run, those that share each step's subsample draw and "
                                "each stage's work (default and limit: the usable cores); for converge, "
                                "the sweep points run at once (default 1)")
        return p

    command("run", "integrate one experiment and emit artifacts")
    command("converge", "sweep M, S or N and tabulate temperature errors").add_argument(
        "--sweep", required=True, metavar="AXIS=V1,V2,...", help="sweep axis and values, e.g. M=1,2,3,4,5")
    command("oracle", "finite-difference reference for the homogeneous case", seeded=False)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, out=args.out, seed=args.seed, threads=args.threads)
    if args.command == "converge":
        return cmd_converge(args.config, sweep=args.sweep, out=args.out, seed=args.seed,
                            threads=args.threads)
    return cmd_oracle(args.config, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
