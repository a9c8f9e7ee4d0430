"""Benchmark of `swarmuq run` on three workloads; see perfbench/README.md.

Usage:

    python3 perfbench/run.py --workload mill_morse --seed 1 --seconds 40 --trace 0

A closed loop runs one fresh child interpreter at a time (perfbench/child.py),
each making one ``swarmuq.cli.main(["run", CONFIG, "--out", DIR, "--seed",
SEED])`` call, until ``--seconds`` have passed (at least three runs).  Every
run's outputs are checked (perfbench/checks.py).  Run times are rescaled
to a reference machine speed, measured by a probe kernel between steps
(child.SpeedProbe, normalize below).  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the runs alternate
between traced and untraced and the per-layer metrics are printed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_run, oracle_temperature

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
# Every invocation must end within 180 s; leave room for checks and clean-up.
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    preset: str
    steps: int
    dim: int
    experiment: dict = field(default_factory=dict)
    # Absolute band of the final expected temperature, or None to compare
    # with the `swarmuq oracle` reference within ORACLE_REL_TOL.
    band: tuple[float, float] | None = None


# Final expected temperatures recorded at this commit.  mill_morse, seeds
# 1-10: 1.96485-1.96677 (sd 0.03%); a 10% change of C_A, C_R, a, b or ell_R
# moves it by 0.6-7%.  combined_tensor, seeds 1-14: 0.11995-0.12134 (sd
# 0.36%, the band is about +-5 sd); a 10% change moves seed 1 by -20% (K),
# +2.5% (gamma), +3.6% (a) and -1.7% (C_A).
WORKLOADS = {
    "mill_morse": Workload("mill_2d_desk", steps=100, dim=2, band=(1.9600, 1.9716)),
    "combined_tensor": Workload("combined_2d_desk", steps=40, dim=2, band=(0.1185, 0.1228)),
    "homogeneous_dense": Workload("homogeneous", steps=50, dim=1, experiment={"S": "100"}),
}
# The oracle gives 0.060405 at t = 0.5.  The particle solver gives
# 0.05860-0.06163 over seeds 1-16 (sd 1.1%), and a 10% stronger K gives
# 0.0548 (-9.3%).
ORACLE_REL_TOL = 0.06

# Time of one child.SpeedProbe chunk at the reference speed: its median on
# the reference machine (2-vCPU Intel Xeon, Python 3.11, numpy 2.4).  Times
# are reported at this speed; on another machine they scale by a constant.
REF_CHUNK_S = 0.0025

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def write_config(workload: Workload, path: Path) -> float:
    """The preset with t_end = steps * dt (and any [experiment] overrides);
    returns t_end."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(ROOT / "src" / "swarmuq" / "presets" / f"{workload.preset}.cfg")
    t_end = workload.steps * float(parser["experiment"]["dt"])
    parser["experiment"]["t_end"] = repr(t_end)
    for key, value in workload.experiment.items():
        parser["experiment"][key] = value
    with open(path, "w") as fh:
        parser.write(fh)
    return t_end


def oracle_reference(config: Path, out_dir: Path) -> float:
    """Final expected temperature of `swarmuq oracle` on the workload config."""
    sys.path.insert(0, str(ROOT / "src"))
    from swarmuq.cli import main as swarmuq_main

    code = swarmuq_main(["oracle", str(config), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"swarmuq oracle exited with {code}")
    return oracle_temperature(out_dir)


def run_child(config: Path, out_dir: Path, seed: int, mode: str, timeout: float) -> tuple[dict | None, str]:
    """One child run; returns (its JSON result or None, error text)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(config), str(out_dir), str(seed), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    if mode == "warmup":
        return {}, ""
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"no result line: {proc.stdout[-500:]!r}"
    if result["exit_code"] != 0:
        return None, f"swarmuq run exited with {result['exit_code']}: {proc.stderr.strip()[-2000:]}"
    if result["solver_run_calls"] != 1:
        return None, f"cmd_run made {result['solver_run_calls']} solver.run calls, expected 1"
    result["setup_s"] = result["setup_end_monotonic"] - spawned
    normalize(result)
    return result, ""


def normalize(result: dict) -> None:
    """Rescale the child's run times to the reference speed.  The probe's
    chunks ran inside the run, between steps: take their time out, then
    multiply by how much faster the machine ran than the reference."""
    result["speed"] = REF_CHUNK_S / result["probe_chunk_s"]
    result["wall_run_s"] = result["run_s"]
    for key in ("run_s", "solver_run_s"):
        result[key] = (result[key] - result["probe_in_run_s"]) * result["speed"]


def trace_failures(layers: dict, workload: Workload, evals_per_step: int) -> list[str]:
    """Sanity of one traced run: the layers fit inside run_s and the step
    counters match the workload."""
    failures = []
    if layers["layers_top_level_s"] > layers["run_s"]:
        failures.append(f"layer spans sum to {layers['layers_top_level_s']!r} s > run_s {layers['run_s']!r}")
    if layers["solver.steps"] != workload.steps:
        failures.append(f"traced {layers['solver.steps']} steps, expected {workload.steps}")
    if layers["solver.pair_node_evals"] != evals_per_step * workload.steps:
        failures.append("pair_node_evals counter disagrees with N*S*Q*stages*steps")
    return failures


def machine_stamp(seed: int, child: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    stamp = {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(), "seed": seed}
    for key in ("python", "numpy", "scipy", "blas", "blas_version", "openblas_config", "openblas_threads"):
        stamp[key] = (child or {}).get(key)
    return stamp


def median(values: list, exact: bool = False):
    """Median, or None without values; ``median_low`` keeps counts whole."""
    if not values:
        return None
    return statistics.median_low(values) if exact else statistics.median(values)


def samples(runs: list[dict], workload: Workload, trace: bool) -> dict[str, list]:
    """Per-run values of every metric the invocation reports, except
    trace_overhead_s, which compares the traced and untraced runs."""
    untraced = [r for r in runs if "layers" not in r]
    if not trace:
        return {
            "run_s": [r["run_s"] for r in untraced],
            "pair_node_evals_per_s": [r["evals_per_step"] * workload.steps / r["solver_run_s"]
                                      for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "wall run_s": [r["wall_run_s"] for r in untraced],
            "speed": [r["speed"] for r in untraced],
        }
    layers = [r["layers"] for r in runs if "layers" in r]
    values = {name: [layer[name] for layer in layers] for name in PER_LAYER if name != "trace_overhead_s"}
    values["traced run_s"] = [r["run_s"] for r in runs if "layers" in r]
    values["untraced run_s"] = [r["run_s"] for r in untraced]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swarmuq" / "cli.py").is_file():
        print(f"{ROOT} holds no swarmuq sources (src/swarmuq/cli.py)", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        config = work / "workload.cfg"
        t_end = write_config(workload, config)
        _, warmup_error = run_child(config, work / "warmup", args.seed, "warmup", HARD_LIMIT_S)
        if warmup_error:
            print(f"warm-up run failed: {warmup_error}", file=sys.stderr)
        band = workload.band
        if band is None:
            reference = oracle_reference(config, work / "oracle")
            band = (reference * (1 - ORACLE_REL_TOL), reference * (1 + ORACLE_REL_TOL))

        runs: list[dict] = []
        attempted = failed = 0
        longest = 0.0
        while True:
            elapsed = time.monotonic() - start
            if attempted >= MIN_RUNS and elapsed + longest > args.seconds:
                break
            if elapsed + max(longest, 1.0) > HARD_LIMIT_S:
                break
            traced = args.trace == 1 and attempted % 2 == 0
            out_dir = work / f"run-{attempted}"
            began = time.monotonic()
            result, error = run_child(config, out_dir, args.seed, "1" if traced else "0",
                                      HARD_LIMIT_S - elapsed)
            longest = max(longest, time.monotonic() - began)
            attempted += 1
            failures = [error] if result is None else check_run(out_dir, workload.dim, t_end, band)
            if result is not None and traced:
                failures += trace_failures(result["layers"], workload, result["evals_per_step"])
            if failures:
                failed += 1
                print(f"run {attempted} failed: " + "; ".join(failures), file=sys.stderr)
            else:
                runs.append(result)
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace == 1 else END_TO_END
    values = samples(runs, workload, args.trace == 1)
    metrics = {name: median(values[name], exact=units[name] in ("count", "bytes")) for name in units
               if name in values}
    if args.trace == 1:
        traced, untraced = median(values["traced run_s"]), median(values["untraced run_s"])
        metrics["trace_overhead_s"] = None if traced is None or untraced is None else traced - untraced
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={attempted} (ok {len(runs)}, {'alternating traced/untraced' if args.trace else 'untraced'})")
    print("machine " + json.dumps(machine_stamp(args.seed, runs[0] if runs else None)))
    for name, value in metrics.items():
        spread = (f"median of {len(values[name])}, min {min(values[name])!r}, max {max(values[name])!r}"
                  if values.get(name) else "")
        print(f"{name:36s} {value!r} {units[name]}  {spread}")
    if args.trace == 0 and runs:
        print(f"{'wall run_s':36s} {median(values['wall run_s'])!r} s  (as measured, probe included)")
        print(f"{'speed':36s} {median(values['speed'])!r} x reference  "
              f"(min {min(values['speed'])!r}, max {max(values['speed'])!r})")
    print(f"{'fail_rate':36s} {failed / attempted!r} share ({failed} of {attempted} runs failed)")
    print(json.dumps({
        "correct": failed == 0 and bool(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
