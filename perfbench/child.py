"""One measured `swarmuq run` in a fresh interpreter.

Usage (started by run.py, one child at a time):

    python3 perfbench/child.py ROOT CONFIG OUT SEED TRACE

ROOT is the checkout whose ``src/`` is imported, CONFIG the workload
config, OUT the output directory, TRACE 0 or 1.  With TRACE = warmup the
child stops after set-up, which fills the bytecode and page caches.

The child prints one JSON line: the monotonic time at which set-up ended
(the parent subtracts its spawn time to get ``setup_s``), the wall time
of the ``swarmuq.cli.main`` call, the time of the single ``solver.run``
call inside it, the speed probe's time inside the run and per chunk,
``ru_maxrss`` and the BLAS stamp.  With TRACE = 1 the
public functions at each layer boundary are wrapped where their callers
look them up (``swarmuq.cli.<fn>`` and ``swarmuq.solver.<fn>``); spans
stay in memory and are summarised into per-layer metrics at the end.
Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


# Span names whose summed duration is reported as "<name>_s".
TIMED_SPANS = ("cli.load_config", "gpc.build_basis", "ensemble.sample_initial",
               "solver.draw_subsamples", "models.morse_radial_slope", "models.alignment_kernel",
               "solver.step", "diagnostics.compute_stats", "diagnostics.reconstruct",
               "diagnostics.write", "ensemble.save_snapshot")


class Tracer:
    """Spans (name, start, end, parent index) and exact work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per
        call; ``count(args, result)`` returns counter increments."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        setattr(module, attr, traced)

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics of one traced run (inclusive seconds per span
        name, self time of the steps, step percentiles, exact counters)."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        steps_ms = sorted((end - start) * 1e3 for name, start, end, _ in self.spans
                          if name == "solver.step")
        step_self = sum(end - start - child_time[i]
                        for i, (name, start, end, _) in enumerate(self.spans) if name == "solver.step")
        out = {f"{name}_s": total.get(name, 0.0) for name in TIMED_SPANS}
        out.update({
            "solver.draw_subsamples_calls": calls.get("solver.draw_subsamples", 0),
            "solver.steps": calls.get("solver.step", 0),
            "solver.step_ms_p50": percentile(steps_ms, 0.5),
            "solver.step_ms_p90": percentile(steps_ms, 0.9),
            "solver.step_self_s": step_self,
            "diagnostics.compute_stats_calls": calls.get("diagnostics.compute_stats", 0),
        })
        for key in ("solver.partner_draws", "solver.pair_node_evals",
                    "models.morse_radial_slope_elements", "models.alignment_kernel_elements",
                    "ensemble.snapshot_bytes"):
            out[key] = self.counts.get(key, 0)
        out["layers_top_level_s"] = top_level
        out["run_s"] = run_s
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _numel(value) -> int:
    import numpy as np
    return int(np.size(value))


def evals_per_step(cfg) -> int:
    """Nominal N * S * Q * stages pair-node evaluations of one step."""
    stages = 4 if cfg.integrator == "rk4" else 1
    return cfg.n_particles * cfg.subsample_size * cfg.model.basis.basis_table.shape[1] * stages


def _snapshot_bytes(args, result) -> dict:
    path = Path(args[1])
    meta = path.with_name(path.name + ".meta.txt")
    return {"ensemble.snapshot_bytes": path.stat().st_size + meta.stat().st_size}


def install_tracer(cli, solver) -> Tracer:
    """Wrap every layer boundary that `swarmuq run` crosses."""
    tracer = Tracer()
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "build_basis", "gpc.build_basis")
    tracer.wrap(cli, "run", "solver.run")
    tracer.wrap(cli, "compute_stats", "diagnostics.compute_stats")
    tracer.wrap(cli, "reconstruct_expected_density", "diagnostics.reconstruct")
    tracer.wrap(cli, "velocity_field", "diagnostics.reconstruct")
    for writer in ("write_stats_csv", "write_density_csv", "write_velocity_field_csv"):
        tracer.wrap(cli, writer, "diagnostics.write")
    tracer.wrap(cli, "save_snapshot", "ensemble.save_snapshot", _snapshot_bytes)
    tracer.wrap(solver, "sample_initial", "ensemble.sample_initial")
    # step(ens, cfg, rng, dt)
    tracer.wrap(solver, "step", "solver.step", lambda a, r: {"solver.pair_node_evals": evals_per_step(a[1])})
    tracer.wrap(solver, "draw_subsamples", "solver.draw_subsamples",
                lambda a, r: {"solver.partner_draws": a[1] * a[2]})
    tracer.wrap(solver, "morse_radial_slope", "models.morse_radial_slope",
                lambda a, r: {"models.morse_radial_slope_elements": _numel(a[4])})
    tracer.wrap(solver, "alignment_kernel", "models.alignment_kernel",
                lambda a, r: {"models.alignment_kernel_elements": _numel(a[2])})
    return tracer


class _RunTimer:
    """Times the single ``solver.run`` call that ``cmd_run`` makes and
    notes its nominal N * S * Q * stages pair-node evaluations per step."""

    def __init__(self, cli):
        self.seconds = 0.0
        self.calls = 0
        self.evals_per_step = 0
        inner = cli.run

        def timed(*args, **kwargs):
            self.evals_per_step = evals_per_step(args[1])  # run(ic, cfg, ...)
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        cli.run = timed


class SpeedProbe:
    """Measures the machine's speed during the run.  After every
    ``solver.step`` it times one chunk of a fixed, single-threaded numpy
    kernel (exp, multiply, add and sum over 10^5 doubles, in place).  The
    step and the chunk right after it run at the same host speed, so
    dividing run time by chunk time cancels the host's speed swings (see
    README.md).  Install it after the tracer, so that its chunks fall
    outside the traced step spans."""

    REPEATS = 10

    def __init__(self, solver):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).random(100_000)
        self._b = np.empty_like(self._a)
        self.seconds = 0.0
        self.chunks = 0
        inner = solver.step

        def probed(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self.chunk()

        solver.step = probed

    def chunk(self) -> None:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            np.negative(a, out=b)
            np.exp(b, out=b)
            np.multiply(a, b, out=b)
            np.add(a, b, out=b)
            b.sum()
        self.seconds += time.perf_counter() - start
        self.chunks += 1


def blas_stamp() -> dict:
    """OpenBLAS build configuration and its runtime thread count."""
    import ctypes
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    stamp = {"blas": blas.get("name"), "blas_version": blas.get("version"),
             "openblas_config": None, "openblas_threads": None}
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    stamp["openblas_threads"] = get_threads()
                    stamp["openblas_config"] = get_config().decode()
                    return stamp
    return stamp


def main(argv: list[str]) -> int:
    root, config, out, seed, mode = argv
    sys.path.insert(0, str(Path(root) / "src"))
    import swarmuq.cli as cli
    import swarmuq.solver as solver

    if not Path(cli.__file__).resolve().is_relative_to(Path(root).resolve() / "src"):
        print(f"swarmuq imported from {cli.__file__}, not from {root}/src", file=sys.stderr)
        return 2
    cli.load_config(config)
    setup_end = time.monotonic()
    if mode == "warmup":
        return 0

    tracer = install_tracer(cli, solver) if mode == "1" else None
    probe = SpeedProbe(solver)
    run_timer = _RunTimer(cli)
    start = time.perf_counter()
    code = cli.main(["run", config, "--out", out, "--seed", seed])
    run_s = time.perf_counter() - start
    probe_in_run_s = probe.seconds
    if probe.chunks == 0:
        # solver.run no longer calls solver.step: measure the speed after the run.
        for _ in range(20):
            probe.chunk()

    import resource
    import numpy as np
    import scipy

    result = {
        "exit_code": code,
        "setup_end_monotonic": setup_end,
        "run_s": run_s,
        "solver_run_s": run_timer.seconds,
        "solver_run_calls": run_timer.calls,
        "probe_in_run_s": probe_in_run_s,
        "probe_chunk_s": probe.seconds / probe.chunks,
        "evals_per_step": run_timer.evals_per_step,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_stamp(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
