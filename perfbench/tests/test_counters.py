"""The traced run's exact counters repeat bit for bit for a fixed seed and
equal their closed forms; the layer spans fit inside run_s.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import dataclasses

import pytest

import run

STEPS = 2
EXACT = ("solver.pair_node_evals", "models.morse_radial_slope_elements",
         "models.alignment_kernel_elements", "solver.partner_draws", "ensemble.snapshot_bytes",
         "solver.steps", "solver.draw_subsamples_calls", "diagnostics.compute_stats_calls")
# (N, S, Q, uses Morse, uses the alignment kernel) of each workload
SHAPES = {
    "mill_morse": (2000, 10, 10, True, False),
    "combined_tensor": (1000, 5, 100, True, True),
    "homogeneous_dense": (10000, 100, 12, False, False),
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_exact_counters_repeat_and_match_closed_forms(name, tmp_path):
    workload = dataclasses.replace(run.WORKLOADS[name], steps=STEPS)
    config = tmp_path / "workload.cfg"
    run.write_config(workload, config)
    layers = []
    for k in range(2):
        result, error = run.run_child(config, tmp_path / f"out-{k}", 5, "1", timeout=120)
        assert error == ""
        assert run.trace_failures(result["layers"], workload, result["evals_per_step"]) == []
        layers.append(result["layers"])
    assert set(run.PER_LAYER) - {"trace_overhead_s"} <= set(layers[0])
    first, second = ({key: layer[key] for key in EXACT} for layer in layers)
    assert first == second

    n, s, q, morse, alignment = SHAPES[name]
    evals = n * s * q * 4 * STEPS
    assert first["solver.pair_node_evals"] == evals
    assert first["solver.partner_draws"] == n * s * STEPS
    assert first["solver.draw_subsamples_calls"] == STEPS
    assert first["models.morse_radial_slope_elements"] == (evals if morse else 0)
    assert first["models.alignment_kernel_elements"] == (evals if alignment else 0)
    assert first["ensemble.snapshot_bytes"] > 0
    for layer in layers:
        assert 0.0 < layer["layers_top_level_s"] <= layer["run_s"]
        assert layer["solver.step_self_s"] <= layer["solver.step_s"]
