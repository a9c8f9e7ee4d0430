"""The speed probe runs one chunk per step, and run times are rescaled to
the reference speed with the probe's time taken out.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import types

import pytest

import child
import run


def test_probe_runs_one_chunk_after_each_step():
    calls = []
    solver = types.SimpleNamespace(step=lambda x: calls.append(x) or x + 1)
    probe = child.SpeedProbe(solver)
    assert [solver.step(k) for k in range(3)] == [1, 2, 3]
    assert calls == [0, 1, 2]
    assert probe.chunks == 3 and probe.seconds > 0.0


def test_normalize_removes_the_probe_and_rescales():
    result = {"run_s": 10.5, "solver_run_s": 8.5, "probe_in_run_s": 0.5,
              "probe_chunk_s": 2 * run.REF_CHUNK_S}
    run.normalize(result)
    # The machine ran at half the reference speed.
    assert result["speed"] == pytest.approx(0.5)
    assert result["wall_run_s"] == 10.5
    assert result["run_s"] == pytest.approx(5.0)
    assert result["solver_run_s"] == pytest.approx(4.0)
