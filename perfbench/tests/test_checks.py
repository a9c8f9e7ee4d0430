"""Each output check passes on real outputs and fails on corrupted ones.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

import checks
import run

sys.path.insert(0, str(run.ROOT / "src"))
from swarmuq.cli import main as swarmuq_main  # noqa: E402


def _short_run(tmp_path_factory, name: str, steps: int = 2):
    workload = dataclasses.replace(run.WORKLOADS[name], steps=steps)
    base = tmp_path_factory.mktemp(name)
    config = base / "workload.cfg"
    t_end = run.write_config(workload, config)
    out = base / "out"
    assert swarmuq_main(["run", str(config), "--out", str(out), "--seed", "1"]) == 0
    return workload, t_end, out


@pytest.fixture(scope="module", params=["mill_morse", "homogeneous_dense"])
def good_run(request, tmp_path_factory):
    """Pristine outputs of a 2-step run in 2D and in 1D."""
    return _short_run(tmp_path_factory, request.param)


@pytest.fixture
def outputs(good_run, tmp_path):
    """A private copy of the outputs that a test may corrupt, its dim,
    t_end and a band around its own final temperature."""
    workload, t_end, out = good_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    temp = checks.final_temperature(copy)
    return copy, workload.dim, t_end, (0.99 * temp, 1.01 * temp)


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_pristine_outputs_pass(outputs):
    out, dim, t_end, band = outputs
    assert checks.check_run(out, dim, t_end, band) == []


@pytest.mark.parametrize("name", ["stats.csv", "density_velocity.csv", "ensemble_final.csv", "manifest.txt"])
def test_missing_artifact_fails(outputs, name):
    out, dim, t_end, band = outputs
    (out / name).unlink()
    assert any(name in f for f in checks.check_run(out, dim, t_end, band))


def test_dimension_specific_artifact_is_required(outputs):
    out, dim, t_end, band = outputs
    (out / checks.ARTIFACTS_BY_DIM[dim][0]).unlink()
    assert checks.check_artifacts(out, dim)


def test_non_finite_stats_fail(outputs):
    out, dim, t_end, band = outputs

    def poison(lines):
        fields = lines[1].split(",")
        fields[4] = "nan"  # Lambda, finite in every dimension
        return [lines[0], ",".join(fields), *lines[2:]]

    _rewrite(out / "stats.csv", poison)
    assert any("not finite" in f for f in checks.check_run(out, dim, t_end, band))


def test_truncated_stats_fail(outputs):
    out, dim, t_end, band = outputs
    _rewrite(out / "stats.csv", lambda lines: lines[:-1])
    assert any("t_end" in f for f in checks.check_stats(out, dim, t_end))


def test_negative_density_fails(outputs):
    out, dim, t_end, band = outputs

    def negate_first_value(lines):
        k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[k].split(",")
        fields[0] = "-1.0"
        lines[k] = ",".join(fields)
        return lines

    _rewrite(out / "density_velocity.csv", negate_first_value)
    assert any("negative" in f for f in checks.check_run(out, dim, t_end, band))


def test_density_mass_not_one_fails(outputs):
    out, dim, t_end, band = outputs
    _rewrite(out / "density_position.csv",
             lambda lines: ["# total_mass=0.98" if l.startswith("# total_mass=") else l for l in lines])
    assert any("total mass" in f for f in checks.check_densities(out))


def test_scaled_density_values_fail(outputs):
    out, dim, t_end, band = outputs

    def halve(lines):
        return [l if l.startswith("#") else ",".join(repr(0.5 * float(x)) for x in l.split(","))
                for l in lines]

    _rewrite(out / "density_position.csv", halve)
    assert any("total mass" in f for f in checks.check_densities(out))


def test_temperature_outside_band_fails(outputs):
    out, dim, t_end, band = outputs
    low, high = band
    assert checks.check_temperature(out, low, high) == []
    assert checks.check_temperature(out, 1.02 * high, 1.03 * high)


def test_wrong_force_fails_the_oracle_check(tmp_path):
    """A 10% stronger alignment K is caught by the homogeneous oracle check,
    while the particle solver on the correct model passes it."""
    workload = run.WORKLOADS["homogeneous_dense"]
    config = tmp_path / "workload.cfg"
    t_end = run.write_config(workload, config)
    reference = run.oracle_reference(config, tmp_path / "oracle")
    band = (reference * (1 - run.ORACLE_REL_TOL), reference * (1 + run.ORACLE_REL_TOL))
    assert abs(reference - 0.060405) < 1e-5

    wrong = tmp_path / "wrong.cfg"
    text = config.read_text()
    assert "K = 1.0 + 0.25*theta" in text
    wrong.write_text(text.replace("K = 1.0 + 0.25*theta", "K = 1.1 + 0.275*theta"))
    for cfg, should_pass in ((config, True), (wrong, False)):
        out = tmp_path / f"out-{cfg.stem}"
        assert swarmuq_main(["run", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        failures = checks.check_run(out, workload.dim, t_end, band)
        assert (failures == []) == should_pass, failures


@pytest.mark.parametrize("name, line, wrong", [
    ("mill_morse", "C_A = 30 + theta", "C_A = 33 + 1.1*theta"),
    ("combined_tensor", "K = 5.0", "K = 5.5"),
])
def test_wrong_force_leaves_the_recorded_band(name, line, wrong, tmp_path):
    """A 10% change of one force parameter moves the final expected
    temperature out of the band recorded for the workload."""
    workload = run.WORKLOADS[name]
    config = tmp_path / "wrong.cfg"
    t_end = run.write_config(workload, config)
    text = config.read_text()
    assert line in text
    config.write_text(text.replace(line, wrong))
    out = tmp_path / "out"
    assert swarmuq_main(["run", str(config), "--out", str(out), "--seed", "1"]) == 0
    assert checks.check_temperature(out, *workload.band)
    assert checks.check_run(out, workload.dim, t_end, workload.band) != []
