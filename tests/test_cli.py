import configparser
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import swarmuq
from swarmuq.cli import (
    _run_threads,
    available_presets,
    build_experiment,
    cmd_converge,
    cmd_oracle,
    cmd_run,
    load_config,
    main,
    preset_path,
)
from swarmuq.errors import ConfigurationError
from swarmuq.solver import _SHARED_PRODUCT_MIN, _Context, _Workers

MINI_CONFIG = """
[experiment]
kind = cs_1d
N = 200
S = 5
M = 3
dt = 0.01
t_end = 0.1
seed = 7

[model]
K = 1.0
gamma = 0.1 + 0.05*theta

[output]
dir = {out}
stride = 5
"""

MINI_HOMOGENEOUS = """
[experiment]
kind = homogeneous
N = 500
S = 500
M = 3
dt = 0.01
t_end = 0.2
seed = 3

[model]
K = 1.0 + 0.25*theta
gamma = 0.0

[output]
dir = {out}
stride = 10

[oracle]
points = 101

[converge]
reference = particle
"""

MINI_2D = """
[experiment]
kind = cs_2d
N = 150
S = 5
M = 3
dt = 0.01
t_end = 0.05
seed = 2

[model]
K = 1.0
gamma = 0.1 + 0.05*theta

[output]
dir = {out}
stride = 5
pgm = true
"""


def _write(tmp_path, text, name="config.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return path


def test_all_presets_parse_and_build(tmp_path):
    names = available_presets()
    assert {"homogeneous", "cs_1d", "cs_1d_desk", "cs_2d", "cs_2d_desk",
            "mill_2d", "mill_2d_desk", "combined_2d", "combined_2d_desk"} <= set(names)
    for name in names:
        cfg = load_config(name)
        ic, solver_cfg = build_experiment(cfg)
        assert solver_cfg.subsample_size <= solver_cfg.n_particles
        # written back with the keys' case kept (N, C_A), as the benchmark does
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        parser.optionxform = str
        parser.read(preset_path(name))
        with open(tmp_path / f"{name}.cfg", "w") as fh:
            parser.write(fh)
        assert load_config(tmp_path / f"{name}.cfg").model_params == cfg.model_params


def test_preset_path_unknown_name():
    with pytest.raises(ConfigurationError):
        preset_path("nonexistent_preset")


def test_run_emits_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(out))
    assert cmd_run(str(cfg_path)) == 0
    names = {p.name for p in out.iterdir()}
    assert {"stats.csv", "density_position.csv", "density_velocity.csv",
            "density_phase_space.csv", "ensemble_final.csv",
            "ensemble_final.csv.meta.txt", "manifest.txt"} <= names
    stats = (out / "stats.csv").read_text().splitlines()
    assert len(stats) >= 3  # header + initial + final
    manifest = (out / "manifest.txt").read_text()
    assert "swarmuq_version=" in manifest and "seed=7" in manifest
    # without --threads, the run's worker count: every usable core
    assert f"threads={_usable_cores()}" in manifest.splitlines()


def test_run_manifest_is_pinned(tmp_path):
    # the whole manifest, so that a reordered, renamed or dropped field shows
    out = tmp_path / "pinned"
    assert main(["run", "homogeneous", "--out", str(out), "--seed", "11", "--threads", "1"]) == 0
    assert (out / "manifest.txt").read_text() == textwrap.dedent(f"""\
        swarmuq_version={swarmuq.__version__}
        command=run
        threads=1
        kind=homogeneous
        n_particles=10000
        subsample_size=10000
        order=5
        quad_points=None
        dt=0.01
        t_end=1.0
        seed=11
        family=legendre
        model_params.gamma=0.0
        model_params.k=1.0 + 0.25*theta
        ic_kind=bimodal_velocity_1d
        ic_params.mu=0.25
        ic_params.sigma_v_sq=0.1
        out_dir={out}
        stride=10
        grid_min=-2.0
        grid_max=2.0
        grid_bins=50
        pgm=False
        integrator=rk4
        reference=particle
        reference_order=None
        oracle_points=101
        oracle_v_min=-2.0
        oracle_v_max=2.0
        source={preset_path("homogeneous")}
        """)


def _usable_cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_run_threads_resolve_to_usable_cores():
    # the resolver alone, so that no thread is started
    cores = _usable_cores()
    assert _run_threads(None) == cores
    assert _run_threads(1_000_000) == cores
    assert _run_threads(1) == 1


def test_worker_count_below_one_exits_2_without_artifacts(tmp_path, capsys):
    # argparse refuses these counts; a library call is checked before the
    # output directory is made
    out = tmp_path / "never"
    cfg_path = _write(tmp_path, MINI_HOMOGENEOUS, out=str(out))
    for threads in (0, -2):
        assert cmd_run(str(cfg_path), threads=threads) == 2
        assert cmd_converge(str(cfg_path), sweep="S=5", threads=threads) == 2
        assert not out.exists()
        assert f"need at least one worker thread, got {threads}" in capsys.readouterr().err


def test_run_zero_t_end_emits_initial_state_only(tmp_path):
    out = tmp_path / "zero"
    text = MINI_CONFIG.replace("t_end = 0.1", "t_end = 0.0")
    cfg_path = _write(tmp_path, text, out=str(out))
    assert cmd_run(str(cfg_path)) == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert len(stats) == 2  # header + t=0 row
    assert float(stats[1].split(",")[0]) == 0.0


def test_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never"
    bad = MINI_CONFIG.replace("kind = cs_1d", "kind = warp_drive")
    cfg_path = _write(tmp_path, bad, out=str(out))
    assert cmd_run(str(cfg_path)) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err
    # missing mandatory key
    broken = MINI_CONFIG.replace("N = 200\n", "")
    cfg_path2 = _write(tmp_path, broken, name="broken.cfg", out=str(out))
    assert cmd_run(str(cfg_path2)) == 2
    assert not out.exists()
    # bad [output] values
    for bad_output in ("stride = 0", "stride = 5\ngrid_bins = 0",
                       "stride = 5\ngrid_min = 2\ngrid_max = -2"):
        text = MINI_CONFIG.replace("stride = 5", bad_output)
        cfg_path4 = _write(tmp_path, text, name="output.cfg", out=str(out))
        assert cmd_run(str(cfg_path4)) == 2, bad_output
        assert not out.exists()
    # a word for a number, a non-boolean, an unknown choice, a key the
    # initial condition does not take
    capsys.readouterr()
    for text, key in ((MINI_2D + "\n[initial]\nr_outer = wide\n", "r_outer"),
                      (MINI_2D.replace("pgm = true", "pgm = maybe"), "pgm"),
                      (MINI_CONFIG + "\n[converge]\nreference = bogus\n", "reference"),
                      (MINI_CONFIG.replace("seed = 7", "seed = 7\nintegrator = verlet"), "integrator"),
                      (MINI_CONFIG + "\n[initial]\nr_middle = 0.7\n", "r_middle")):
        assert cmd_run(str(_write(tmp_path, text, name="value.cfg", out=str(out)))) == 2, key
        assert not out.exists()
        assert key in capsys.readouterr().err
    # every integer key takes an integral finite value, written as an
    # integer or in exponent form, and nothing else
    assert load_config(_write(tmp_path, MINI_CONFIG.replace("N = 200", "N = 2e2"),
                              name="exponent.cfg", out=str(out))).n_particles == 200
    for value in ("inf", "-inf", "nan", "1e400", "2.5"):
        for text, key in ((MINI_CONFIG.replace("N = 200", f"N = {value}"), "N"),
                          (MINI_CONFIG.replace("S = 5", f"S = {value}"), "S"),
                          (MINI_CONFIG.replace("M = 3", f"M = {value}"), "M"),
                          (MINI_CONFIG.replace("seed = 7", f"seed = 7\nQ = {value}"), "Q"),
                          (MINI_CONFIG.replace("seed = 7", f"seed = {value}"), "seed"),
                          (MINI_CONFIG.replace("stride = 5", f"stride = {value}"), "stride"),
                          (MINI_CONFIG.replace("stride = 5", f"stride = 5\ngrid_bins = {value}"), "grid_bins"),
                          (MINI_CONFIG + f"\n[converge]\nreference_order = {value}\n", "reference_order"),
                          (MINI_CONFIG + f"\n[oracle]\npoints = {value}\n", "points")):
            assert cmd_run(str(_write(tmp_path, text, name="int.cfg", out=str(out)))) == 2, (key, value)
            assert not out.exists()
            assert f"] {key}: " in capsys.readouterr().err, (key, value)
    # every real-valued key, [model] and [initial] numbers included, takes
    # a finite value
    mill = MINI_2D.replace("kind = cs_2d", "kind = mill_2d").replace("K = 1.0\ngamma = 0.1 + 0.05*theta", "a = 0.07")
    for value in ("nan", "inf", "-inf", "1e400"):
        for text, key in ((MINI_CONFIG.replace("dt = 0.01", f"dt = {value}"), "dt"),
                          (MINI_CONFIG.replace("t_end = 0.1", f"t_end = {value}"), "t_end"),
                          (MINI_CONFIG.replace("stride = 5", f"stride = 5\ngrid_min = {value}"), "grid_min"),
                          (MINI_CONFIG.replace("stride = 5", f"stride = 5\ngrid_max = {value}"), "grid_max"),
                          (MINI_CONFIG + f"\n[oracle]\nv_min = {value}\n", "v_min"),
                          (MINI_CONFIG + f"\n[oracle]\nv_max = {value}\n", "v_max"),
                          (MINI_CONFIG + f"\n[initial]\nvbar = {value}\n", "vbar"),
                          (mill.replace("a = 0.07", f"a = {value}"), "a"),
                          (mill.replace("a = 0.07", f"ell_r = {value}"), "ell_r")):
            assert cmd_run(str(_write(tmp_path, text, name="float.cfg", out=str(out)))) == 2, (key, value)
            assert not out.exists()
            assert f"] {key}: " in capsys.readouterr().err, (key, value)
    # an uncertain [model] value is a number, theta, + - * and parentheses,
    # affine in theta and with finite coefficients
    for value in ("+", "1 0", "1.0 +", "theta -", "3theta", "theta*theta", "1e400", "sqrt(theta)"):
        for text, key in ((MINI_CONFIG.replace("gamma = 0.1 + 0.05*theta", f"gamma = {value}"), "gamma"),
                          (MINI_CONFIG.replace("K = 1.0", f"K = {value}"), "k")):
            assert cmd_run(str(_write(tmp_path, text, name="model.cfg", out=str(out)))) == 2, (key, value)
            assert not out.exists()
            assert f"] {key}: {value!r}" in capsys.readouterr().err, (key, value)
    # a negative seed fails in run and in converge, not inside the RNG
    negative = _write(tmp_path, MINI_CONFIG.replace("seed = 7", "seed = -1"), name="seed.cfg", out=str(out))
    assert cmd_run(str(negative)) == 2
    assert cmd_converge(str(negative), sweep="S=5") == 2
    assert not out.exists()
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err


def test_misspelled_model_key_exits_2(tmp_path, capsys):
    out = tmp_path / "never"
    typo = MINI_CONFIG.replace("gamma = 0.1", "gama = 0.1")
    assert cmd_run(str(_write(tmp_path, typo, out=str(out)))) == 2
    assert "gama" in capsys.readouterr().err
    # a Morse key is valid elsewhere but not read by an alignment experiment
    unread = MINI_CONFIG.replace("K = 1.0", "K = 1.0\nC_A = 30")
    assert cmd_run(str(_write(tmp_path, unread, name="unread.cfg", out=str(out)))) == 2
    assert "c_a" in capsys.readouterr().err
    assert not out.exists()


def test_misspelled_experiment_key_exits_2(tmp_path, capsys):
    out = tmp_path / "never"
    typo = MINI_CONFIG.replace("seed = 7", "seed = 7\nintegrater = euler")
    assert cmd_run(str(_write(tmp_path, typo, out=str(out)))) == 2
    assert "integrater" in capsys.readouterr().err
    # a misspelled section is as silent as a misspelled key
    section = MINI_CONFIG.replace("[output]", "[ouput]")
    assert cmd_run(str(_write(tmp_path, section, name="section.cfg", out=str(out)))) == 2
    assert "ouput" in capsys.readouterr().err
    assert not out.exists()


def test_counterclockwise_false_runs_clockwise(tmp_path):
    out = tmp_path / "cw"
    clockwise = MINI_2D + "\n[initial]\ncounterclockwise = false\n"
    assert cmd_run(str(_write(tmp_path, clockwise, out=str(out)))) == 0
    first = (out / "stats.csv").read_text().splitlines()[1]
    assert float(first.split(",")[-1]) == 0.0
    assert "ic_params.counterclockwise=False" in (out / "manifest.txt").read_text()


def test_missing_config_file_exits_2(capsys):
    assert cmd_run("/nonexistent/path.cfg") == 2
    err = capsys.readouterr().err
    assert "not found" in err
    assert "cs_1d_desk" in err   # the message lists the shipped presets


def test_unreadable_config_or_output_path_exits_2(tmp_path, capsys, monkeypatch):
    # a directory, or a file that is not UTF-8, in place of a config
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(MINI_CONFIG.format(out=tmp_path / "never").encode() + b"# caf\xe9\n")
    for path in (tmp_path, not_utf8):
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot read {path}" in err, err
    assert not (tmp_path / "never").exists()
    # an output path that is an existing file, or lies under one, fails
    # before any compute
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(blocker))
    homogeneous = _write(tmp_path, MINI_HOMOGENEOUS, name="homogeneous.cfg", out=str(blocker))

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output directory was made")

    monkeypatch.setattr("swarmuq.cli.run", no_compute)
    monkeypatch.setattr("swarmuq.cli.ExactSg.coefficients", no_compute)
    monkeypatch.setattr("swarmuq.cli.ExactSg.temperature", no_compute)
    for out in (blocker, blocker / "x"):
        for args in (["run", str(cfg_path)], ["converge", str(cfg_path), "--sweep", "S=5"],
                     ["oracle", str(homogeneous)]):
            assert main(args + ["--out", str(out)]) == 2, args
            err = capsys.readouterr().err
            assert f"configuration error: cannot create output directory {out}" in err, err
    assert blocker.read_text() == "kept\n"


def test_run_with_one_particle(tmp_path):
    out = tmp_path / "single"
    text = MINI_CONFIG.replace("N = 200", "N = 1").replace("S = 5", "S = 1")
    assert cmd_run(str(_write(tmp_path, text, out=str(out)))) == 0
    lines = (out / "stats.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        values = dict(zip(header, map(float, row.split(","))))
        assert values["Lambda"] == 0.0 and values["Gamma"] == 0.0


def test_homogeneous_requires_zero_gamma(tmp_path):
    bad = MINI_HOMOGENEOUS.replace("gamma = 0.0", "gamma = 0.2")
    cfg_path = _write(tmp_path, bad, out=str(tmp_path / "x"))
    with pytest.raises(ConfigurationError):
        load_config(str(cfg_path))


def test_run_is_reproducible_across_thread_counts(tmp_path):
    # cs_1d's stages are a single row chunk, which runs on the calling
    # thread whatever the count; the small mill has at least 2 row chunks
    # per stage on 2 workers (2 at the current budget), so its second run
    # shares them out on the pool; the subsampled homogeneous run's mean
    # has enough multiply-adds to be split into one row block per worker
    mill = (MINI_MILL.replace("N = 100\nS = 5\nM = 2\n", "N = 400\nS = 20\nM = 4\n")
            .replace("t_end = 0.02", "t_end = 0.05"))
    mill_path = _write(tmp_path, mill, name="mill.cfg", out=str(tmp_path / "mill"))
    ic, cfg = build_experiment(load_config(mill_path))
    ws = _Context(cfg.model, _Workers(2)).workspace(cfg.n_particles, cfg.subsample_size, ic.dim)
    assert -(-cfg.n_particles // ws.rows) >= 2
    homogeneous = (MINI_HOMOGENEOUS.replace("N = 500\nS = 500\nM = 3\n", "N = 2000\nS = 50\nM = 5\n")
                   .replace("t_end = 0.2", "t_end = 0.05"))
    homogeneous_path = _write(tmp_path, homogeneous, name="homogeneous.cfg",
                              out=str(tmp_path / "homogeneous"))
    ic, cfg = build_experiment(load_config(homogeneous_path))
    assert cfg.n_particles * cfg.subsample_size * ic.dim * cfg.model.basis.n_modes >= _SHARED_PRODUCT_MIN
    cs_path = _write(tmp_path, MINI_CONFIG, name="cs_1d.cfg", out=str(tmp_path / "cs_1d"))
    for name, cfg_path in (("cs_1d", cs_path), ("mill", mill_path), ("homogeneous", homogeneous_path)):
        for threads in (1, 2):
            assert cmd_run(str(cfg_path), out=str(tmp_path / f"{name}_{threads}"), threads=threads) == 0
        for artifact in ("stats.csv", "ensemble_final.csv"):
            one, two = (tmp_path / f"{name}_{threads}" / artifact for threads in (1, 2))
            assert one.read_bytes() == two.read_bytes(), (name, artifact)


def test_seed_override_changes_output(tmp_path):
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(tmp_path / "s1"))
    cmd_run(str(cfg_path), out=str(tmp_path / "s1"))
    cmd_run(str(cfg_path), out=str(tmp_path / "s2"), seed=99)
    a = (tmp_path / "s1" / "stats.csv").read_text()
    b = (tmp_path / "s2" / "stats.csv").read_text()
    assert a != b
    assert "seed=99" in (tmp_path / "s2" / "manifest.txt").read_text()


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle"
    cfg_path = _write(tmp_path, MINI_HOMOGENEOUS, out=str(out))
    assert cmd_oracle(str(cfg_path)) == 0
    names = {p.name for p in out.iterdir()}
    assert {"oracle_solution.csv", "oracle_solution.csv.meta.txt",
            "oracle_temperature.csv", "manifest.txt"} <= names
    rows = (out / "oracle_temperature.csv").read_text().splitlines()
    t0 = float(rows[1].split(",")[1])
    t_end, t_final = map(float, rows[-1].split(","))
    assert abs(t_end - 0.2) < 1e-9
    # uncertain strength: decay bracketed by the extreme node rates
    assert t0 * np.exp(-2 * 1.25 * 0.2) < t_final < t0 * np.exp(-2 * 0.75 * 0.2)
    # solution matrix: rows = grid points, columns = modes
    data = np.loadtxt(out / "oracle_solution.csv", delimiter=",")
    assert data.shape == (101, 4)


def test_oracle_deterministic_strength_decay(tmp_path):
    out = tmp_path / "oracle_det"
    text = MINI_HOMOGENEOUS.replace("K = 1.0 + 0.25*theta", "K = 1.0").replace(
        "t_end = 0.2", "t_end = 1.0")
    cfg_path = _write(tmp_path, text, out=str(out))
    assert cmd_oracle(str(cfg_path)) == 0
    rows = (out / "oracle_temperature.csv").read_text().splitlines()[1:]
    t0 = float(rows[0].split(",")[1])
    for row in rows:
        t, temp = map(float, row.split(","))
        assert abs(temp - t0 * np.exp(-2.0 * t)) / (t0 * np.exp(-2.0 * t)) < 0.01


def test_oracle_starts_from_configured_initial_condition(tmp_path):
    # bumps at +-vbar = +-1 with variance 0.2: temperature 0.2 + 1^2, the
    # law's, whatever the output grid; bumps at the default +-mu = +-0.25 give 0.1625
    out = tmp_path / "oracle_vbar"
    text = MINI_HOMOGENEOUS + "\n[initial]\nkind = bivariate_bimodal_1d\nvbar = 1.0\nsigma_v_sq = 0.2\n"
    assert cmd_oracle(str(_write(tmp_path, text, out=str(out)))) == 0
    t0, temp0 = map(float, (out / "oracle_temperature.csv").read_text().splitlines()[1].split(","))
    assert t0 == 0.0
    assert abs(temp0 - 1.2) < 1e-15


def test_oracle_rows_fall_at_the_run_times(tmp_path):
    # a last short step and a stride that does not divide the step count:
    # the oracle's t column is that of stats.csv, byte for byte
    text = MINI_HOMOGENEOUS.replace("t_end = 0.2", "t_end = 0.235").replace("stride = 10", "stride = 7")
    cfg_path = _write(tmp_path, text, out=str(tmp_path / "unused"))
    assert cmd_run(str(cfg_path), out=str(tmp_path / "run"), threads=1) == 0
    assert cmd_oracle(str(cfg_path), out=str(tmp_path / "oracle")) == 0
    t_column = lambda path: [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
    times = t_column(tmp_path / "run" / "stats.csv")
    assert len(times) == 5 and float(times[-1]) != 0.235
    assert t_column(tmp_path / "oracle" / "oracle_temperature.csv") == times
    meta = (tmp_path / "oracle" / "oracle_solution.csv.meta.txt").read_text().splitlines()
    assert "solution=exact stochastic Galerkin" in meta and f"time={times[-1]}" in meta


def test_oracle_rejects_non_homogeneous(tmp_path, capsys):
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(tmp_path / "x"))
    assert cmd_oracle(str(cfg_path)) == 2
    assert "homogeneous" in capsys.readouterr().err


def test_converge_single_point_matches_run_error(tmp_path):
    out = tmp_path / "conv"
    cfg_path = _write(tmp_path, MINI_HOMOGENEOUS, out=str(out))
    assert cmd_converge(str(cfg_path), sweep="M=3") == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "M,S,N,temperature,reference,abs_error,rel_error"
    assert len(rows) == 2
    m, s, n, temp, ref, abs_err, rel_err = rows[1].split(",")
    assert (m, s, n) == ("3", "500", "500")
    assert abs(float(abs_err) - abs(float(temp) - float(ref))) < 1e-15


def test_converge_m_sweep_decreases(tmp_path):
    out = tmp_path / "conv_m"
    cfg_path = _write(tmp_path, MINI_HOMOGENEOUS, out=str(out))
    assert cmd_converge(str(cfg_path), sweep="M=1,2,3", threads=2) == 0
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    errors = [float(r.split(",")[5]) for r in rows]
    assert errors[2] < errors[0]


def test_converge_rejects_bad_sweeps(tmp_path, capsys):
    cfg_path = _write(tmp_path, MINI_HOMOGENEOUS, out=str(tmp_path / "x"))
    assert cmd_converge(str(cfg_path), sweep="Z=1,2") == 2
    assert cmd_converge(str(cfg_path), sweep="M=") == 2
    assert cmd_converge(str(cfg_path), sweep="M=a,b") == 2
    for bad in ("S=inf", "S=2.5", "N=nan", "M=1e400", "M=2,-inf"):
        assert cmd_converge(str(cfg_path), sweep=bad) == 2, bad
    # a worker pool of no threads fails in argparse, before the reference solve
    with pytest.raises(SystemExit) as exc:
        main(["converge", str(cfg_path), "--sweep", "S=5", "--threads", "-1"])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()
    assert "--threads" in capsys.readouterr().err
    # a bad point after a good one fails before the reference solve and the mkdir
    small = _write(tmp_path, MINI_HOMOGENEOUS.replace("N = 500\nS = 500", "N = 200\nS = 200"),
                   name="small.cfg", out=str(tmp_path / "y"))
    for bad in ("S=10,500", "N=0,100", "M=0,-1"):
        assert cmd_converge(str(small), sweep=bad) == 2
        assert not (tmp_path / "y").exists()
    # so does an oracle reference on a grid of too few points
    text = MINI_HOMOGENEOUS.replace("points = 101", "points = 2").replace("= particle", "= oracle")
    oracle = _write(tmp_path, text, name="oracle.cfg", out=str(tmp_path / "z"))
    assert cmd_converge(str(oracle), sweep="M=2") == 2
    assert not (tmp_path / "z").exists()


def test_cli_main_entrypoint(tmp_path):
    out = tmp_path / "main_out"
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(out))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    with pytest.raises(SystemExit):
        main(["--version"])
    # the reference solve draws no random numbers and runs on one thread
    with pytest.raises(SystemExit):
        main(["oracle", str(cfg_path), "--seed", "1"])
    other = tmp_path / "no_threads"
    for threads in ("0", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg_path), "--out", str(other), "--threads", threads])
        assert exc.value.code == 2
        assert not other.exists()
    # so does a negative --seed, for run and converge
    assert main(["run", str(cfg_path), "--out", str(other), "--seed", "-3"]) == 2
    assert main(["converge", str(cfg_path), "--sweep", "S=5", "--out", str(other), "--seed", "-3"]) == 2
    assert not other.exists()


def test_2d_run_emits_velocity_field(tmp_path):
    out = tmp_path / "annulus"
    cfg_path = _write(tmp_path, MINI_2D, out=str(out))
    assert cmd_run(str(cfg_path)) == 0
    names = {p.name for p in out.iterdir()}
    assert "velocity_field.csv" in names
    assert "density_position.pgm" in names
    pgm = (out / "density_position.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[2] == "255"


MINI_MILL = """
[experiment]
kind = mill_2d
N = 100
S = 5
M = 2
dt = 0.01
t_end = 0.02
seed = 4

[output]
dir = {out}
"""


def _fresh_python(tmp_path, script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this swarmuq: the
    test process has imported scipy already."""
    env = dict(os.environ)
    src = str(Path(swarmuq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_no_run_loads_scipy(tmp_path):
    # scipy is a test dependency only: a mill run, a homogeneous run with
    # S = N and one with S < N (the subsample mean) and the oracle load no
    # scipy module
    mill = _write(tmp_path, MINI_MILL, name="mill.cfg", out=str(tmp_path / "mill"))
    full = _write(tmp_path, MINI_HOMOGENEOUS, name="full.cfg", out=str(tmp_path / "full"))
    sub = _write(tmp_path, MINI_HOMOGENEOUS.replace("S = 500", "S = 20"),
                 name="sub.cfg", out=str(tmp_path / "sub"))
    done = _fresh_python(tmp_path, f"""
        import sys
        from swarmuq.cli import cmd_oracle, cmd_run
        assert cmd_run({str(mill)!r}) == 0 and cmd_run({str(full)!r}) == 0 and cmd_run({str(sub)!r}) == 0
        assert cmd_oracle({str(full)!r}, out="oracle") == 0
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
    """)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sub" / "ensemble_final.csv").exists()
    assert (tmp_path / "oracle" / "oracle_temperature.csv").exists()


def test_converge_threads_write_the_same_errors(tmp_path):
    # The reference is all-to-all and the sweep points take subsample
    # means, on 3 worker threads and on one: the error tables are the same
    # bytes, and neither run loads scipy.
    cfg = _write(tmp_path, MINI_HOMOGENEOUS.replace("N = 500\nS = 500", "N = 200\nS = 200"),
                 out=str(tmp_path / "unused"))
    for threads in (3, 1):
        done = _fresh_python(tmp_path, f"""
            import sys
            from swarmuq.cli import main
            code = main(["converge", {str(cfg)!r}, "--sweep", "S=5,10,20",
                         "--threads", "{threads}", "--out", "t{threads}"])
            sys.exit(code or any(name.split(".")[0] == "scipy" for name in sys.modules))
        """)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "t3" / "errors.csv").read_bytes() == (tmp_path / "t1" / "errors.csv").read_bytes()
