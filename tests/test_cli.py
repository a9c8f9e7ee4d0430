import configparser

import numpy as np
import pytest

from swarmuq.cli import (
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
    # unparseable model expression
    garbled = MINI_CONFIG.replace("gamma = 0.1 + 0.05*theta", "gamma = sqrt(theta)")
    cfg_path3 = _write(tmp_path, garbled, name="garbled.cfg", out=str(out))
    assert cmd_run(str(cfg_path3)) == 2
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
                      (MINI_CONFIG + "\n[initial]\nr_middle = 0.7\n", "r_middle")):
        assert cmd_run(str(_write(tmp_path, text, name="value.cfg", out=str(out)))) == 2, key
        assert not out.exists()
        assert key in capsys.readouterr().err


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
    assert "not found" in capsys.readouterr().err


def test_homogeneous_requires_zero_gamma(tmp_path):
    bad = MINI_HOMOGENEOUS.replace("gamma = 0.0", "gamma = 0.2")
    cfg_path = _write(tmp_path, bad, out=str(tmp_path / "x"))
    with pytest.raises(ConfigurationError):
        load_config(str(cfg_path))


def test_run_is_reproducible_across_thread_counts(tmp_path):
    cfg_path = _write(tmp_path, MINI_CONFIG, out=str(tmp_path / "a"))
    assert cmd_run(str(cfg_path), out=str(tmp_path / "a"), threads=1) == 0
    assert cmd_run(str(cfg_path), out=str(tmp_path / "b"), threads=4) == 0
    stats_a = (tmp_path / "a" / "stats.csv").read_bytes()
    stats_b = (tmp_path / "b" / "stats.csv").read_bytes()
    assert stats_a == stats_b
    snap_a = (tmp_path / "a" / "ensemble_final.csv").read_bytes()
    snap_b = (tmp_path / "b" / "ensemble_final.csv").read_bytes()
    assert snap_a == snap_b


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
    # bumps at +-vbar = +-1 with variance 0.2: temperature 1.15961 on the
    # 101-point grid over [-2, 2]; bumps at the default +-mu = +-0.25 give 0.262
    out = tmp_path / "oracle_vbar"
    text = MINI_HOMOGENEOUS + "\n[initial]\nkind = bivariate_bimodal_1d\nvbar = 1.0\nsigma_v_sq = 0.2\n"
    assert cmd_oracle(str(_write(tmp_path, text, out=str(out)))) == 0
    t0, temp0 = map(float, (out / "oracle_temperature.csv").read_text().splitlines()[1].split(","))
    assert t0 == 0.0
    assert abs(temp0 - 1.15961) < 1e-5


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
    capsys.readouterr()


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


def test_2d_run_emits_velocity_field(tmp_path):
    out = tmp_path / "annulus"
    cfg_path = _write(tmp_path, MINI_2D, out=str(out))
    assert cmd_run(str(cfg_path)) == 0
    names = {p.name for p in out.iterdir()}
    assert "velocity_field.csv" in names
    assert "density_position.pgm" in names
    pgm = (out / "density_position.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[2] == "255"
