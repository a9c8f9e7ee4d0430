"""Symmetries of the equations, checked on the whole solver path.

Relabelling the particles by a permutation, together with a partner
table that names the same partners in the same order, must move every
particle's trajectory with its label and change no bit of it.  A
rotation of space by 90 degrees or a reflection of it must move the
whole run with it, also bit for bit.  A translation of space, and the
mirror theta -> -theta of the random input, move the run up to the
roundoff of the positions and of the sum over the quadrature nodes.
"""
import dataclasses
import sys

import numpy as np
import pytest

from swarmuq import solver
from swarmuq.cli import build_experiment, load_config
from swarmuq.ensemble import GpcEnsemble, InitialCondition, sample_initial
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.models import CuckerSmaleParams, MorseSwarmParams
from swarmuq.solver import ModelSpec, SolverConfig, _Context, _step_rng, _Workers


def _homogeneous_spec():
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    return ModelSpec(basis=basis, alignment=CuckerSmaleParams(K="1.0+0.25*theta", gamma="0.0"))


def _homogeneous_mill_spec():
    morse = MorseSwarmParams(a=0.7, b=0.5, C_A="30+theta", C_R="10+theta", ell_A=100.0, ell_R=3.0)
    basis = build_basis(PolynomialFamily.LEGENDRE, 3)
    return ModelSpec(basis=basis, alignment=CuckerSmaleParams(K="1+0.5*theta", gamma="0.0"), morse=morse)


def _march(ens, cfg, threads, steps):
    ctx = _Context(cfg.model, _Workers(threads))
    try:
        for k in range(steps):
            ens = solver.step(ens, cfg, _step_rng(cfg.seed, k), ctx=ctx)
    finally:
        ctx.workers.close()
    return ens


def _start(config, n=300):
    """The solver configuration of an experiment config at N = n, and its start."""
    ic, cfg = build_experiment(config)
    cfg = dataclasses.replace(cfg, n_particles=n)
    return cfg, sample_initial(ic, n, cfg.seed, cfg.model.basis.n_modes)


def _assert_relabelling_moves_the_run(monkeypatch, ens, cfg, threads, steps):
    """The run of the permuted start, whose partner table is the original
    one relabelled, is the original run permuted, bit for bit.  Chunks of
    a few rows, the last one partial, are shared by the workers even
    below the sharing threshold, and a short switch interval interleaves
    the workers."""
    n, s = cfg.n_particles, cfg.subsample_size
    perm = np.random.default_rng(s).permutation(n)    # new label i is old label perm[i]
    old_to_new = np.argsort(perm)
    draw = solver.draw_subsamples

    def relabelled(rng, n, s, workers=None):
        sub = draw(rng, n, s, workers)
        return old_to_new[sub[perm]].astype(sub.dtype)

    monkeypatch.setattr(solver, "_CHUNK_BUDGET", 7 * s * 8)
    monkeypatch.setattr(solver, "_SHARED_PRODUCT_MIN", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        want = _march(ens, cfg, threads, steps)
        monkeypatch.setattr(solver, "draw_subsamples", relabelled)
        got = _march(GpcEnsemble(ens.x_hat[perm], ens.v_hat[perm], time=ens.time), cfg, threads, steps)
    finally:
        sys.setswitchinterval(interval)
    assert not np.array_equal(want.v_hat, ens.v_hat)
    assert got.x_hat.tobytes() == want.x_hat[perm].tobytes()
    assert got.v_hat.tobytes() == want.v_hat[perm].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("s", [5, 20, 150])
@pytest.mark.parametrize("model", ["homogeneous", "homogeneous_mill"])
def test_relabelling_moves_the_subsampled_homogeneous_path_bit_for_bit(monkeypatch, model, s, threads):
    # N = 300 particles and 10 steps, with S = 5 (collision-light
    # rejection), 20 (sorted redraw) and 150 (row shuffle), on the
    # homogeneous shortcut's subsample mean alone and with the Morse node
    # path
    n = 300
    if model == "homogeneous":
        spec, ic = _homogeneous_spec(), InitialCondition.bimodal_velocity_1d()
    else:
        spec, ic = _homogeneous_mill_spec(), InitialCondition.annulus_rotating_2d()
    cfg = SolverConfig(n_particles=n, dt=0.01, t_end=1.0, subsample_size=s, seed=11, model=spec)
    _assert_relabelling_moves_the_run(monkeypatch, sample_initial(ic, n, 5, spec.basis.n_modes), cfg, threads, 10)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("preset", ["cs_1d_desk", "cs_2d_desk", "combined_2d_desk"])
def test_relabelling_moves_the_node_path_with_alignment_bit_for_bit(monkeypatch, preset, threads):
    # N = 300 particles and 10 steps of the preset's S = 5: the alignment
    # kernel on the node path in 1D and 2D, and in combined_2d_desk with
    # the Morse force on a tensor basis
    cfg, ens = _start(load_config(preset))
    _assert_relabelling_moves_the_run(monkeypatch, ens, cfg, threads, 10)


def _rotate(a):
    """(x, y) -> (-y, x) of every particle's modes."""
    return np.stack([-a[:, 1], a[:, 0]], axis=1)


def _reflect(a):
    """(x, y) -> (x, -y) of every particle's modes."""
    return np.stack([a[:, 0], -a[:, 1]], axis=1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("preset", ["mill_2d_desk", "cs_2d_desk", "combined_2d_desk"])
def test_rotation_and_reflection_move_the_run_bit_for_bit(preset, threads):
    # N = 300 particles and 10 steps: the run of the rotated (reflected)
    # start is the rotated (reflected) run, bit for bit.  Both are exact
    # because a squared distance sums two squares, a + b = b + a in IEEE
    # arithmetic, and a sign change rounds nothing.
    steps = 10
    cfg, ens = _start(load_config(preset))
    want = _march(ens, cfg, threads, steps)
    assert not np.array_equal(want.v_hat, ens.v_hat)
    for transform in (_rotate, _reflect):
        got = _march(GpcEnsemble(transform(ens.x_hat), transform(ens.v_hat), time=ens.time), cfg, threads, steps)
        assert got.x_hat.tobytes() == transform(want.x_hat).tobytes(), transform.__name__
        assert got.v_hat.tobytes() == transform(want.v_hat).tobytes(), transform.__name__


def _shift(a, c):
    """Every particle's modes with c added to mode 0 of each coordinate."""
    a = a.copy()
    a[:, :, 0] += c
    return a


@pytest.mark.parametrize("preset", ["cs_1d_desk", "cs_2d_desk", "mill_2d_desk", "combined_2d_desk"])
def test_translation_moves_the_run_to_roundoff(preset):
    # N = 300 particles and 10 steps: the forces read only the differences
    # x_j - x_i, so the run of the start shifted by 0.375 in every
    # coordinate is the shifted run, up to the rounding of the shifted
    # positions and of their differences; the bound was fixed before
    # it was measured
    cfg, ens = _start(load_config(preset))
    want = _march(ens, cfg, 1, 10)
    got = _march(GpcEnsemble(_shift(ens.x_hat, 0.375), ens.v_hat, time=ens.time), cfg, 1, 10)
    assert not np.array_equal(want.v_hat, ens.v_hat)
    assert np.abs(got.x_hat - _shift(want.x_hat, 0.375)).max() <= 1e-15
    assert np.abs(got.v_hat - want.v_hat).max() <= 1e-15


def test_theta_mirror_flips_the_odd_modes_to_roundoff():
    # cs_1d_desk with gamma = 0.1 + 0.05 theta against 0.1 - 0.05 theta,
    # N = 300 to t = 0.5.  P_h(-theta) = (-1)^h P_h(theta), and leggauss's
    # nodes are exactly antisymmetric and its weights exactly symmetric,
    # so the mirrored run's modes are c_h' = (-1)^h c_h, up to the order
    # in which the projection sums over the nodes; the bound was fixed
    # before it was measured
    cfg = load_config("cs_1d_desk")
    assert cfg.family == "legendre" and cfg.model_params["gamma"] == "0.1 + 0.05*theta"
    mirrored = dataclasses.replace(cfg, model_params={**cfg.model_params, "gamma": "0.1 - 0.05*theta"})
    runs = []
    for config in (cfg, mirrored):
        solver_cfg, ens = _start(config)
        runs.append(_march(ens, solver_cfg, 1, 50))
    want, got = runs
    sign = (-1.0) ** np.arange(want.x_hat.shape[-1])
    for a, b in ((want.x_hat, got.x_hat), (want.v_hat, got.v_hat)):
        assert np.abs(a[..., 1::2]).max() > 1e-3 * np.abs(a).max()   # the odd modes are not zero
        assert np.abs(b - sign * a).max() <= 1e-15 * np.abs(a).max()
