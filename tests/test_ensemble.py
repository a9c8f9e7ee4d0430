import numpy as np
import pytest
from scipy import stats

from swarmuq.ensemble import (
    GpcEnsemble,
    InitialCondition,
    evaluate_at_nodes,
    evaluate_at_theta,
    load_snapshot,
    sample_initial,
    save_snapshot,
)
from swarmuq.errors import ConfigurationError, DimensionMismatchError
from swarmuq.gpc import PolynomialFamily, build_basis, project, tensor_basis

from oracles import bimodal_moments


def test_bimodal_velocity_moments():
    ic = InitialCondition.bimodal_velocity_1d(sigma_v_sq=0.1, mu=0.25)
    n = 40000
    ens = sample_initial(ic, n, 123, modes=4)
    v = ens.v_hat[:, 0, 0]
    mean_o, var_o = bimodal_moments(0.1, 0.25)
    sigma = np.sqrt(var_o)
    assert abs(v.mean() - mean_o) < 4 * sigma / np.sqrt(n)
    assert abs(v.var() - var_o) / var_o < 5 / np.sqrt(n)


def test_bivariate_bimodal_sampler():
    ic = InitialCondition.bivariate_bimodal_1d(vbar=1.0, sigma_x_sq=0.5, sigma_v_sq=0.2)
    ens = sample_initial(ic, 20000, 9, modes=2)
    x = ens.x_hat[:, 0, 0]
    v = ens.v_hat[:, 0, 0]
    assert abs(x.var() - 0.5) / 0.5 < 0.05
    assert abs(v.var() - (0.2 + 1.0)) / 1.2 < 0.05
    # two symmetric bumps: roughly half the velocities on each side
    assert abs((v > 0).mean() - 0.5) < 0.02


def test_annulus_sampler_geometry():
    ic = InitialCondition.annulus_rotating_2d(r_inner=0.5, r_outer=1.0)
    ens = sample_initial(ic, 5000, 4, modes=3)
    x = ens.x_hat[:, :, 0]
    v = ens.v_hat[:, :, 0]
    radii = np.linalg.norm(x, axis=1)
    assert radii.min() >= 0.5 - 1e-12 and radii.max() <= 1.0 + 1e-12
    speeds = np.linalg.norm(v, axis=1)
    assert np.abs(speeds - 1.0).max() < 1e-12
    # perpendicular to the radius, counterclockwise
    dots = np.abs((x * v).sum(axis=1))
    assert dots.max() < 1e-12
    cross = x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]
    assert (cross > 0).all()
    cw = sample_initial(InitialCondition.annulus_rotating_2d(counterclockwise=False), 100, 4, 1)
    cross_cw = cw.x_hat[:, 0, 0] * cw.v_hat[:, 1, 0] - cw.x_hat[:, 1, 0] * cw.v_hat[:, 0, 0]
    assert (cross_cw < 0).all()


def test_modes_above_zero_start_empty():
    for ic in (InitialCondition.bimodal_velocity_1d(),
               InitialCondition.bivariate_bimodal_1d(),
               InitialCondition.annulus_rotating_2d()):
        ens = sample_initial(ic, 100, 0, modes=6)
        assert not ens.x_hat[:, :, 1:].any()
        assert not ens.v_hat[:, :, 1:].any()
        assert ens.time == 0.0


def test_sampler_reproducible_and_seed_sensitive():
    ic = InitialCondition.bivariate_bimodal_1d()
    a = sample_initial(ic, 3000, 42, 3)
    b = sample_initial(ic, 3000, 42, 3)
    assert np.array_equal(a.x_hat, b.x_hat) and np.array_equal(a.v_hat, b.v_hat)
    c = sample_initial(ic, 3000, 43, 3)
    assert not np.array_equal(a.v_hat, c.v_hat)
    # same law: a two-sample KS test must not reject at alpha = 0.01
    ks = stats.ks_2samp(a.v_hat[:, 0, 0], c.v_hat[:, 0, 0])
    assert ks.pvalue > 0.01


def test_invalid_parameters_raise():
    with pytest.raises(ConfigurationError):
        InitialCondition.bimodal_velocity_1d(sigma_v_sq=0.0)
    with pytest.raises(ConfigurationError):
        InitialCondition.annulus_rotating_2d(r_inner=1.0, r_outer=0.5)
    with pytest.raises(ConfigurationError):
        sample_initial(InitialCondition.bimodal_velocity_1d(), 0, 1, 1)


def test_evaluate_at_theta_deterministic_state():
    ens = sample_initial(InitialCondition.bivariate_bimodal_1d(), 10, 7, modes=5)
    basis = build_basis(PolynomialFamily.LEGENDRE, 4)
    for theta in (-1.0, 0.0, 0.62):
        x, v = evaluate_at_theta(ens, 3, theta, basis)
        assert np.allclose(x, ens.x_hat[3, :, 0])
        assert np.allclose(v, ens.v_hat[3, :, 0])
    with pytest.raises(IndexError):
        evaluate_at_theta(ens, 10, 0.0, basis)


def test_evaluate_at_theta_linear_mode():
    basis = build_basis(PolynomialFamily.LEGENDRE, 1)
    v_hat = np.zeros((1, 1, 2))
    v_hat[0, 0] = [0.0, 1.0]
    ens = GpcEnsemble(np.zeros((1, 1, 2)), v_hat)
    _, v = evaluate_at_theta(ens, 0, 0.7, basis)
    assert abs(v[0] - 0.7) < 1e-14


def test_node_evaluation_projection_roundtrip():
    rng = np.random.default_rng(17)
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    ens = GpcEnsemble(rng.normal(size=(20, 2, 6)), rng.normal(size=(20, 2, 6)))
    x_nodes, v_nodes = evaluate_at_nodes(ens, basis)
    assert np.abs(project(x_nodes, basis) - ens.x_hat).max() < 1e-10
    assert np.abs(project(v_nodes, basis) - ens.v_hat).max() < 1e-10
    # same round trip through a tensor basis
    tb = tensor_basis(build_basis(PolynomialFamily.LEGENDRE, 2),
                      build_basis(PolynomialFamily.LEGENDRE, 3))
    ens2 = GpcEnsemble(rng.normal(size=(7, 2, tb.n_modes)), rng.normal(size=(7, 2, tb.n_modes)))
    x2, v2 = evaluate_at_nodes(ens2, tb)
    assert np.abs(project(x2, tb) - ens2.x_hat).max() < 1e-10


def test_evaluate_at_nodes_checks_mode_count():
    ens = sample_initial(InitialCondition.bimodal_velocity_1d(), 5, 0, modes=3)
    with pytest.raises(DimensionMismatchError):
        evaluate_at_nodes(ens, build_basis(PolynomialFamily.LEGENDRE, 5))


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    basis = build_basis(PolynomialFamily.LEGENDRE, 3)
    ens = GpcEnsemble(rng.normal(size=(6, 2, 4)), rng.normal(size=(6, 2, 4)), time=1.25)
    path = tmp_path / "snap.csv"
    save_snapshot(ens, path, basis=basis, seed=99)
    assert path.read_text().splitlines()[0] == "i,dim,mode,x_hat,v_hat"
    back, meta = load_snapshot(path)
    assert np.array_equal(back.x_hat, ens.x_hat)
    assert np.array_equal(back.v_hat, ens.v_hat)
    assert back.time == 1.25
    assert meta["N"] == "6" and meta["d"] == "2" and meta["M"] == "3"
    assert meta["family"] == "legendre" and meta["seed"] == "99"
    # a basis over two random inputs lists the order and family of each
    tb = tensor_basis(build_basis(PolynomialFamily.LEGENDRE, 3),
                      build_basis(PolynomialFamily.LEGENDRE, 2))
    ens2 = GpcEnsemble(rng.normal(size=(5, 2, tb.n_modes)), rng.normal(size=(5, 2, tb.n_modes)))
    path2 = tmp_path / "snap2.csv"
    save_snapshot(ens2, path2, basis=tb, seed=7)
    back2, meta2 = load_snapshot(path2)
    assert np.array_equal(back2.v_hat, ens2.v_hat)
    assert meta2["M"] == "3|2" and meta2["family"] == "legendre|legendre"


def test_ensemble_shape_validation():
    with pytest.raises(DimensionMismatchError):
        GpcEnsemble(np.zeros((3, 1, 2)), np.zeros((3, 1, 3)))
    with pytest.raises(DimensionMismatchError):
        GpcEnsemble(np.zeros((3, 2)), np.zeros((3, 2)))
