import numpy as np
import pytest

from swarmuq.errors import ConfigurationError
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.models import (
    CuckerSmaleParams,
    FlockingRegime,
    MorseSwarmParams,
    UncertainScalar,
    alignment_kernel,
    flocking_criterion,
    linearized_flocking_check,
    mill_regime,
    morse_radial_slope,
)
from swarmuq.solver import ModelSpec, _Context, _velocity_rate_full

from oracles import morse_potential


def _morse_rate(params, x, v=None):
    """Velocity rate of every particle under the Morse model with all pairs
    interacting, through the solver's force path on a deterministic basis."""
    x_hat = np.asarray(x, dtype=float)[:, :, None]
    v_hat = np.zeros_like(x_hat) if v is None else np.asarray(v, dtype=float)[:, :, None]
    spec = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 0, 1), morse=params)
    return _velocity_rate_full(x_hat, v_hat, None, _Context(spec))[:, :, 0]


def test_uncertain_scalar_parsing():
    cases = {
        "1.0 + 0.25*theta": (1.0, 0.25),
        "0.1+0.05*theta": (0.1, 0.05),
        "5": (5.0, 0.0),
        "-0.3*theta": (0.0, -0.3),
        "theta": (0.0, 1.0),
        "-theta": (0.0, -1.0),
        "30 + theta": (30.0, 1.0),
        "1e-2": (0.01, 0.0),
        "2*theta + 1": (1.0, 2.0),
        "0.05 - 0.05*theta": (0.05, -0.05),
    }
    for text, (c0, c1) in cases.items():
        u = UncertainScalar.parse(text)
        assert (u.c0, u.c1) == (c0, c1), text


def test_uncertain_scalar_rejects_garbage():
    for bad in ("", "theta*theta", "1 + x", "sin(theta)"):
        with pytest.raises(ConfigurationError):
            UncertainScalar.parse(bad)


def test_uncertain_scalar_grammar():
    # Python's expression grammar, cut down to an affine result
    same = {"theta*2": "2*theta", "2*(1+theta)": "2 + 2*theta", "-(1 - theta)": "-1 + theta",
            "(0.1 + 0.05*theta)": "0.1+0.05*theta", "+theta": "theta"}
    for text, plain in same.items():
        u, v = UncertainScalar.parse(text), UncertainScalar.parse(plain)
        assert (u.c0, u.c1) == (v.c0, v.c1), text
    # no coefficient is a negative zero
    for text in ("-0.3*theta", "-theta", "-0", "-theta*0"):
        u = UncertainScalar.parse(text)
        assert np.copysign(1.0, u.c0) == 1.0 and (u.c1 != 0.0 or np.copysign(1.0, u.c1) == 1.0), text
    for bad in ("+", "1 0", "1.0 +", "theta -", "3theta", "1e400", "1e400 - 1e400", "theta/2",
                "theta**2", "True", "1j", "(theta - 1)*(theta + 1)", "x", "+".join(["1"] * 5000)):
        with pytest.raises(ConfigurationError):
            UncertainScalar.parse(bad)


def test_uncertain_scalar_evaluation():
    u = UncertainScalar(2.0, -0.5)
    assert u(0.0) == 2.0
    assert u(2.0) == 1.0
    vals = u(np.array([-1.0, 1.0]))
    assert np.allclose(vals, [2.5, 1.5])
    c = UncertainScalar(3.0)
    assert c.is_constant and c(123.0) == 3.0
    assert np.allclose(c(np.zeros(4)), 3.0)


def test_cs_kernel_examples():
    for r_sq in (0.0, 1.0, 1e6):
        assert alignment_kernel(1.0, 0.0, r_sq) == 1.0
    params = CuckerSmaleParams(K=1.0, gamma="0.1+0.05*theta")
    # high-precision direct evaluation
    assert abs(alignment_kernel(params.K(0.0), params.gamma(0.0), 1.0) - 2.0 ** (-0.1)) < 1e-12
    big = alignment_kernel(1.0, 0.5, 1e12)
    assert 0.0 < big < 1e-5


def test_kernels_write_into_out_bit_for_bit():
    # the in-place forms the solver uses return the given buffer and equal
    # both the allocating call and the textbook expression exactly
    rng = np.random.default_rng(4)
    r = rng.uniform(0.0, 6.0, size=(7, 5, 3))
    r[0, :2] = 0.0
    r_sq = r * r
    k, gamma = np.array([0.5, 1.0, 1.5]), np.array([0.1, 0.3, 0.45])
    c_a, c_r = np.array([29.0, 30.0, 31.0]), np.array([9.0, 10.0, 11.0])
    expected_h = k / (1.0 + r_sq) ** gamma
    expected_slope = (c_a / 100.0) * np.exp(-r / 100.0) - (c_r / 3.0) * np.exp(-r / 3.0)
    buf = np.empty_like(r)
    assert alignment_kernel(k, gamma, r_sq, out=buf) is buf
    assert np.array_equal(buf, alignment_kernel(k, gamma, r_sq))
    assert np.array_equal(buf, expected_h)
    work = np.empty_like(r)
    assert morse_radial_slope(c_a, c_r, 100.0, 3.0, r, out=buf, work=work) is buf
    assert np.array_equal(buf, morse_radial_slope(c_a, c_r, 100.0, 3.0, r))
    assert np.array_equal(buf, expected_slope)
    assert np.array_equal(morse_radial_slope(c_a, c_r, 100.0, 3.0, r, out=np.empty_like(r)),
                          expected_slope)


def test_cs_kernel_positive_and_monotone():
    params = CuckerSmaleParams(K="1+0.5*theta", gamma="0.1+0.05*theta")
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    radii_sq = np.linspace(0.0, 50.0, 100)
    for theta in basis.quad_nodes:
        vals = alignment_kernel(params.K(theta), params.gamma(theta), radii_sq)
        assert (vals > 0).all()
        assert (np.diff(vals) <= 0).all()


def test_cs_params_validation():
    with pytest.raises(ConfigurationError):
        CuckerSmaleParams(K=-1.0, gamma=0.0)
    with pytest.raises(ConfigurationError):
        CuckerSmaleParams(K=1.0, gamma=-0.1)
    params = CuckerSmaleParams(K="0.1 + theta", gamma=0.0)  # center-positive
    with pytest.raises(ConfigurationError):
        params.validate_at(np.array([-0.9, 0.9]))
    # a NaN or an infinite number, plain or as a coefficient, is refused
    for K, gamma in ((np.nan, 0.0), (1.0, np.inf), (-np.inf, 0.0), (1.0, "1e400*theta"),
                     (UncertainScalar(1.0, 0.5), 0.0 * np.inf)):
        with pytest.raises(ConfigurationError, match="non-finite"):
            CuckerSmaleParams(K=K, gamma=gamma)
    with pytest.raises(ConfigurationError, match="non-finite"):
        UncertainScalar(1.0, np.nan)


def test_morse_potential_values():
    # the reference potential that the force test below differentiates
    for r in (0.0, 0.7, 12.0):
        assert morse_potential(2.0, 2.0, 1.5, 1.5, r) == 0.0
    assert abs(morse_potential(30.0, 10.0, 100.0, 3.0, 0.0) - (-20.0)) < 1e-12
    expected = -30.0 * np.exp(-0.03) + 10.0 * np.exp(-1.0)
    assert abs(morse_potential(30.0, 10.0, 100.0, 3.0, 3.0) - expected) < 1e-12


def test_morse_force_zero_at_origin_and_radial():
    params = MorseSwarmParams(a=0.0, b=0.0, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    assert np.array_equal(_morse_rate(params, np.zeros((2, 3))), np.zeros((2, 3)))
    rng = np.random.default_rng(8)
    for _ in range(20):
        dx = rng.normal(size=2)
        f = _morse_rate(params, [dx, np.zeros(2)])[0]
        cross = f[0] * dx[1] - f[1] * dx[0]
        assert abs(cross) < 1e-12 * max(1.0, np.linalg.norm(f) * np.linalg.norm(dx))


def test_morse_force_matches_finite_difference_gradient():
    # two particles, all pairs: the rate of the first is -grad U / N
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(100):
        theta = rng.uniform(-1, 1)
        c_a, c_r = 30.0 + theta, 10.0 + theta
        params = MorseSwarmParams(a=0.0, b=0.0, C_A=c_a, C_R=c_r, ell_A=100.0, ell_R=3.0)
        dx = rng.normal(size=2) * rng.uniform(0.5, 5.0)
        grad = np.zeros(2)
        for k in range(2):
            plus = dx.copy(); plus[k] += eps
            minus = dx.copy(); minus[k] -= eps
            grad[k] = (morse_potential(c_a, c_r, 100.0, 3.0, np.linalg.norm(plus))
                       - morse_potential(c_a, c_r, 100.0, 3.0, np.linalg.norm(minus))) / (2 * eps)
        force = 2 * _morse_rate(params, [dx, np.zeros(2)])[0]
        assert np.linalg.norm(force + grad) < 1e-6


def test_self_propulsion():
    # a single particle feels only the propulsion-friction term (a - b |v|^2) v
    params = MorseSwarmParams(a=1.0, b=0.5, C_A=1.0, C_R=1.0, ell_A=1.0, ell_R=1.0)
    eq_speed = np.sqrt(params.a / params.b)
    x = np.zeros((1, 2))
    assert np.allclose(_morse_rate(params, x, [[eq_speed, 0.0]]), 0.0, atol=1e-14)
    assert np.array_equal(_morse_rate(params, x, np.zeros((1, 2))), np.zeros((1, 2)))
    assert np.allclose(_morse_rate(params, x, [[2.0, 0.0]]), [[-2.0, 0.0]])


def test_morse_params_validation():
    with pytest.raises(ConfigurationError):
        MorseSwarmParams(a=-0.1, b=0.0, C_A=1.0, C_R=1.0, ell_A=1.0, ell_R=1.0)
    with pytest.raises(ConfigurationError):
        MorseSwarmParams(a=0.0, b=0.0, C_A=1.0, C_R=1.0, ell_A=0.0, ell_R=1.0)
    # NaN and +-inf fail every sign check, and the strengths' finiteness check
    good = dict(a=0.7, b=0.5, C_A=30.0, C_R=10.0, ell_A=100.0, ell_R=3.0)
    for key in good:
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                MorseSwarmParams(**{**good, key: value})


def test_flocking_criterion_regimes():
    assert flocking_criterion(0.4, 1.0, 10, 5.0, 5.0) is FlockingRegime.UNCONDITIONAL
    # direct evaluation of the threshold expression: left = 0.78125 < 1.02
    assert flocking_criterion(1.0, 1.0, 2, 0.01, 0.01) is FlockingRegime.CONDITIONAL_VIOLATED
    # left = 78.125 > 1.02
    assert flocking_criterion(1.0, 10.0, 2, 0.01, 0.01) is FlockingRegime.CONDITIONAL_SATISFIED


def test_flocking_criterion_never_violates_below_half():
    rng = np.random.default_rng(5)
    for _ in range(50):
        regime = flocking_criterion(rng.uniform(0.0, 0.5), rng.uniform(0.1, 10),
                                    rng.integers(2, 100), rng.uniform(0, 10), rng.uniform(0, 10))
        assert regime is FlockingRegime.UNCONDITIONAL


def test_flocking_criterion_degenerate_spread_warns():
    with pytest.warns(UserWarning):
        regime = flocking_criterion(1.0, 1.0, 2, 0.5, 0.0)
    assert regime is FlockingRegime.CONDITIONAL_SATISFIED


def test_linearized_flocking_check():
    basis = build_basis(PolynomialFamily.LEGENDRE, 5)
    gamma = UncertainScalar.parse("0.1 + 0.05*theta")
    assert linearized_flocking_check(gamma, 0.2, basis) is True
    assert linearized_flocking_check(gamma, 0.12, basis) is False
    const = UncertainScalar(0.3)
    assert linearized_flocking_check(const, 0.3, basis) is False  # strict inequality
    with pytest.raises(ConfigurationError):
        linearized_flocking_check(gamma, 0.7, basis)


def test_mill_regime_for_reference_parameters():
    params = MorseSwarmParams(a=0.07, b=0.05, C_A="30+theta", C_R="10+theta",
                              ell_A=100.0, ell_R=3.0)
    basis = build_basis(PolynomialFamily.LEGENDRE, 8)
    assert mill_regime(params, basis.quad_nodes, d=2) is True
    crystal = MorseSwarmParams(a=0.07, b=0.05, C_A=1.0, C_R=2.0, ell_A=1.0, ell_R=1.0)
    assert mill_regime(crystal, basis.quad_nodes, d=2) is False
