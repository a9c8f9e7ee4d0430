"""Uncertain model parameters and force laws for the swarming models.

Two microscopic models are covered: velocity alignment with a strength
that decays algebraically in the pairwise distance, and the
self-propulsion / friction / Morse-potential model whose rotating-mill
states travel at speed sqrt(a/b).  Parameters may depend on the random
input theta; every configuration used in practice is affine in theta.
"""
from __future__ import annotations

import ast
import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class UncertainScalar:
    """A scalar parameter as a function of the random input: c0 + c1 * theta.

    Both coefficients are finite.  Constant parameters have c1 == 0 and
    ignore theta.  More general theta-dependence is deliberately not
    supported; affine covers every configuration exercised by the models
    here.
    """

    c0: float
    c1: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "UncertainScalar":
        """Parse expressions like ``"1.0 + 0.25*theta"``, ``"5"``, ``"-theta"``.

        The grammar is Python's, cut down to numbers, ``theta``, unary and
        binary ``+``/``-``, ``*`` and parentheses, with an affine result.
        """
        try:
            c0, c1 = _affine(ast.parse(text.strip(), mode="eval").body)
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            raise ConfigurationError(f"{text!r} is not affine in theta: {exc.args[0]}") from None
        return cls(c0 + 0.0, c1 + 0.0)   # + 0.0: no -0.0 coefficients

    def __post_init__(self):
        if not (np.isfinite(self.c0) and np.isfinite(self.c1)):
            raise ConfigurationError(f"non-finite coefficient in c0={self.c0}, c1={self.c1}")

    @property
    def is_constant(self) -> bool:
        return self.c1 == 0.0

    def __call__(self, theta):
        return self.c0 + self.c1 * np.asarray(theta, dtype=float)

    def min_on(self, thetas) -> float:
        return float(np.min(self(thetas)))

    def __str__(self) -> str:
        if self.is_constant:
            return f"{self.c0:g}"
        op = "+" if self.c1 >= 0 else "-"
        return f"{self.c0:g} {op} {abs(self.c1):g}*theta"


def _affine(node) -> tuple[float, float]:
    """(c0, c1) of the expression tree ``node``, affine in theta."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value), 0.0
    if isinstance(node, ast.Name) and node.id == "theta":
        return 0.0, 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        c0, c1 = _affine(node.operand)
        return (-c0, -c1) if isinstance(node.op, ast.USub) else (c0, c1)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        (a0, a1), (b0, b1) = _affine(node.left), _affine(node.right)
        if isinstance(node.op, ast.Add):
            return a0 + b0, a1 + b1
        if isinstance(node.op, ast.Sub):
            return a0 - b0, a1 - b1
        if a1 and b1:
            raise ValueError("a product of two theta terms")
        return a0 * b0, a0 * b1 + a1 * b0
    raise ValueError(f"{ast.unparse(node)!r} is not a number, theta, + - * or parentheses")


def _as_uncertain(value) -> UncertainScalar:
    if isinstance(value, UncertainScalar):
        return value
    if isinstance(value, str):
        return UncertainScalar.parse(value)
    return UncertainScalar(float(value))


@dataclass(frozen=True)
class CuckerSmaleParams:
    """Alignment-kernel parameters: strength K and decay exponent gamma.

    Sign requirements (K > 0, gamma >= 0) hold at the quadrature nodes of
    the basis in use; construction checks the center of the support and
    :meth:`validate_at` enforces the full node set.
    """

    K: UncertainScalar
    gamma: UncertainScalar

    def __post_init__(self):
        object.__setattr__(self, "K", _as_uncertain(self.K))
        object.__setattr__(self, "gamma", _as_uncertain(self.gamma))
        if self.K(0.0) <= 0.0:
            raise ConfigurationError(f"alignment strength must be positive, got K = {self.K}")
        if self.gamma(0.0) < 0.0:
            raise ConfigurationError(f"decay exponent must be nonnegative, got gamma = {self.gamma}")

    @property
    def position_independent(self) -> bool:
        """Whether the kernel ignores the distance: gamma is identically 0."""
        return self.gamma.is_constant and self.gamma.c0 == 0.0

    def validate_at(self, nodes) -> None:
        if self.K.min_on(nodes) <= 0.0:
            raise ConfigurationError(f"K = {self.K} is not positive at every quadrature node")
        if self.gamma.min_on(nodes) < 0.0:
            raise ConfigurationError(f"gamma = {self.gamma} is negative at a quadrature node")


@dataclass(frozen=True)
class MorseSwarmParams:
    """Self-propulsion a, friction b, and Morse attraction/repulsion."""

    a: float
    b: float
    C_A: UncertainScalar
    C_R: UncertainScalar
    ell_A: float
    ell_R: float

    def __post_init__(self):
        object.__setattr__(self, "C_A", _as_uncertain(self.C_A))
        object.__setattr__(self, "C_R", _as_uncertain(self.C_R))
        # written so that a NaN or an infinity fails as well
        if not (0 <= self.a < np.inf and 0 <= self.b < np.inf):
            raise ConfigurationError(f"a, b must be finite and nonnegative, got a={self.a}, b={self.b}")
        if not (0 < self.ell_A < np.inf and 0 < self.ell_R < np.inf):
            raise ConfigurationError(
                f"interaction lengths must be finite and positive, got ell_A={self.ell_A}, ell_R={self.ell_R}"
            )


def alignment_kernel(k, gamma, r_sq, out=None):
    """Pairwise alignment strength k / (1 + r^2)^gamma; broadcasts all arguments.

    ``out``, of the broadcast shape, receives the result; without it a
    new array is returned.
    """
    base = np.add(1.0, np.asarray(r_sq, dtype=float), out=out)
    return np.divide(k, np.power(base, gamma, out=out), out=out)


def morse_radial_slope(c_a, c_r, ell_a, ell_r, r, out=None, work=None):
    """dU/dr of the Morse pair potential U(r) = -C_A exp(-r/l_A) + C_R exp(-r/l_R);
    broadcasts over strengths and radii.

    ``out`` receives the result and ``work``, of the same shape, is
    overwritten with the repulsion term; given both, nothing is allocated.
    """
    r = np.asarray(r, dtype=float)
    # r / (-l) is exactly -(r / l) in IEEE arithmetic, without a negation pass
    attraction = np.divide(r, -ell_a, out=out)
    attraction = np.multiply(c_a / ell_a, np.exp(attraction, out=out), out=out)
    repulsion = np.divide(r, -ell_r, out=work)
    repulsion = np.multiply(c_r / ell_r, np.exp(repulsion, out=work), out=work)
    return np.subtract(attraction, repulsion, out=out)


class FlockingRegime(enum.Enum):
    UNCONDITIONAL = "unconditional"
    CONDITIONAL_SATISFIED = "conditional_satisfied"
    CONDITIONAL_VIOLATED = "conditional_violated"


def flocking_criterion(gamma: float, K: float, N: int, Gamma0: float, Lambda0: float) -> FlockingRegime:
    """Classify the deterministic alignment model's flocking guarantee.

    gamma <= 1/2 aligns unconditionally.  Otherwise the initial spreads
    Gamma0 = 0.5 sum_{i!=j} |x_i - x_j|^2 and Lambda0 (same for v) decide:
    flocking is guaranteed when

        [(1/(2g))^(1/(2g-1)) - (1/(2g))^(2g/(2g-1))] * (K^2 / (8 N^2 L0))^(1/(2g-1))
            > 2 Gamma0 + 1.
    """
    if K <= 0:
        raise ConfigurationError(f"K must be positive, got {K}")
    if N < 2:
        raise ConfigurationError(f"need at least two agents, got N={N}")
    if Gamma0 < 0 or Lambda0 < 0:
        raise ConfigurationError("spreads must be nonnegative")
    if gamma <= 0.5:
        return FlockingRegime.UNCONDITIONAL
    if Lambda0 == 0.0:
        warnings.warn(
            "zero initial velocity spread: agents already aligned, condition degenerate",
            stacklevel=2,
        )
        return FlockingRegime.CONDITIONAL_SATISFIED
    inv = 1.0 / (2.0 * gamma)
    exponent = 1.0 / (2.0 * gamma - 1.0)
    bracket = inv**exponent - inv ** (2.0 * gamma * exponent)
    left = bracket * (K**2 / (8.0 * N**2 * Lambda0)) ** exponent
    if left > 2.0 * Gamma0 + 1.0:
        return FlockingRegime.CONDITIONAL_SATISFIED
    return FlockingRegime.CONDITIONAL_VIOLATED


def linearized_flocking_check(gamma: UncertainScalar, gamma0: float, basis) -> bool:
    """Whether the linearization around exponent gamma0 <= 1/2 stays contractive.

    True iff gamma(theta) < gamma0 strictly at every quadrature node of the
    basis, which keeps the linearized interaction strength positive.
    """
    if gamma0 > 0.5:
        raise ConfigurationError(f"linearization point must satisfy gamma0 <= 1/2, got {gamma0}")
    values = np.atleast_1d(gamma(basis.quad_nodes))
    return bool(np.all(values < gamma0))


def mill_regime(params: MorseSwarmParams, thetas, d: int = 2) -> bool:
    """Check C(theta) * l^(2d) < 1 at all given thetas (rotating-mill regime).

    C = C_R/C_A and l = ell_R/ell_A; the opposite inequality corresponds to
    crystalline stability instead of mills.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ratio = params.C_R(thetas) / params.C_A(thetas)
    ell = params.ell_R / params.ell_A
    return bool(np.all(ratio * ell ** (2 * d) < 1.0))
