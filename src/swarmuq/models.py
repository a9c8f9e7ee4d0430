"""Uncertain model parameters and force laws for the swarming models.

Two microscopic models are covered: velocity alignment with a strength
that decays algebraically in the pairwise distance, and the
self-propulsion / friction / Morse-potential model whose rotating-mill
states travel at speed sqrt(a/b).  Parameters may depend on the random
input theta; every configuration used in practice is affine in theta.
"""
from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_TERM_RE = re.compile(r"^([+-]?[0-9.eE+-]*)\s*\*?\s*(theta)?$")


@dataclass(frozen=True)
class UncertainScalar:
    """A scalar parameter as a function of the random input: c0 + c1 * theta.

    Constant parameters have c1 == 0 and ignore theta.  More general
    theta-dependence is deliberately not supported; affine covers every
    configuration exercised by the models here.
    """

    c0: float
    c1: float = 0.0

    @classmethod
    def constant(cls, value: float) -> "UncertainScalar":
        return cls(float(value), 0.0)

    @classmethod
    def affine(cls, c0: float, c1: float) -> "UncertainScalar":
        return cls(float(c0), float(c1))

    @classmethod
    def parse(cls, text: str) -> "UncertainScalar":
        """Parse expressions like ``"1.0 + 0.25*theta"``, ``"5"``, ``"-theta"``."""
        compact = text.replace(" ", "")
        if not compact:
            raise ConfigurationError("empty uncertain-scalar expression")
        # Split into signed terms, keeping the signs.
        chunks = re.split(r"(?<![eE+-])([+-])", compact)
        terms = []
        sign = 1.0
        for chunk in chunks:
            if chunk == "+":
                sign = 1.0
            elif chunk == "-":
                sign = -1.0
            elif chunk:
                terms.append((sign, chunk))
                sign = 1.0
        c0 = 0.0
        c1 = 0.0
        for sign, term in terms:
            match = _TERM_RE.match(term)
            if match is None:
                raise ConfigurationError(f"cannot parse uncertain scalar term {term!r} in {text!r}")
            coeff_text, has_theta = match.groups()
            if coeff_text in ("", "+", "-"):
                coeff = 1.0 if coeff_text != "-" else -1.0
            else:
                try:
                    coeff = float(coeff_text)
                except ValueError as exc:
                    raise ConfigurationError(f"bad coefficient {coeff_text!r} in {text!r}") from exc
            if has_theta:
                c1 += sign * coeff
            else:
                c0 += sign * coeff
        return cls(c0, c1)

    @property
    def is_constant(self) -> bool:
        return self.c1 == 0.0

    def __call__(self, theta):
        if self.c1 == 0.0:
            return self.c0 + np.zeros_like(np.asarray(theta, dtype=float)) if np.ndim(theta) else self.c0
        return self.c0 + self.c1 * np.asarray(theta, dtype=float) if np.ndim(theta) else self.c0 + self.c1 * theta

    def min_on(self, thetas) -> float:
        return float(np.min(self(np.asarray(thetas, dtype=float))))

    def __str__(self) -> str:
        if self.is_constant:
            return f"{self.c0:g}"
        op = "+" if self.c1 >= 0 else "-"
        return f"{self.c0:g} {op} {abs(self.c1):g}*theta"


def _as_uncertain(value) -> UncertainScalar:
    if isinstance(value, UncertainScalar):
        return value
    if isinstance(value, str):
        return UncertainScalar.parse(value)
    return UncertainScalar.constant(float(value))


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
        if self.a < 0 or self.b < 0:
            raise ConfigurationError(f"a, b must be nonnegative, got a={self.a}, b={self.b}")
        if self.ell_A <= 0 or self.ell_R <= 0:
            raise ConfigurationError(
                f"interaction lengths must be positive, got ell_A={self.ell_A}, ell_R={self.ell_R}"
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
    attraction = np.divide(np.negative(r, out=out), ell_a, out=out)
    attraction = np.multiply(c_a / ell_a, np.exp(attraction, out=out), out=out)
    repulsion = np.divide(np.negative(r, out=work), ell_r, out=work)
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
