"""Time stepping shared by the particle solver and the finite-difference
reference: the time grid and its rules, the observed march along it, and
the classical RK4 and explicit Euler steps on a tuple of state arrays."""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError


def check_grid(t_end: float, dt: float) -> None:
    """Raise ConfigurationError unless t_end is finite and nonnegative and
    dt is finite, nonnegative and, for t_end > 0, positive."""
    if not 0 <= t_end < math.inf:
        raise ConfigurationError(f"t_end must be finite and nonnegative, got {t_end}")
    if not 0 <= dt < math.inf or (dt == 0 and t_end > 0):
        raise ConfigurationError(f"dt must be finite, and positive for t_end > 0, got dt={dt}")


def time_steps(t_end: float, dt: float) -> list[float]:
    """Step sizes that reach t_end: full steps of dt, then a shorter final
    step for any remainder above roundoff.  The grid is checked first."""
    check_grid(t_end, dt)
    n_full = int(np.floor(t_end / dt + 1e-12)) if t_end > 0 else 0
    remainder = t_end - n_full * dt
    dts = [dt] * n_full
    if remainder > 1e-12 * max(1.0, dt):
        dts.append(remainder)
    return dts


def march(state, advance, t_end: float, dt: float, observe, stride: int):
    """Step ``state`` along ``time_steps(t_end, dt)`` and return the last.

    ``advance(state, k, h)`` returns the state one step of length h
    later, k counting the steps from 0.  ``observe(state)`` is called on
    the initial state, after every ``stride`` steps and after the last
    step, once even where that is also a stride multiple.
    """
    if stride < 1:
        raise ConfigurationError(f"observer stride must be >= 1, got {stride}")
    dts = time_steps(t_end, dt)
    observe(state)
    for k, h in enumerate(dts):
        state = advance(state, k, h)
        if (k + 1) % stride == 0 or k + 1 == len(dts):
            observe(state)
    return state


def euler(rhs, y: tuple, h: float) -> tuple:
    """One explicit Euler step of y' = rhs(*y) for the tuple of arrays y."""
    return tuple(a + h * k for a, k in zip(y, rhs(*y)))


def rk4(rhs, y: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step of y' = rhs(*y) for the tuple of
    arrays y; rhs returns one rate array per array of y.

    k1 + 2 k2 + 2 k3 + k4 is summed stage by stage, in that order, and each
    rate dropped after its last use, so that for y = (x, v) 5 state-sized
    arrays are alive in stage 4, not 8.  The first sum allocates: a rate
    may be an array of y itself, as x' = v is.
    """
    k1 = rhs(*y)
    k2 = rhs(*[a + 0.5 * h * k for a, k in zip(y, k1)])
    total = [r1 + 2.0 * r2 for r1, r2 in zip(k1, k2)]
    stage = [a + 0.5 * h * k for a, k in zip(y, k2)]
    del k1, k2
    k3 = rhs(*stage)
    stage = [a + h * k for a, k in zip(y, k3)]
    for i in range(len(total)):
        total[i] += 2.0 * k3[i]
    del k3
    k4 = rhs(*stage)
    del stage
    for i in range(len(total)):
        total[i] += k4[i]
    del k4
    return tuple(a + (h / 6.0) * acc for a, acc in zip(y, total))
