"""Time stepping of the particle solver: the time grid and its rules, the
observed march along it, and the classical RK4 and explicit Euler steps
on a tuple of state arrays.  ``swarmuq oracle`` marches along the same
grid for the times of its rows, so that they are those of ``swarmuq run``."""
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


def march(initial, advance, t_end: float, dt: float, observe, stride: int):
    """Step the state ``initial()`` along ``time_steps(t_end, dt)`` and
    return the last state.

    ``advance(state, k, h)`` returns the state one step of length h
    later, k counting the steps from 0.  ``observe(state)`` is called on
    the initial state, after every ``stride`` steps and after the last
    step, once even where that is also a stride multiple.  The initial
    state is made here, not passed in, so that it is freed after the
    first step: CPython 3.10 keeps a call's arguments alive on the
    caller's stack until the call returns.
    """
    if stride < 1:
        raise ConfigurationError(f"observer stride must be >= 1, got {stride}")
    dts = time_steps(t_end, dt)
    state = initial()
    observe(state)
    for k, h in enumerate(dts):
        state = advance(state, k, h)
        if (k + 1) % stride == 0 or k + 1 == len(dts):
            observe(state)
    return state


def _add_scaled(a: np.ndarray, c: float, k: np.ndarray) -> np.ndarray:
    """a + c * k as one new array, with no temporary beside it: the same
    fl(a + fl(c * k)) as the expression, since IEEE products commute."""
    out = np.multiply(k, c)
    return np.add(a, out, out=out)


def euler(rhs, y: tuple, h: float) -> tuple:
    """One explicit Euler step of y' = rhs(*y) for the tuple of arrays y."""
    return tuple(_add_scaled(a, h, k) for a, k in zip(y, rhs(*y)))


def rk4(rhs, y: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step of y' = rhs(*y) for the tuple of
    arrays y; rhs returns one rate array per array of y, which may be an
    array of y itself, as x' = v is.

    k1 + 2 k2 + 2 k3 + k4 is summed stage by stage, in that order.  Each
    sum a + c k is one new array (``_add_scaled``), each stage's arrays
    are dropped when its rhs returns and each rate after its last use,
    so that for y = (x, v) at most 6 state-sized arrays of its own are
    alive at once, while the third and fourth stages are formed, and 4
    while rhs runs; the returned arrays are new.
    """
    k1 = rhs(*y)
    stage = [_add_scaled(a, 0.5 * h, k) for a, k in zip(y, k1)]
    k2 = rhs(*stage)
    del stage
    total = [_add_scaled(r1, 2.0, r2) for r1, r2 in zip(k1, k2)]
    del k1
    stage = [_add_scaled(a, 0.5 * h, k) for a, k in zip(y, k2)]
    del k2
    k3 = rhs(*stage)
    del stage
    for i in range(len(total)):
        total[i] += 2.0 * k3[i]
    stage = [_add_scaled(a, h, k) for a, k in zip(y, k3)]
    del k3
    k4 = rhs(*stage)
    del stage
    for i in range(len(total)):
        total[i] += k4[i]
    del k4
    return tuple(_add_scaled(a, h / 6.0, acc) for a, acc in zip(y, total))
