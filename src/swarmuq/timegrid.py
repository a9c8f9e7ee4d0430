"""Time grid shared by the particle solver and the finite-difference reference."""
from __future__ import annotations

import numpy as np


def time_steps(t_end: float, dt: float) -> list[float]:
    """Step sizes that reach t_end: full steps of dt, then a shorter final
    step for any remainder above roundoff."""
    n_full = int(np.floor(t_end / dt + 1e-12)) if t_end > 0 else 0
    remainder = t_end - n_full * dt
    dts = [dt] * n_full
    if remainder > 1e-12 * max(1.0, dt):
        dts.append(remainder)
    return dts
