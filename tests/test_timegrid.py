import math

import pytest

from swarmuq.ensemble import InitialCondition
from swarmuq.errors import ConfigurationError
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.models import CuckerSmaleParams
from swarmuq.solver import ModelSpec, SolverConfig, run


def _particle_times(t_end, dt, stride):
    """Times at which the particle solver's observers fire."""
    spec = ModelSpec(basis=build_basis(PolynomialFamily.LEGENDRE, 1),
                     alignment=CuckerSmaleParams(K=1.0, gamma=0.0))
    cfg = SolverConfig(n_particles=4, dt=dt, t_end=t_end, subsample_size=2, seed=0, model=spec)
    times = []
    run(InitialCondition.bimodal_velocity_1d(), cfg, observers=[lambda e: times.append(e.time)],
        observer_stride=stride)
    return times


def test_run_observes_along_the_time_loop():
    dt = 1 / 16   # every time below is exact in binary
    # the initial state, every stride, and the last step once, also when
    # the last step is a stride multiple
    assert _particle_times(8 * dt, dt, 2) == [k * dt for k in (0, 2, 4, 6, 8)]
    # 8 full steps and a short one of dt/2, a stride multiple or not
    assert _particle_times(8.5 * dt, dt, 3) == [0.0, 3 * dt, 6 * dt, 8.5 * dt]
    assert _particle_times(8.5 * dt, dt, 2) == [k * dt for k in (0, 2, 4, 6, 8)] + [8.5 * dt]
    for t_end, step, stride in ((1.0, dt, 0), (math.nan, dt, 1), (math.inf, dt, 1), (-1.0, dt, 1),
                                (1.0, 0.0, 1)):
        with pytest.raises(ConfigurationError):
            _particle_times(t_end, step, stride)
