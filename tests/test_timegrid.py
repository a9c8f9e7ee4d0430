import math

import pytest

from swarmuq.ensemble import InitialCondition
from swarmuq.errors import ConfigurationError
from swarmuq.gpc import PolynomialFamily, build_basis
from swarmuq.models import CuckerSmaleParams
from swarmuq.pde_oracle import VelocityGrid, bimodal_density, sg_homogeneous_solve
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


def _reference_times(t_end, dt, stride):
    """Times at which the finite-difference reference's observers fire."""
    grid = VelocityGrid(-2.0, 2.0, 17)   # dv^2 = 1/16
    times = []
    sg_homogeneous_solve(bimodal_density(grid), 1.0, build_basis(PolynomialFamily.LEGENDRE, 1), grid,
                         dt=dt, t_end=t_end, observers=[lambda s: times.append(s.time)],
                         observer_stride=stride)
    return times


@pytest.mark.parametrize("times", [_particle_times, _reference_times])
def test_both_solvers_share_the_observed_time_loop(times):
    dt = 1 / 16   # every time below is exact in binary
    # the initial state, every stride, and the last step once, also when
    # the last step is a stride multiple
    assert times(8 * dt, dt, 2) == [k * dt for k in (0, 2, 4, 6, 8)]
    # 8 full steps and a short one of dt/2, a stride multiple or not
    assert times(8.5 * dt, dt, 3) == [0.0, 3 * dt, 6 * dt, 8.5 * dt]
    assert times(8.5 * dt, dt, 2) == [k * dt for k in (0, 2, 4, 6, 8)] + [8.5 * dt]
    for t_end, step, stride in ((1.0, dt, 0), (math.nan, dt, 1), (math.inf, dt, 1), (-1.0, dt, 1),
                                (1.0, 0.0, 1)):
        with pytest.raises(ConfigurationError):
            times(t_end, step, stride)
