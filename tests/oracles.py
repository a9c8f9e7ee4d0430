"""Independent reference implementations used by the tests.

Everything here is deliberately written against the raw model equations
(plain loops, dense sums, textbook quadrature), not against the package's
vectorized machinery, so tests compare two genuinely different routes to
the same numbers.
"""
from __future__ import annotations

import numpy as np


def direct_rhs(x, v, theta, k_fun=None, gamma_fun=None, morse=None):
    """Mean-field N-body right-hand side at a fixed random-input value.

    x, v: (N, d).  k_fun/gamma_fun: callables of theta for the alignment
    kernel K / (1 + r^2)^gamma; morse: dict with a, b, C_A, C_R (callables
    of theta), ell_A, ell_R.
    """
    n = x.shape[0]
    dv = np.zeros_like(v)
    if k_fun is not None:
        k = k_fun(theta)
        g = gamma_fun(theta)
        for i in range(n):
            r_sq = ((x - x[i]) ** 2).sum(axis=1)
            h = k / (1.0 + r_sq) ** g
            dv[i] += (h[:, None] * (v - v[i])).sum(axis=0) / n
    if morse is not None:
        a, b = morse["a"], morse["b"]
        ca = morse["C_A"](theta)
        cr = morse["C_R"](theta)
        la, lr = morse["ell_A"], morse["ell_R"]
        for i in range(n):
            diff = x[i] - x
            r = np.sqrt((diff**2).sum(axis=1))
            slope = (ca / la) * np.exp(-r / la) - (cr / lr) * np.exp(-r / lr)
            mask = r > 0
            force = np.zeros_like(diff)
            force[mask] = -slope[mask, None] * diff[mask] / r[mask, None]
            dv[i] += force.sum(axis=0) / n
            dv[i] += (a - b * (v[i] ** 2).sum()) * v[i]
    return v.copy(), dv


def morse_potential(c_a, c_r, ell_a, ell_r, r):
    """Morse pair potential -C_A exp(-r/l_A) + C_R exp(-r/l_R) at distance r."""
    return -c_a * np.exp(-r / ell_a) + c_r * np.exp(-r / ell_r)


def forces_for_rows(rows, x_nodes, v_nodes, sub, ctx):
    """Modal velocity rate of the given rows, written as whole-array
    expressions that allocate every intermediate.  It is the solver's
    node-path arithmetic operation for operation, so the solver's
    in-place evaluation must match it bit for bit.  ``ctx`` supplies the
    node values of the parameters and the projection."""
    model = ctx.model
    n = x_nodes.shape[0]
    xi = x_nodes[rows][:, None]
    vi = v_nodes[rows][:, None]
    if sub is None:
        xj, vj, denom = x_nodes[None, :], v_nodes[None, :], n
    else:
        xj, vj, denom = x_nodes[sub[rows]], v_nodes[sub[rows]], sub.shape[1]
    diff = xi - xj
    r_sq = np.einsum("rsdq,rsdq->rsq", diff, diff)
    rate_nodes = 0.0
    if model.alignment is not None and not ctx.homogeneous:
        h = ctx.k_nodes / (1.0 + r_sq) ** ctx.g_nodes
        rate_nodes = np.einsum("rsq,rsdq->rdq", h, vj - vi) / denom
    if model.morse is not None:
        morse = model.morse
        la, lr = morse.ell_A, morse.ell_R
        r = np.sqrt(r_sq)
        slope = (ctx.ca_nodes / la) * np.exp(-r / la) - (ctx.cr_nodes / lr) * np.exp(-r / lr)
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(r > 0.0, -slope / r, 0.0)
        rate_nodes = rate_nodes + np.einsum("rsq,rsdq->rdq", coef, diff) / denom
        speed_sq = np.einsum("rdq,rdq->rq", v_nodes[rows], v_nodes[rows])
        rate_nodes = rate_nodes + (morse.a - morse.b * speed_sq[:, None, :]) * v_nodes[rows]
    return rate_nodes @ ctx.proj


def direct_rk4(x0, v0, theta, dt, n_steps, **model):
    """Classical RK4 on the N-body system at fixed theta."""
    x, v = x0.copy(), v0.copy()
    for _ in range(n_steps):
        kx1, kv1 = direct_rhs(x, v, theta, **model)
        kx2, kv2 = direct_rhs(x + 0.5 * dt * kx1, v + 0.5 * dt * kv1, theta, **model)
        kx3, kv3 = direct_rhs(x + 0.5 * dt * kx2, v + 0.5 * dt * kv2, theta, **model)
        kx4, kv4 = direct_rhs(x + dt * kx3, v + dt * kv3, theta, **model)
        x = x + (dt / 6) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
        v = v + (dt / 6) * (kv1 + 2 * kv2 + 2 * kv3 + kv4)
    return x, v


def pairwise_spread(values):
    """0.5 * sum_{i != j} |u_i - u_j|^2 by the O(N^2) double loop."""
    n = values.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += ((values[i] - values[j]) ** 2).sum()
    return 0.5 * total


def uniform_expectation(fun, n_nodes=200):
    """High-order Gauss integral of fun(theta) against the uniform law on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return float(np.sum(weights / 2.0 * fun(nodes)))


def gaussian_expectation(fun, n_nodes=200):
    """High-order Gauss integral of fun(theta) against the standard Gaussian."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return float(np.sum(weights / np.sqrt(2 * np.pi) * fun(nodes)))


def bimodal_moments(sigma_sq, mu):
    """Mean and variance of the symmetric two-bump mixture +-mu + N(0, sigma_sq)."""
    return 0.0, sigma_sq + mu**2


def cell_mean_velocities(x, v, axes):
    """Per-cell counts and mean velocities over a 2D position grid by a
    plain loop.  A point falls in the cell [e_k, e_k+1) that holds it, the
    last cell also takes its right edge, and points outside the window are
    clamped into the edge cells; empty cells hold zero velocity."""
    edges = [np.linspace(lo, hi, nb + 1) for lo, hi, nb in axes]
    counts = np.zeros([nb for _, _, nb in axes])
    sums = np.zeros(counts.shape + (2,))
    for point, velocity in zip(x, v):
        cell = []
        for d, (lo, hi, nb) in enumerate(axes):
            c = min(max(point[d], lo), hi)
            k = 0
            while k + 1 < nb and edges[d][k + 1] <= c:
                k += 1
            cell.append(k)
        counts[tuple(cell)] += 1.0
        sums[tuple(cell)] += velocity
    means = np.zeros_like(sums)
    filled = counts > 0
    means[filled] = sums[filled] / counts[filled][:, None]
    return counts, means
