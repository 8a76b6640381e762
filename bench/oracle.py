"""Computations the benchmark makes apart from spoc, to check its outputs.

Nothing here imports spoc: each function restates a property of the method
(the Euler moment recursion of the mean-field OU limit, the quantile coupling
for 1-d W_2, seeded sliced directions, confidence bands, a log-log slope) in
plain Python or numpy, so a check compares two independent computations.
"""

from __future__ import annotations

import math

import numpy as np

Z_90 = 1.6448536269514722  # two-sided 90% normal quantile


def ou_euler_moments(mean0: float, second0: float, dt: float, steps: int):
    """Mean and raw second moment after `steps` Euler steps of the limit law of
    dX = (-2X - EX) dt + (2 - sqrt(E X^2)) dW, the law every particle system
    of `mean_field_ou` converges to at a fixed step dt."""
    m, s = float(mean0), float(second0)
    for _ in range(steps):
        s = ((1 - 2 * dt) ** 2 * s - 2 * (1 - 2 * dt) * dt * m * m + dt * dt * m * m
             + dt * (2 - math.sqrt(s)) ** 2)
        m = (1 - 3 * dt) * m
    return m, s


def quantile_w2_sq(xa, wa, xb, wb) -> float:
    """Squared W_2 between two 1-d weighted atom sets, as the integral over
    u in (0, 1] of (Qa(u) - Qb(u))^2 with left-continuous quantiles.

    The merged cumulative levels cut (0, 1] into segments on which both
    quantile functions are constant; each segment is read at its right end.
    """
    xa, wa, xb, wb = (np.asarray(v, dtype=float) for v in (xa, wa, xb, wb))
    ia, ib = np.argsort(xa, kind="stable"), np.argsort(xb, kind="stable")
    xa, xb = xa[ia], xb[ib]
    ca, cb = np.cumsum(wa[ia]), np.cumsum(wb[ib])
    right = np.unique(np.concatenate([ca[:-1], cb[:-1], [1.0]]))
    right = right[(right > 0.0) & (right <= 1.0)]
    width = np.diff(np.concatenate([[0.0], right]))
    qa = xa[np.minimum(np.searchsorted(ca, right, side="left"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, right, side="left"), xb.size - 1)]
    return float(np.sum(width * (qa - qb) ** 2))


def unit_directions(seed: int, count: int, dim: int) -> np.ndarray:
    """`count` unit directions from numpy's default generator at `seed`."""
    dirs = np.random.default_rng(seed).standard_normal((count, dim))
    norms = np.sqrt(np.sum(dirs**2, axis=1))
    if np.any(norms < 1e-12):
        raise ValueError("degenerate direction draw; pick another seed")
    return dirs / norms[:, None]


def w2(atoms_a, wa, atoms_b, wb, projections: int, seed: int) -> float:
    """Exact W_2 in 1-d; in more dimensions the sliced W_2 over `projections`
    seeded unit directions (root of the mean squared 1-d distance)."""
    a = np.asarray(atoms_a, dtype=float).reshape(len(wa), -1)
    b = np.asarray(atoms_b, dtype=float).reshape(len(wb), -1)
    if a.shape[1] == 1:
        return math.sqrt(quantile_w2_sq(a[:, 0], wa, b[:, 0], wb))
    dirs = unit_directions(seed, projections, a.shape[1])
    pa, pb = a @ dirs.T, b @ dirs.T
    total = sum(quantile_w2_sq(pa[:, j], wa, pb[:, j], wb) for j in range(projections))
    return math.sqrt(total / projections)


def band(samples) -> tuple[float, float]:
    """Mean and 90% normal half-width over independent replications."""
    x = np.asarray(samples, dtype=float)
    return float(x.mean()), float(Z_90 * x.std(ddof=1) / math.sqrt(x.size))


def loglog_slope(ns, errs) -> float:
    """Least-squares slope of ln(err) against ln(n)."""
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errs, float)), 1)[0])
