"""Quadrature rules over balls in R^3 and deterministic point sampling.

Angular rules are Lebedev rules (closed-form node sets for 6/14/26/38
points) or a Gauss-Legendre (cos theta) x uniform (phi) product rule for
any other requested count.  Weights of an angular rule sum to 1, so a
surface integral over the unit sphere is 4*pi*sum(w*f).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.polynomial import legendre

_SQ3 = 1.0 / np.sqrt(3.0)
_SQ2 = 1.0 / np.sqrt(2.0)


def _orbit(values):
    """Every sign choice of the tuple values, placed on every set of
    len(values) axes (increasing axis order), as unit-sphere points."""
    pts = []
    for axes in itertools.combinations(range(3), len(values)):
        for signs in itertools.product((1.0, -1.0), repeat=len(values)):
            v = np.zeros(3)
            v[list(axes)] = np.multiply(signs, values)
            pts.append(v)
    return np.array(pts)


def _lebedev(n):
    octahedron, cube = _orbit((1.0,)), _orbit((_SQ3,) * 3)
    if n == 6:
        return octahedron, np.full(6, 1.0 / 6.0)
    if n == 14:
        dirs = np.vstack([octahedron, cube])
        w = np.concatenate([np.full(6, 1.0 / 15.0), np.full(8, 3.0 / 40.0)])
        return dirs, w
    if n == 26:
        dirs = np.vstack([octahedron, _orbit((_SQ2, _SQ2)), cube])
        w = np.concatenate([np.full(6, 1.0 / 21.0), np.full(12, 4.0 / 105.0),
                            np.full(8, 9.0 / 280.0)])
        return dirs, w
    if n == 38:
        p = np.sqrt((1.0 - _SQ3) / 2.0)
        q = np.sqrt((1.0 + _SQ3) / 2.0)
        dirs = np.vstack([octahedron, cube, _orbit((p, q)), _orbit((q, p))])
        w = np.concatenate([np.full(6, 1.0 / 105.0), np.full(8, 9.0 / 280.0),
                            np.full(24, 1.0 / 35.0)])
        return dirs, w
    raise ValueError(f"no closed-form Lebedev rule with {n} points")

LEBEDEV_COUNTS = (6, 14, 26, 38)


@functools.lru_cache(maxsize=None)
def leggauss(n):
    """numpy's n-point Gauss-Legendre rule on [-1, 1], once per n, read-only."""
    x, w = legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def angular_rule(n_angular):
    """Unit-sphere rule with >= n_angular nodes; weights sum to 1."""
    if n_angular in LEBEDEV_COUNTS:
        return _lebedev(n_angular)
    n_t = max(2, int(np.ceil(np.sqrt(n_angular / 2.0))))
    ct, wt = leggauss(n_t)          # cos(theta) in [-1, 1]
    phi = 2.0 * np.pi * (np.arange(2 * n_t) + 0.5) / (2 * n_t)
    st = np.sqrt(1.0 - ct ** 2)[:, None]
    dirs = np.column_stack([(st * np.cos(phi)).ravel(), (st * np.sin(phi)).ravel(),
                            np.repeat(ct, 2 * n_t)])                 # theta-major
    return dirs, np.repeat(wt / (2.0 * 2 * n_t), 2 * n_t)


def radial_rule(r_lo, r_hi, n):
    """Gauss-Legendre nodes/weights on [r_lo, r_hi]."""
    x, w = leggauss(n)
    half = 0.5 * (r_hi - r_lo)
    return r_lo + half * (x + 1.0), half * w


def ball_rule(radius, n_radial, n_angular, center=(0.0, 0.0, 0.0)):
    """Product rule over the ball |x - center| <= radius.

    Returns (nodes (N,3), weights (N,)); weights sum to the ball volume.
    """
    if n_radial < 2 or n_angular < 2:
        raise ValueError("need at least 2 nodes per factor")
    r, wr = radial_rule(0.0, radius, n_radial)
    dirs, wa = angular_rule(n_angular)
    nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = (wr * r ** 2)[:, None] * (4.0 * np.pi * wa)[None, :]
    return nodes + np.asarray(center, dtype=float), weights.reshape(-1)


_PLASTIC = 1.3247179572447460260  # real root of x^3 = x + 1


def ball_sample(radius, n, center=(0.0, 0.0, 0.0), seed=0):
    """Deterministic low-discrepancy sample of the ball (R3 Kronecker lattice).

    The seed shifts the lattice offset; it does not make the set random.
    """
    alpha = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2, 1.0 / _PLASTIC ** 3])
    offset = np.mod(0.5 + seed * np.array([0.7548776662, 0.5698402910, 0.3287880702]), 1.0)
    idx = np.arange(1, n + 1)[:, None]
    u = np.mod(offset[None, :] + idx * alpha[None, :], 1.0)
    r = radius * np.cbrt(u[:, 0])
    ct = 2.0 * u[:, 1] - 1.0
    st = np.sqrt(np.maximum(0.0, 1.0 - ct ** 2))
    phi = 2.0 * np.pi * u[:, 2]
    pts = np.column_stack([r * st * np.cos(phi), r * st * np.sin(phi), r * ct])
    return pts + np.asarray(center, dtype=float)


def refine_maximum(f, x0, step, rounds=3, shrink=0.35):
    """Deterministic pattern search around x0 for a local max of f on R^3.

    f takes an (N,3) array and returns (N,) real values.
    """
    offsets = np.array([[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1)
                        for k in (-1, 0, 1)], dtype=float)
    best_x = np.asarray(x0, dtype=float)
    best_v = float(f(best_x[None, :])[0])
    h = step
    for _ in range(rounds):
        cand = best_x[None, :] + h * offsets
        vals = f(cand)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = float(vals[i])
            best_x = cand[i]
        h *= shrink
    return best_x, best_v
