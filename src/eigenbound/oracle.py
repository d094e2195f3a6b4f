"""Independent radial ground truth for spherically symmetric potentials.

Each angular-momentum channel l reduces to the radial equation
-u'' + (l(l+1)/r^2 + V(r)) u = k^2 u.  The Jost-like solution is seeded
at r_max with outgoing Riccati-Hankel data (normalized by e^{-ik r_max},
an analytic nonvanishing factor, so zeros and windings are unchanged but
the integration never under- or overflows), integrated inward, and
matched at r_min against the regular r^{l+1} behavior through a
Wronskian.  Zeros of the returned coefficient in the upper half k-plane
are the discrete eigenvalues of the channel; counts are summed with the
2l+1 radial degeneracy.

The integrator is scipy's DOP853 (Dormand-Prince 8(5,3), rtol 1e-10,
atol 1e-40) ported to run a whole batch of k at once: each k keeps its
own radius, step size and error control, so a value computed in a batch
agrees with the same k computed alone to rounding.  Each sweep of the
argument-principle tracker is one batch.

This path never touches the 3-D Nystrom machinery, which is what makes
it usable as an oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853

from .errors import ChannelTruncationUnsafe, NonpositiveImK, StiffIntegration
from .potentials import Potential
from .zerocount import _Memo, _phase_track

_R_MIN = 1e-6


@dataclass(frozen=True)
class RadialProblem:
    profile: Callable[[np.ndarray], np.ndarray]   # V(r), vectorized over r
    l: int
    r_max: float
    lam: Optional[complex] = None


def _hankel_poly(l: int, z: complex) -> complex:
    """P_l(z) = riccati_hankel_plus_l(z) * e^{-iz}: finite polynomial in 1/z.

    P_{-1} = 1 by convention (from h^+_{-1} = e^{iz}/z).
    """
    if l < 0:
        return 1.0 + 0.0j
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(l + 1):
        if m > 0:
            term *= (l + m) * (l - m + 1) / m * (0.5j / z)
        acc += term
    return (-1j) ** (l + 1) * acc


def riccati_hankel_plus(l: int, z: complex) -> complex:
    """z * h_l^{(1)}(z): outgoing Riccati-Hankel function."""
    return _hankel_poly(l, z) * np.exp(1j * z)


# The Dormand-Prince 8(5,3) pair with scipy's step-size control (Hairer,
# Norsett & Wanner, Solving ODEs I, II.4-II.10): same tableau, same RMS
# error norm over the four real components of (u, u'), same safety and
# step-change factors.
_A, _B, _C, _E3, _E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / (DOP853.error_estimator_order + 1)
_ATOL = 1e-40


def _sum_sq(z, sc_re, sc_im):
    """Squared norm of z / scale over the four real components of each k:
    Re and Im of u and u' (axis 0 of z)."""
    return (np.square(z.real / sc_re) + np.square(z.imag / sc_im)).sum(axis=0)


def _integrate_inward(rp: RadialProblem, k, y, rtol):
    """(u, u') at _R_MIN from (u, u') = y, shape (2, m), at r_max, for the m k at once.

    Every k keeps its own radius, step size and accept/reject state, as if
    it were integrated alone, and leaves the batch when it reaches _R_MIN.
    A step falling below ten times the float spacing at its radius raises
    StiffIntegration naming its k.  Stages are combined with np.dot over
    the last axis, which sums each k's stages in the same order whatever
    the batch size.
    """
    cl = float(rp.l * (rp.l + 1))
    out = np.empty_like(y)
    idx = np.arange(k.size)                   # batch positions still integrating
    k2 = k * k
    r = np.full(k.size, float(rp.r_max))

    def rhs(r, y):
        q = rp.profile(r) - k2
        if cl:
            q += cl / (r * r)
        f = np.empty_like(y)
        f[0] = y[1]
        np.multiply(q, y[0], out=f[1])
        return f

    # initial step: scipy's select_initial_step, integrating towards smaller r
    f = rhs(r, y)
    span = rp.r_max - _R_MIN
    sc_re, sc_im = _ATOL + np.abs(y.real) * rtol, _ATOL + np.abs(y.imag) * rtol
    d0 = np.sqrt(_sum_sq(y, sc_re, sc_im) / 4.0)
    d1 = np.sqrt(_sum_sq(f, sc_re, sc_im) / 4.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    d2 = np.sqrt(_sum_sq(rhs(r - h0, y - h0 * f) - f, sc_re, sc_im) / 4.0) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-_ERR_EXP))
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), span)

    n_st = len(_B)
    rejected = np.zeros(k.size, dtype=bool)
    while idx.size:
        min_step = 10.0 * (r - np.nextafter(r, -np.inf))
        if rejected.any():
            stalled = rejected & (h_abs < min_step)
            if stalled.any():
                raise StiffIntegration(
                    f"radial integration failed at k={k[np.argmax(stalled)]:.6g}: "
                    f"step size fell below the spacing between numbers")
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        r_new = np.maximum(r - h_abs, _R_MIN)
        h = r_new - r
        h_abs = -h
        K = np.empty(y.shape + (n_st + 1,), dtype=complex)     # stages last
        K[..., 0] = f
        for s in range(1, n_st):
            K[..., s] = rhs(r + _C[s] * h, y + h * np.dot(K[..., :s], _A[s, :s]))
        y_new = y + h * np.dot(K[..., :n_st], _B)
        f_new = K[..., n_st] = rhs(r + h, y_new)
        sc_re = _ATOL + np.maximum(np.abs(y.real), np.abs(y_new.real)) * rtol
        sc_im = _ATOL + np.maximum(np.abs(y.imag), np.abs(y_new.imag)) * rtol
        e5 = _sum_sq(np.dot(K, _E5), sc_re, sc_im)
        e3 = _sum_sq(np.dot(K, _E3), sc_re, sc_im)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * 4.0))
            factor = _SAFETY * err ** _ERR_EXP
        accept = err < 1.0
        h_abs *= np.where(accept, np.minimum(factor, np.where(rejected, 1.0, _MAX_FACTOR)),
                          np.fmax(_MIN_FACTOR, factor))
        if accept.all():
            r, y, f = r_new, y_new, f_new
        else:
            r = np.where(accept, r_new, r)
            y = np.where(accept, y_new, y)
            f = np.where(accept, f_new, f)
        rejected = ~accept
        done = accept & (r_new <= _R_MIN)
        if done.any():
            out[:, idx[done]] = y[:, done]
            keep = ~done
            idx, k, k2, r, y, f = idx[keep], k[keep], k2[keep], r[keep], y[:, keep], f[:, keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
    return out


def jost_like_value(rp: RadialProblem, k, rtol: float = 1e-10):
    """k^l times the coefficient of the singular r^{-l} behavior of the
    Jost solution f ~ e^{ikr}, for a scalar k or an array of k (same shape
    out; an array is integrated as one batch).

    Vanishes exactly at the channel's discrete eigenvalues lambda = k^2,
    Im k > 0.  The k^l factor removes the pole the raw coefficient
    inherits from the Riccati-Hankel seed at k = 0, so contours may pass
    near the origin.  The integration itself runs with the seed divided
    by e^{ik r_max} (keeps it O(1) for every k in the upper half plane);
    the factor is restored on the result so the returned value is phase
    flat at large |k| like the textbook Jost function, instead of
    spinning through ~2 k_max r_max radians along a real-axis contour
    segment.  Both manipulations are analytic and nonvanishing in C+, so
    zeros and windings are untouched.
    """
    shape = np.shape(k)
    k = np.asarray(k, dtype=complex).ravel()
    l, r_max = rp.l, rp.r_max
    below = k.imag <= 0
    if below.any():
        raise NonpositiveImK(f"the Jost-like value is defined for Im k > 0, "
                             f"got k={k[below][0]:.6g}")
    far = k.imag * r_max > 600.0
    if far.any():
        raise StiffIntegration(f"e^{{ik r_max}} underflows at k={k[far][0]:.6g}; "
                               f"shrink r_max or the contour")
    z0 = k * r_max
    u0 = (1j) ** l * _hankel_poly(l, z0)
    du0 = (1j) ** l * k * (_hankel_poly(l - 1, z0) - (l / z0) * _hankel_poly(l, z0))
    u, up = _integrate_inward(rp, k, np.array(np.broadcast_arrays(u0, du0)), rtol)
    # Wronskian match against the regular solution r^{l+1}
    b = (u * (l + 1) * _R_MIN ** l - up * _R_MIN ** (l + 1)) / (2 * l + 1)
    return (b * k ** l * np.exp(1j * k * r_max)).reshape(shape)[()]


def _radial_profile(p: Potential):
    """V as a function of the distance from p's center: the family's own
    profile when it sets one, else value_fn along a ray."""
    if p.radial_profile is not None:
        return p.radial_profile
    c = np.asarray(p.center)
    e = np.array([1.0, 0.0, 0.0])

    def profile(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return p.value_fn(c[None, :] + r[:, None] * e[None, :])

    return profile


def assert_radial(p: Potential, n_checks: int = 24, tol: float = 1e-8):
    """Reject potentials that vary over spheres around their center."""
    rng_dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [0.6, 0.8, 0], [0, -0.6, 0.8], [-0.48, 0.6, 0.64]])
    rng_dirs = rng_dirs / np.linalg.norm(rng_dirs, axis=1)[:, None]
    c = np.asarray(p.center)
    radii = np.linspace(0.15, 0.95, n_checks // 6 + 1) * p.truncation_radius
    for r in radii:
        vals = p.value_fn(c[None, :] + r * rng_dirs)
        if np.max(np.abs(vals - vals[0])) > tol * max(1e-12, float(np.max(np.abs(vals)))):
            raise ValueError("potential is not radially symmetric about its center")


def max_r2_potential(p: Potential, n: int = 4000) -> float:
    """sup_r r^2 |V(r)|: channels with l(l+1) above it cannot bind (pointwise
    centrifugal domination l(l+1)/r^2 >= |V(r)|)."""
    profile = _radial_profile(p)
    r = np.linspace(0.0, p.truncation_radius, n)[1:]
    return float(np.max(r * r * np.abs(profile(r))))


def ode_range(p: Potential) -> float:
    """Integration start radius: the support edge, or where the declared
    envelope has dropped nine decades (zero shifts of that size cannot
    flip a count with healthy margins).

    Past a compact support V = 0 and the outgoing seed is exact, so the
    integration starts at the edge and no step crosses the potential's
    non-analytic onset there."""
    if p.is_compact:
        return p.decay_class.support_radius
    dc = p.decay_class
    return min(p.truncation_radius, math.log(1e9) / dc.eps) + 2.0


def _half_disc_contour(kmax, margin):
    """Closed boundary of {|k| <= kmax, Im k >= margin}, positively oriented."""
    x_half = math.sqrt(max(kmax * kmax - margin * margin, 0.0))
    th0 = math.asin(margin / kmax)
    seg_len = 2.0 * x_half
    arc_len = kmax * (math.pi - 2.0 * th0)
    fs = seg_len / (seg_len + arc_len)

    def gamma(t):
        t = t % 1.0
        if t < fs:
            return complex(-x_half + (t / fs) * seg_len, margin)
        th = th0 + (t - fs) / (1.0 - fs) * (math.pi - 2.0 * th0)
        return kmax * complex(math.cos(th), math.sin(th))

    return gamma


@dataclass(frozen=True)
class RadialCount:
    total: int
    per_channel: dict
    l_max_used: int
    skipped_justification: str


def count_eigenvalues_radial(p: Potential, lambda_radius: float,
                             l_max: Optional[int] = None,
                             margin: float = 5e-3, rtol: float = 1e-10,
                             n0: int = 48) -> RadialCount:
    """Total eigenvalue multiplicity of -Delta + V inside |lambda| <= lambda_radius.

    Counts Jost-function zeros per channel by the argument principle over
    the half-disc |k| <= sqrt(lambda_radius), Im k >= margin, and sums
    with degeneracy 2l+1.  Channels with l(l+1) > sup r^2|V| are skipped:
    the centrifugal barrier dominates the potential pointwise there.
    """
    assert_radial(p)
    strength = max_r2_potential(p)
    l_needed = 0
    while l_needed * (l_needed + 1) <= strength:
        l_needed += 1
    if l_max is not None and l_max < l_needed - 1:
        raise ChannelTruncationUnsafe(
            f"need channels up to l={l_needed - 1} (sup r^2|V| = {strength:.4g}), "
            f"got l_max={l_max}")
    l_top = l_needed - 1 if l_max is None else l_max
    profile = _radial_profile(p)
    r_max = ode_range(p)
    kmax = math.sqrt(lambda_radius)
    gamma = _half_disc_contour(kmax, margin)
    per_channel = {}
    total = 0
    for l in range(l_top + 1):
        rp = RadialProblem(profile, l, r_max)
        fl = _Memo(lambda ks: jost_like_value(rp, ks, rtol), batched=True)
        phase = _phase_track(fl, gamma, n0, 16)[0]
        count = round(phase / (2.0 * math.pi))
        per_channel[l] = int(count)
        total += (2 * l + 1) * int(count)
    return RadialCount(total, per_channel, l_top,
                       f"channels with l(l+1) > sup r^2|V| = {strength:.4g} skipped")
