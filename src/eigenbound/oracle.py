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

The integrator is Dormand-Prince 8(5,3) with scipy's DOP853 tableau and
step control (rtol 1e-10, atol 1e-40), written out to run a whole batch
of k at once: each k keeps its own radius, step size and error control.
Stages are stored times h, so each costs one sum and one product, and
each step evaluates V once, at every k's stage radii.  A scalar k runs
the same arithmetic as a batch of one, so a value computed in a batch
equals the same k computed alone.
Each sweep of the argument-principle tracker is one batch.

This path never touches the 3-D Nystrom machinery, which is what makes
it usable as an oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ChannelTruncationUnsafe, NonConvergent, NonpositiveImK,
                     StiffIntegration)
from .potentials import Potential
from .zerocount import _Memo, _phase_track, _winding

_R_MIN = 1e-6
# channel counts: the half-disc contour's height above the real axis and
# its initial arcs
_MARGIN = 5e-3
_N0 = 48


@dataclass(frozen=True)
class RadialProblem:
    profile: Callable[[np.ndarray], np.ndarray]   # V(r), vectorized over r
    l: int
    r_max: float


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


# The Dormand-Prince 8(5,3) pair as scipy 1.17's DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.4-II.10): its RMS error norm over the four real components of (u, u'), step
# control, and tableau to the last bit: A below its diagonal row by row, weights B, nodes
# C, and the 5th- and 3rd-order error estimators over the 12 stages and f at r + h.
_A = np.zeros((12, 12))
_A[np.tril_indices(12, -1)] = (
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0.0,
    0.08876275643042054, 0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.037109375,
    0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479,
    0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023, 0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
    -0.868219346841726, 27.59209969944671, 20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0.0, 0.0, -10.53449546673725,
    -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_E53 = np.array([[0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                  -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                  0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0],
                 [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                  1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                  -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0     # -1/(error estimator order 7 + 1)
_RTOL, _ATOL = 1e-10, 1e-40


def _sum_sq(z, sc_re, sc_im):
    """Squared norm of z / scale over the four real components of each k:
    Re and Im of u and u' (axis 0 of z)."""
    return (np.square(z.real / sc_re) + np.square(z.imag / sc_im)).sum(axis=0)


def _integrate_inward(rp: RadialProblem, k, y):
    """(u, u') at _R_MIN from (u, u') = y, shape (2, m), at r_max, for the m k at once.

    Every k keeps its own radius, step size and accept/reject state, as if
    it were integrated alone, and leaves the batch when it reaches _R_MIN.
    A step falling below ten times the float spacing at its radius raises
    StiffIntegration naming its k.  K holds h times each stage, so scipy's
    error norm loses its |h| factor and a stage's (u', q u) is its value
    times (h q, h), written into K with (u, u') reversed.  Stage sums are
    np.dot over K's stage axis, in the same order at any batch size.
    """
    cl = float(rp.l * (rp.l + 1))
    out = np.empty_like(y)
    idx = np.arange(k.size)                   # batch positions still integrating
    k2 = k * k
    r = np.full(k.size, float(rp.r_max))

    def q_at(r):    # q(r) = V(r) + l(l+1)/r^2 - k^2, so that u'' = q u
        q = rp.profile(r.ravel()).reshape(r.shape) - k2
        if cl:
            q += cl / (r * r)
        return q

    # initial step: scipy's select_initial_step, integrating towards smaller r
    f = np.stack([y[1], q_at(r) * y[0]])
    span = rp.r_max - _R_MIN
    sc_re, sc_im = _ATOL + np.abs(y.real) * _RTOL, _ATOL + np.abs(y.imag) * _RTOL
    d0 = np.sqrt(_sum_sq(y, sc_re, sc_im) / 4.0)
    d1 = np.sqrt(_sum_sq(f, sc_re, sc_im) / 4.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    y0 = y - h0 * f
    f0 = np.stack([y0[1], q_at(r - h0) * y0[0]])
    d2 = np.sqrt(_sum_sq(f0 - f, sc_re, sc_im) / 4.0) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-_ERR_EXP))
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), span)

    n_st = len(_B)
    c_rad = np.append(_C[1:n_st], 1.0)[:, None]   # stage radii r + c h, then r + h
    rejected, any_rejected = np.zeros(k.size, dtype=bool), False
    m = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            if idx.size != m:    # buffers and views for this batch size
                m = idx.size
                K = np.empty((2, m, n_st + 1), dtype=complex)       # stages last
                Kf = K.view(float).reshape(2, m, n_st + 1, 2)      # (Re, Im) last
                hq = np.empty((n_st, 2, m), dtype=complex)         # (h q, h) per stage
                ys = np.empty((2, m, 2))                           # a stage's y
                stages = [(_A[s, :s], Kf[..., :s, :], hq[s - 1], K[::-1, :, s])
                          for s in range(1, n_st)]
                ys_c = ys.view(complex)[..., 0]
            min_step = 10.0 * (r - np.nextafter(r, -np.inf))
            if any_rejected:
                stalled = rejected & (h_abs < min_step)
                if stalled.any():
                    raise StiffIntegration(
                        f"radial integration failed at k={k[np.argmax(stalled)]:.6g}: "
                        f"step size fell below the spacing between numbers")
                h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            else:
                h_abs = np.maximum(h_abs, min_step)
            r_new = np.maximum(r - h_abs, _R_MIN)
            h = r_new - r
            h_abs = -h
            q = q_at(r + c_rad * h)
            np.multiply(q, h, out=hq[:, 0])
            hq[:, 1] = h
            yf = y.view(float).reshape(2, m, 2)
            np.multiply(f, h, out=K[..., 0])
            for a, k_in, hq_s, k_out in stages:
                np.add(yf, np.dot(a, k_in, out=ys), out=ys)
                np.multiply(ys_c, hq_s, out=k_out)
            y_new_f = yf + np.dot(_B, Kf[..., :n_st, :], out=ys)
            y_new = y_new_f.view(complex)[..., 0]
            np.multiply(y_new, hq[-1], out=K[::-1, :, n_st])
            f_new = K[..., n_st] / h                    # (u', q u) at r + h
            scale = _ATOL + np.maximum(np.abs(yf), np.abs(y_new_f)) * _RTOL
            e = np.square(np.dot(_E53, Kf) / scale)    # (E5, E3), (u, u'), k, (Re, Im)
            e = e[:, 0] + e[:, 1]
            e5, e3 = e[..., 0] + e[..., 1]
            err = np.where(e5 == 0.0, 0.0, e5 / np.sqrt((e5 + 0.01 * e3) * 4.0))
            factor = _SAFETY * err ** _ERR_EXP
            grow = np.minimum(factor, np.where(rejected, 1.0, _MAX_FACTOR)
                              if any_rejected else _MAX_FACTOR)
            accept = err < 1.0
            any_rejected = not accept.all()
            if not any_rejected:
                h_abs *= grow
                r, y, f = r_new, y_new, f_new
            else:
                h_abs *= np.where(accept, grow, np.fmax(_MIN_FACTOR, factor))
                r = np.where(accept, r_new, r)
                y = np.where(accept, y_new, y)
                f = np.where(accept, f_new, f)
            rejected = ~accept
            done = accept & (r_new <= _R_MIN)
            if done.any():
                out[:, idx[done]] = y[:, done]
                keep = ~done
                idx, k, k2, r, f = idx[keep], k[keep], k2[keep], r[keep], f[:, keep]
                y = np.ascontiguousarray(y[:, keep])      # for its float view
                h_abs, rejected = h_abs[keep], rejected[keep]
    return out


def jost_like_value(rp: RadialProblem, k):
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
    u, up = _integrate_inward(rp, k, np.array(np.broadcast_arrays(u0, du0)))
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


def assert_radial(p: Potential):
    """Reject potentials that vary by more than 1e-8 relative over spheres
    around their center (six directions on five spheres)."""
    rng_dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [0.6, 0.8, 0], [0, -0.6, 0.8], [-0.48, 0.6, 0.64]])
    rng_dirs = rng_dirs / np.linalg.norm(rng_dirs, axis=1)[:, None]
    c = np.asarray(p.center)
    radii = np.linspace(0.15, 0.95, 5) * p.truncation_radius
    for r in radii:
        vals = p.value_fn(c[None, :] + r * rng_dirs)
        if np.max(np.abs(vals - vals[0])) > 1e-8 * max(1e-12, float(np.max(np.abs(vals)))):
            raise ValueError("potential is not radially symmetric about its center")


def max_r2_potential(p: Potential) -> float:
    """sup_r r^2 |V(r)|: channels with l(l+1) above it cannot bind (pointwise
    centrifugal domination l(l+1)/r^2 >= |V(r)|)."""
    profile = _radial_profile(p)
    r = np.linspace(0.0, p.truncation_radius, 4000)[1:]
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
                             l_max: Optional[int] = None) -> RadialCount:
    """Total eigenvalue multiplicity of -Delta + V inside |lambda| <= lambda_radius.

    Counts Jost-function zeros per channel by the argument principle over
    the half-disc |k| <= sqrt(lambda_radius), Im k >= 5e-3, and sums
    with degeneracy 2l+1.  Channels with l(l+1) > sup r^2|V| are skipped:
    the centrifugal barrier dominates the potential pointwise there.  A
    channel whose phase change is not within 0.5 rad of a multiple of
    2 pi raises NonConvergent, as every 3-D winding does.
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
    gamma = _half_disc_contour(kmax, _MARGIN)
    per_channel = {}
    total = 0
    for l in range(l_top + 1):
        rp = RadialProblem(profile, l, r_max)
        fl = _Memo(lambda ks: jost_like_value(rp, ks), batched=True)
        try:
            count = _winding(_phase_track(fl, gamma, _N0, 16)[0])
        except NonConvergent as exc:
            raise NonConvergent(f"channel l={l}: {exc}") from None
        per_channel[l] = count
        total += (2 * l + 1) * count
    return RadialCount(total, per_channel, l_top,
                       f"channels with l(l+1) > sup r^2|V| = {strength:.4g} skipped")
