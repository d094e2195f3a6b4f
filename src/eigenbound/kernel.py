"""Free-resolvent and iterated Birman-Schwinger kernels with singular quadrature.

The iterated kernel G(x,y) = (1/16 pi^2) int e^{ik|x-z|} e^{ik|z-y|} /
(|x-z||z-y|) V(z) d3z has integrable point singularities at z = x and
z = y.  In prolate spheroidal coordinates with foci at x and y
(|z-x| = c(u+v), |z-y| = c(u-v), 2c = |x-y|) the volume element
c^3 (u^2-v^2) du dv dphi cancels the product of both singular factors
exactly, leaving

    G = (1/16 pi^2) int e^{2ikw} V(z(w,v,phi)) dw dv dphi,  w = c u,

with a bounded smooth integrand.  The remaining sqrt(w^2-c^2) cusp of
the parametrization at w = c is absorbed by a cosh substitution on the
first panel; the degenerate case c = 0 reduces to plain spherical
coordinates through the same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import (CoincidentPoints, DegenerateK, NonpositiveImK,
                     QuadratureNotConverged)
from .potentials import Potential, QuadratureSpec, _sup_over_ball


@dataclass(frozen=True)
class EllipsoidSpec:
    """Prolate spheroid |z-x| + |z-y| = 2r with foci x, y."""
    x: tuple
    y: tuple
    r: float
    c: float
    minor: float

    @classmethod
    def from_foci(cls, x, y, r):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        c = 0.5 * float(np.linalg.norm(x - y))
        if r < c:
            raise ValueError(f"major semiaxis r={r} smaller than focal half-distance c={c}")
        minor = math.sqrt(max(r * r - c * c, 0.0))
        return cls(tuple(x), tuple(y), float(r), c, minor)


def free_resolvent_kernel(k: complex, x, y) -> complex:
    """e^{ik|x-y|} / (4 pi |x-y|)."""
    d = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if d == 0.0:
        raise CoincidentPoints("free resolvent kernel is singular at x = y")
    return np.exp(1j * k * d) / (4.0 * np.pi * d)


def _prolate_panels(c, w_max, n_radial):
    """Quadrature in w = c*cosh(t) near the focus, linear Gauss beyond 2c."""
    panels = []
    if c > 0.0:
        w_split = min(2.0 * c, w_max)
        t_hi = math.acosh(w_split / c)
        t, wt = grids.radial_rule(0.0, t_hi, n_radial)
        panels.append((c * np.cosh(t), wt * c * np.sinh(t)))
        if w_split < w_max:
            w, ww = grids.radial_rule(w_split, w_max, n_radial)
            panels.append((w, ww))
    else:
        w, ww = grids.radial_rule(0.0, w_max, n_radial)
        panels.append((w, ww))
    return panels


def _kernel_w_max(k, c, shift, p: Potential):
    """Upper integration limit: every z with w > w_max lies outside the support
    (plus a decayed tail for exponential potentials)."""
    if p.is_compact:
        tail = 0.0
    else:
        eff = p.decay_class.eps - 2.0 * max(0.0, -k.imag)
        if eff <= 0:
            raise NonpositiveImK(
                "iterated kernel integral diverges below Im k = -eps/2")
        tail = 45.0 / eff
    reach = shift + p.truncation_radius + tail
    return math.sqrt(c * c + reach * reach)


def iterated_kernel(k: complex, x, y, p: Potential,
                    quad: QuadratureSpec | None = None,
                    with_error: bool = False):
    """G_lambda(x,y) for lambda = k^2, by focal prolate-spheroidal quadrature.

    with_error=True also evaluates at a higher resolution and returns
    (value, relative_delta); raises QuadratureNotConverged when the delta
    exceeds quad.tol.
    """
    quad = quad or QuadratureSpec(n_radial=32, n_angular=24)
    k = complex(k)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, e, e1, e2 = _frame(x, y)
    c = 0.5 * float(np.linalg.norm(y - x))
    shift = float(np.linalg.norm(m - np.asarray(p.center)))
    w_max = _kernel_w_max(k, c, shift, p)

    def evaluate(n_r, n_v, n_phi):
        v, wv = grids.radial_rule(-1.0, 1.0, n_v)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        cphi, sphi = np.cos(phi), np.sin(phi)
        total = 0.0 + 0.0j
        for w, ww in _prolate_panels(c, w_max, n_r):
            trans = np.sqrt(np.maximum(w[:, None] ** 2 - c * c, 0.0) *
                            (1.0 - v[None, :] ** 2))          # (n_r, n_v)
            axial = w[:, None] * v[None, :]
            pts = (m[None, None, None, :]
                   + axial[..., None, None] * e[None, None, None, :]
                   + trans[..., None, None] * (cphi[None, None, :, None] * e1[None, None, None, :]
                                               + sphi[None, None, :, None] * e2[None, None, None, :]))
            vals = p.value_fn(pts.reshape(-1, 3)).reshape(len(w), n_v, n_phi)
            phase = np.exp(2j * k * w) * ww
            total += (2.0 * np.pi / n_phi) * complex(
                np.einsum("i,j,ijl->", phase, wv, vals))
        return total / (16.0 * np.pi ** 2)

    val = evaluate(quad.n_radial, max(quad.n_angular, 12), max(quad.n_angular, 12))
    if not with_error:
        return val
    fine = evaluate(int(1.5 * quad.n_radial), int(1.5 * max(quad.n_angular, 12)),
                    int(1.5 * max(quad.n_angular, 12)))
    scale = max(abs(fine), 1e-300)
    delta = abs(val - fine) / scale
    if delta > quad.tol:
        raise QuadratureNotConverged(
            f"iterated kernel refinement delta {delta:.3e} above {quad.tol:.3e}")
    return val, delta


def hs_identity_check(k: complex, p: Potential):
    """Both sides of int int |e^{ik|x-y|}/|x-y| V(y)|^2 = (2 pi / Im k) ||V||_2^2.

    The x integral reduces per fixed y to 4 pi int_0^inf e^{-2 Im k r} dr,
    evaluated numerically on a truncated range; the remaining y integral
    uses the ball rule.  The right side uses the closed form with a
    finer-rule L2 norm.
    """
    if k.imag <= 0.0:
        raise NonpositiveImK("identity requires Im k > 0")
    quad = QuadratureSpec()
    beta = 2.0 * k.imag
    r_cut = 40.0 / beta
    r, wr = grids.radial_rule(0.0, r_cut, 64)
    radial = float(np.dot(wr, np.exp(-beta * r)))
    nodes, w = grids.ball_rule(p.truncation_radius, quad.n_radial,
                               quad.n_angular, p.center)
    l2sq = float(np.dot(w, np.abs(p.value_fn(nodes)) ** 2))
    lhs = 4.0 * np.pi * radial * l2sq
    nodes2, w2 = grids.ball_rule(p.truncation_radius, 2 * quad.n_radial,
                                 quad.n_angular, p.center)
    l2sq_fine = float(np.dot(w2, np.abs(p.value_fn(nodes2)) ** 2))
    rhs = 2.0 * np.pi / k.imag * l2sq_fine
    return lhs, rhs


# ---------------------------------------------------------------------------
# the ellipsoid-integral estimate

def _frame(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    nd = np.linalg.norm(d)
    e = d / nd if nd > 0 else np.array([0.0, 0.0, 1.0])
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(e)))] = 1.0
    e1 = axis - (axis @ e) * e
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e, e1)
    return 0.5 * (x + y), e, e1, e2


def ellipsoid_max_grad(p: Potential, x, y, r):
    """max |grad V| over the surface E(x,y,r), sampled on a 33 x 64 (theta,
    phi) grid + one polish step.

    The polish fits a parabola through the argmax and its grid neighbors
    in each angle (a Newton step on the sampled quadratic model).
    """
    m, e, e1, e2 = _frame(x, y)
    c = 0.5 * float(np.linalg.norm(np.asarray(y, dtype=float) - np.asarray(x, dtype=float)))
    minor = math.sqrt(max(r * r - c * c, 0.0))

    def surf(theta, phi):
        ct, st = np.cos(theta), np.sin(theta)
        return (m[None, :] + np.outer(r * ct, e) +
                np.outer(minor * st * np.cos(phi), e1) +
                np.outer(minor * st * np.sin(phi), e2))

    def gmax_val(theta, phi):
        pts = surf(np.atleast_1d(theta), np.atleast_1d(phi))
        return np.linalg.norm(np.abs(p.grad_fn(pts)), axis=-1)

    n_theta, n_phi = 32, 64
    theta = np.linspace(0.0, np.pi, n_theta + 1)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    vals = gmax_val(tg.ravel(), pg.ravel()).reshape(tg.shape)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best = float(vals[i, j])

    # quadratic polish along each angle
    def parabola_peak(tm, t0, tp, fm, f0, fp):
        den = fm - 2.0 * f0 + fp
        if den >= -1e-300:
            return t0
        return t0 - 0.5 * (fp - fm) / den * (tp - t0)

    dph = phi[1] - phi[0]
    t_im, t_ip = theta[max(i - 1, 0)], theta[min(i + 1, n_theta)]
    f_im = vals[max(i - 1, 0), j]
    f_ip = vals[min(i + 1, n_theta), j]
    t_new = parabola_peak(t_im, theta[i], t_ip, f_im, vals[i, j], f_ip)
    jm, jp = (j - 1) % n_phi, (j + 1) % n_phi
    p_new = parabola_peak(phi[j] - dph, phi[j], phi[j] + dph,
                          vals[i, jm], vals[i, j], vals[i, jp])
    t_new = min(max(t_new, 0.0), np.pi)
    best = max(best, float(gmax_val(t_new, p_new)[0]))
    return best


def proposition_bound(k: complex, x, y, p: Potential) -> float:
    """(1/8|k|) ( ||V||_inf / pi + (1/sqrt2) int_c^inf max_E |grad V| r dr / sqrt(r^2-c^2) ).

    The r integral substitutes r = c cosh(u) to remove the endpoint
    singularity; the upper limit stops once every surface point of the
    ellipsoid is beyond the (possibly tail-extended) support.
    """
    ak = abs(k)
    if ak == 0.0:
        raise DegenerateK("estimate carries a 1/|k| prefactor")
    quad = QuadratureSpec(n_samples=2048)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = 0.5 * float(np.linalg.norm(x - y))
    m = 0.5 * (x + y)
    linf, _ = _sup_over_ball(lambda pts: np.abs(p.value_fn(pts)),
                             p.truncation_radius, p.center, quad)
    shift = float(np.linalg.norm(m - np.asarray(p.center)))
    tail = 0.0 if p.is_compact else 40.0 / p.decay_class.eps
    minor_stop = shift + p.truncation_radius + tail

    if c > 0.0:
        u_max = math.acosh(math.sqrt(c * c + minor_stop ** 2) / c)
        u, wu = grids.radial_rule(0.0, u_max, 40)
        rr = c * np.cosh(u)
        gm = np.array([ellipsoid_max_grad(p, x, y, r) for r in rr])
        integral = c * float(np.dot(wu, gm * np.cosh(u)))
    else:
        r, wr = grids.radial_rule(0.0, minor_stop, 48)
        gm = np.array([ellipsoid_max_grad(p, x, y, rv) for rv in r])
        integral = float(np.dot(wr, gm))

    return (linf / math.pi + integral / math.sqrt(2.0)) / (8.0 * ak)


def segment_min_distance(x, y) -> float:
    """min_{t in [0,1]} |x + t(y-x)|: distance of the segment [x,y] from the origin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    dd = float(d @ d)
    t = 0.0 if dd == 0.0 else min(max(-float(x @ d) / dd, 0.0), 1.0)
    return float(np.linalg.norm(x + t * d))


def exponential_grad_majorant(spec: EllipsoidSpec, eps: float, amp: float) -> float:
    """Surface majorant for |grad V| <= eps*amp*e^{-eps|x|} on E(x,y,r).

    eps*amp*( e^{eps(c+mu-r)} theta(r - sqrt(mu^2+c^2))
            + e^{eps(sqrt(r^2-c^2)-mu)} theta(c+mu-r) ),  theta(0) = 1.
    """
    mu = segment_min_distance(spec.x, spec.y)
    r, c, minor = spec.r, spec.c, spec.minor
    total = 0.0
    if r >= math.sqrt(mu * mu + c * c):
        total += math.exp(eps * (c + mu - r))
    if r <= c + mu:
        total += math.exp(eps * (minor - mu))
    return eps * amp * total
