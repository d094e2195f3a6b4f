"""Test potentials on R^3 and measurement of the functionals entering the bounds.

A Potential bundles a complex-valued field V, its gradient, a decay
declaration (compact support or an exponential envelope), and the radius
beyond which quadrature treats the field as zero.  measure_functionals
evaluates every scalar functional the bound formulas consume: L1/L2/sup
norms, the Kato-type constant max_x int |V(y)|/|x-y| d3y, and the
weighted quantities A(eps) = sup |V| e^{eps|x|}, B(eps) = int |V| e^{eps|x|}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import grids
from .errors import (DivergentWeightedNorm, HypothesisViolated,
                     QuadratureNotConverged)

_LN_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class CompactSupport:
    support_radius: float


@dataclass(frozen=True)
class ExponentialDecay:
    eps: float   # decay rate of the declared envelope
    amp: float   # envelope amplitude: |V(x)| <= amp * e^{-eps|x|}


DecayClass = Union[CompactSupport, ExponentialDecay]


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the functional measurements."""
    n_radial: int = 24
    n_angular: int = 38
    n_samples: int = 4096
    seed: int = 0
    tol: float = 1e-6


@dataclass(frozen=True)
class Potential:
    """Complex potential with gradient and decay metadata.

    value_fn maps an (N,3) array of points to (N,) complex values;
    grad_fn maps (N,3) to (N,3) complex gradients.  radial_profile, when
    set, maps an array of distances r from the center to V(r); the
    built-in radial families set it.  Instances are immutable and safe to
    share across workers.
    """
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    decay_class: DecayClass
    truncation_radius: float
    center: tuple = (0.0, 0.0, 0.0)
    family: str = "custom"
    params: dict = field(default_factory=dict)
    radial_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def is_compact(self):
        return isinstance(self.decay_class, CompactSupport)


@dataclass(frozen=True)
class PotentialFunctionals:
    """All measured scalar functionals of a potential, at weight rate eps."""
    l1_norm: float
    l2_norm_sq: float
    linf_norm: float
    grad_linf_norm: float
    support_diameter: Optional[float]
    kato_constant: float
    weighted_sup: float       # A(eps)
    weighted_l1: float        # B(eps)
    quadrature_error_estimate: float
    eps: float
    decay_kind: str           # "compact" or "exponential"


@dataclass(frozen=True)
class DecayReport:
    max_value_ratio: float
    max_grad_ratio: float
    worst_point: tuple
    passed: bool


# ---------------------------------------------------------------------------
# built-in radial families

def _radial_potential(profile, dprofile, decay_class, trunc, center, family, params):
    center = np.asarray(center, dtype=float)

    def value_fn(pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts - center, axis=-1)
        return profile(r)

    def grad_fn(pts):
        pts = np.atleast_2d(pts)
        d = pts - center
        r = np.linalg.norm(d, axis=-1)
        out = np.zeros(pts.shape, dtype=complex)
        m = r > 0
        out[m] = (dprofile(r[m]) / r[m])[:, None] * d[m]
        return out

    return Potential(value_fn, grad_fn, decay_class, trunc,
                     tuple(center), family, dict(params), profile)


def zero_potential(center=(0.0, 0.0, 0.0)):
    return _radial_potential(lambda r: np.zeros_like(r, dtype=complex),
                             lambda r: np.zeros_like(r, dtype=complex),
                             CompactSupport(1.0), 1.0, center, "zero", {})


def bump_potential(v0=1.0, radius=1.0, center=(0.0, 0.0, 0.0)):
    """Smooth bump v0 * exp(1 + 1/((r/a)^2 - 1)) inside r < a, zero outside."""
    v0 = complex(v0)
    a = float(radius)

    def profile(r):
        # the clamp sends 1/(s^2 - 1) to -1e300 for s >= 1, where e^... is 0
        return v0 * np.exp(1.0 + 1.0 / np.minimum(np.square(r / a) - 1.0, -1e-300))

    def dprofile(r):
        s = r / a
        out = np.zeros_like(s, dtype=complex)
        m = s < 1.0
        sm = s[m]
        out[m] = profile(r[m]) * (-2.0 * sm / (sm ** 2 - 1.0) ** 2) / a
        return out

    return _radial_potential(profile, dprofile, CompactSupport(a), a, center,
                             "bump", {"v0": v0, "radius": a})


def gaussian_potential(v0=1.0, width=1.0, center=(0.0, 0.0, 0.0), envelope_eps=None):
    """Gaussian well/bump v0 * exp(-(r/w)^2), declared with an exponential envelope."""
    v0 = complex(v0)
    w = float(width)
    eps = float(envelope_eps) if envelope_eps is not None else 2.0 / w

    def profile(r):
        return v0 * np.exp(-(r / w) ** 2)

    def dprofile(r):
        return v0 * np.exp(-(r / w) ** 2) * (-2.0 * r / w ** 2)

    amp = _fit_envelope_amp(profile, dprofile, eps, center)
    trunc = _exp_truncation_radius(eps, amp, np.linalg.norm(center))
    return _radial_potential(profile, dprofile, ExponentialDecay(eps, amp),
                             trunc, center, "gaussian",
                             {"v0": v0, "width": w, "envelope_eps": eps})


def mollified_exponential_potential(v0=1.0, rate=1.0, smoothing=None,
                                    center=(0.0, 0.0, 0.0)):
    """v0 * exp(-rate * sqrt(r^2 + s^2)): C^1 version of a pure exponential.

    The smoothing s (default 1e-3/rate) removes the cusp at the origin;
    sqrt(r^2+s^2) >= r makes amp = |v0| a valid envelope at rate `rate`.
    """
    v0 = complex(v0)
    eps = float(rate)
    s = float(smoothing) if smoothing is not None else 1e-3 / eps

    def profile(r):
        return v0 * np.exp(-eps * np.sqrt(r ** 2 + s ** 2))

    def dprofile(r):
        q = np.sqrt(r ** 2 + s ** 2)
        return v0 * np.exp(-eps * q) * (-eps * r / q)

    # sqrt smoothing only tightens the envelope, so amp = |v0| is exact at the origin
    amp = abs(v0)
    if np.linalg.norm(center) > 0:
        amp = _fit_envelope_amp(profile, dprofile, eps, center)
    trunc = _exp_truncation_radius(eps, amp, np.linalg.norm(center))
    return _radial_potential(profile, dprofile, ExponentialDecay(eps, amp),
                             trunc, center, "mollified_exponential",
                             {"v0": v0, "rate": eps, "smoothing": s})


def screened_coulomb_potential(v0=1.0, rate=1.0, core_radius=0.25,
                               smoothing=0.05, center=(0.0, 0.0, 0.0)):
    """Long-tailed well v0 * b * exp(-rate*sqrt(r^2+s^2)) / sqrt(r^2+b^2).

    Yukawa-like 1/r tail regularized to a bounded C^1 field; used for
    eigenvalue-ordering scenarios a single-scale bump cannot produce.
    """
    v0 = complex(v0)
    eps = float(rate)
    b = float(core_radius)
    s = float(smoothing)

    def profile(r):
        q = np.sqrt(r ** 2 + s ** 2)
        return v0 * b * np.exp(-eps * q) / np.sqrt(r ** 2 + b ** 2)

    def dprofile(r):
        q = np.sqrt(r ** 2 + s ** 2)
        den = np.sqrt(r ** 2 + b ** 2)
        return v0 * b * np.exp(-eps * q) * \
            (-eps * r / q / den - r / den ** 3)

    amp = _fit_envelope_amp(profile, dprofile, eps, center)
    trunc = _exp_truncation_radius(eps, amp, np.linalg.norm(center))
    return _radial_potential(profile, dprofile, ExponentialDecay(eps, amp),
                             trunc, center, "screened_coulomb",
                             {"v0": v0, "rate": eps, "core_radius": b,
                              "smoothing": s})


def tabulated_potential(radii, values, decay_class=None, center=(0.0, 0.0, 0.0)):
    """Radial profile given by samples (radii[i], values[i]), PCHIP interpolated.

    Beyond the last radius the field is zero; default decay class is
    compact support at that radius.
    """
    from scipy.interpolate import PchipInterpolator
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=complex)
    if radii.ndim != 1 or radii.shape != values.shape:
        raise ValueError("radii and values must be matching 1-D arrays")
    if radii[0] != 0.0:
        raise ValueError("profile must start at r = 0")
    r_max = float(radii[-1])
    sp_re = PchipInterpolator(radii, values.real)
    sp_im = PchipInterpolator(radii, values.imag)
    dre, dim = sp_re.derivative(), sp_im.derivative()

    def profile(r):
        out = np.zeros_like(r, dtype=complex)
        m = r < r_max
        out[m] = sp_re(r[m]) + 1j * sp_im(r[m])
        return out

    def dprofile(r):
        out = np.zeros_like(r, dtype=complex)
        m = r < r_max
        out[m] = dre(r[m]) + 1j * dim(r[m])
        return out

    dc = decay_class if decay_class is not None else CompactSupport(r_max)
    if not isinstance(dc, (CompactSupport, ExponentialDecay)):
        raise TypeError(f"decay_class must be CompactSupport or ExponentialDecay, "
                        f"got {dc!r}")
    trunc = dc.support_radius if isinstance(dc, CompactSupport) else r_max
    return _radial_potential(profile, dprofile, dc, trunc, center,
                             "tabulated", {"n_samples": len(radii)})


# ---------------------------------------------------------------------------
# envelope and truncation helpers

def _fit_envelope_amp(profile, dprofile, eps, center):
    """Smallest amp (with a 1e-6 relative safety) so the declared envelope
    dominates V and grad V.

    Scans a dense radial grid; the envelope weight uses distance from the
    origin, so an off-origin center inflates amp by up to e^{eps|center|}.
    """
    c = float(np.linalg.norm(center))
    hi = c + 60.0 / eps
    r_local = np.linspace(0.0, hi, 20000)
    # worst case over directions: |x| can reach r_local + |center|
    w = np.exp(eps * (r_local + c))
    v = np.abs(profile(r_local))
    g = np.abs(dprofile(r_local))
    amp = max(float(np.max(v * w)), float(np.max(g * w)) / eps)
    return amp * (1.0 + 1e-6)


def _exp_truncation_radius(eps, amp, center_norm=0.0):
    """Smallest rho with the envelope tail below 1e-10 of a crude L1."""
    l1_rough = max(4.0 * math.pi * amp * 2.0 / eps ** 3, 1e-300)
    rho = 5.0 / eps
    for _ in range(80):
        tail = 4.0 * math.pi * amp * math.exp(-eps * rho) * \
            (rho ** 2 / eps + 2 * rho / eps ** 2 + 2 / eps ** 3) * \
            math.exp(eps * center_norm)
        if tail <= 1e-10 * l1_rough:
            break
        rho *= 1.15
    return rho


# ---------------------------------------------------------------------------
# functional measurement

def _sup_over_ball(f, radius, center, spec):
    """Deterministic low-discrepancy sup estimate with local pattern refinement.

    A radial fan through the center is always included so that radially
    symmetric fields hit their ridge exactly.
    """
    pts = grids.ball_sample(radius, spec.n_samples, center, spec.seed)
    dirs, _ = grids.angular_rule(6)
    radii = np.linspace(0.0, radius, 97)
    fan = (np.asarray(center)[None, None, :] +
           radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    pts = np.vstack([pts, fan])
    vals = f(pts)
    i = int(np.argmax(vals))
    x, v = grids.refine_maximum(f, pts[i], radius / math.sqrt(spec.n_samples) * 2.0,
                                rounds=4, shrink=0.3)
    return max(v, float(vals[i])), x


def _tail_rate(p: Potential, spec):
    """Empirical decay rate of |V| past the truncation radius (max over directions)."""
    dirs, _ = grids.angular_rule(26)
    c = np.asarray(p.center)
    r1, r2 = p.truncation_radius, 1.25 * p.truncation_radius
    m1 = float(np.max(np.abs(p.value_fn(c + r1 * dirs))))
    m2 = float(np.max(np.abs(p.value_fn(c + r2 * dirs))))
    if m1 == 0.0 or m2 == 0.0:
        return math.inf
    return math.log(m1 / m2) / (r2 - r1)


def _weighted_ball_radius(p: Potential, eps, rate_hat):
    """Radius making the weighted-integrand tail negligible (below 1e-10)."""
    alpha = rate_hat - eps
    rho_t = p.truncation_radius
    rho = max(1.25 * rho_t, rho_t + 5.0 / alpha)
    for _ in range(200):
        tail_factor = math.exp(-alpha * (rho - rho_t)) * (rho / rho_t) ** 2 * \
            (1.0 / (alpha * rho_t) + 1.0)
        if tail_factor <= 1e-10:
            break
        rho *= 1.1
    return rho


def _radial_weighted_l1(profile, eps, r_hi):
    """B(eps) = int_0^r_hi 4 pi r^2 |V(r)| e^{eps r} dr for V radial about the origin.

    The ball product rule cannot resolve this integrand at large eps,
    where it peaks sharply just inside the support.  The 1-D integrand is
    divided by its sampled peak in logarithms, so neither factor
    overflows, and integrated by bisection from the peak as a breakpoint:
    the piece whose 10- and 20-point Gauss-Legendre values differ most is
    halved, one profile call a round, until the differences add up to 1e-12
    of the sum or there are 200 pieces.  Returns B (+inf past the double
    range) and the summed difference relative to B, its error estimate.
    """
    def log_g(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        with np.errstate(divide="ignore"):
            return np.log(4.0 * np.pi * r * r * np.abs(profile(r))) + eps * r

    r = np.linspace(0.0, r_hi, 4097)
    lg = log_g(r)
    i = int(np.argmax(lg))
    peak = float(lg[i])
    if peak == -math.inf:
        return 0.0, 0.0
    (x10, w10), (x20, w20) = grids.leggauss(10), grids.leggauss(20)

    def pieces(edges):      # (lo, hi, 20-point value, |20- minus 10-point value|) each
        lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
        half = 0.5 * (hi - lo)[:, None]
        g = np.exp(log_g(lo[:, None] + half * (np.append(x10, x20) + 1.0)) - peak) * half
        v10, v20 = g[:, :10] @ w10, g[:, 10:] @ w20
        return list(zip(lo, hi, v20, np.abs(v20 - v10)))

    parts = pieces(sorted({0.0, float(r[i]), float(r_hi)}))
    while len(parts) < 200 and sum(p[3] for p in parts) > 1e-12 * sum(p[2] for p in parts):
        j = max(range(len(parts)), key=lambda j: parts[j][3])
        lo, hi = parts[j][:2]
        parts[j:j + 1] = pieces([lo, 0.5 * (lo + hi), hi])
    val = math.fsum(p[2] for p in parts)
    ln_b = peak + math.log(val)
    return ((math.exp(ln_b) if ln_b < _LN_DBL_MAX else math.inf),
            math.fsum(p[3] for p in parts) / val)


def _ball_weighted_l1(p: Potential, eps, radius, n_radial, n_angular, center):
    """B(eps) by the ball product rule, and its relative change when the radial rule doubles."""
    b = []
    for n in (n_radial, 2 * n_radial):
        nodes, w = grids.ball_rule(radius, n, n_angular, center)
        weight = np.exp(eps * np.linalg.norm(nodes, axis=-1))
        b.append(float(np.dot(w, np.abs(p.value_fn(nodes)) * weight)))
    return b[0], (abs(b[0] - b[1]) / max(b[1], 1e-300) if b[1] > 0 else 0.0)


def _kato_inner(p: Potential, xs, n_radial, n_angular, extent):
    """int |V(y)|/|x-y| d3y for each row x of xs, singularity removed: the
    distance from x runs over [0, |x - c| + extent], one radial rule per
    row, and every row is evaluated in one pass."""
    dirs, wa = grids.angular_rule(n_angular)
    xs = np.atleast_2d(xs)
    r_hi = np.linalg.norm(xs - np.asarray(p.center), axis=1) + extent
    r, wr = grids.radial_rule(0.0, r_hi[:, None], n_radial)       # (row, node)
    pts = xs[:, None, None, :] + r[:, :, None, None] * dirs[None, None, :, :]
    vals = np.abs(p.value_fn(pts.reshape(-1, 3))).reshape(r.shape + (len(dirs),))
    return 4.0 * np.pi * np.einsum("pi,pij,j->p", wr * r, vals, wa)


def measure_functionals(p: Potential, eps: float,
                        quad: QuadratureSpec | None = None) -> PotentialFunctionals:
    """Measure every potential functional entering the bound constants.

    eps is the weight rate for A(eps) and B(eps).  B(eps) of a radial
    potential centred at the origin is a 1-D adaptive integral (see
    _radial_weighted_l1); every other potential uses the 3-D ball rule
    with a doubled-radial-rule error estimate.  For exponentially
    decaying potentials the weighted integral only converges when the
    field decays strictly faster than eps; divergence is detected from
    the sampled tail and raises DivergentWeightedNorm.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    quad = quad or QuadratureSpec()
    rho_t = p.truncation_radius
    center = np.asarray(p.center)

    nodes, w = grids.ball_rule(rho_t, quad.n_radial, quad.n_angular, center)
    absv = np.abs(p.value_fn(nodes))
    l1 = float(np.dot(w, absv))
    l2sq = float(np.dot(w, absv ** 2))

    # refinement-based error estimate (doubled radial rule)
    nodes2, w2 = grids.ball_rule(rho_t, 2 * quad.n_radial, quad.n_angular, center)
    l1_fine = float(np.dot(w2, np.abs(p.value_fn(nodes2))))
    err = abs(l1 - l1_fine) / max(l1_fine, 1e-300) if l1_fine > 0 else 0.0

    linf, _ = _sup_over_ball(lambda pts: np.abs(p.value_fn(pts)), rho_t, center, quad)
    grad_linf, _ = _sup_over_ball(
        lambda pts: np.linalg.norm(np.abs(p.grad_fn(pts)), axis=-1), rho_t, center, quad)

    weight = lambda pts: np.exp(eps * np.linalg.norm(pts, axis=-1))

    def weighted_l1(radius, n_radial):
        if p.radial_profile is not None and not np.any(center):
            return _radial_weighted_l1(p.radial_profile, eps, radius)
        return _ball_weighted_l1(p, eps, radius, n_radial, quad.n_angular, center)

    if p.is_compact:
        a_eps, _ = _sup_over_ball(lambda pts: np.abs(p.value_fn(pts)) * weight(pts),
                                  rho_t, center, quad)
        b_eps, b_err = weighted_l1(rho_t, quad.n_radial)
        err = max(err, b_err)
        support_diameter = 2.0 * p.decay_class.support_radius
        decay_kind = "compact"
    else:
        rate_hat = _tail_rate(p, quad)
        if rate_hat <= eps * (1.0 + 1e-9):
            raise DivergentWeightedNorm(
                f"sampled tail rate {rate_hat:.6g} does not exceed eps={eps:.6g}")
        if math.isinf(rate_hat):
            rho_w = 1.25 * rho_t
            n_rad_w = max(quad.n_radial, 48)
        else:
            rho_w = _weighted_ball_radius(p, eps, rate_hat)
            n_rad_w = max(quad.n_radial, 48,
                          int(2.5 * math.sqrt((rate_hat - eps) * rho_w) + 24))
        b_eps, b_err = weighted_l1(rho_w, n_rad_w)
        err = max(err, b_err)
        a_eps, _ = _sup_over_ball(lambda pts: np.abs(p.value_fn(pts)) * weight(pts),
                                  min(rho_w, 2.0 * rho_t), center, quad)
        support_diameter = None
        decay_kind = "exponential"

    a_eps = max(a_eps, linf)  # weight >= 1 makes A >= sup|V| exact

    # Kato constant: maximize the x-dependent singular integral
    cand = grids.ball_sample(rho_t, min(96, quad.n_samples), center, quad.seed)
    cand = np.vstack([cand, center[None, :]])
    extent = rho_t if p.is_compact else min(rho_w, rho_t + 30.0 / max(eps, 1e-3))
    kato_f = lambda xs: _kato_inner(p, xs, max(16, quad.n_radial), 26, extent)
    kvals = kato_f(cand)
    i = int(np.argmax(kvals))
    _, kato = grids.refine_maximum(kato_f, cand[i], rho_t / 8.0, rounds=2)
    kato = max(kato, float(kvals[i]))

    if err > quad.tol:
        raise QuadratureNotConverged(
            f"relative refinement delta {err:.3e} above tolerance {quad.tol:.3e}")

    return PotentialFunctionals(
        l1_norm=l1, l2_norm_sq=l2sq, linf_norm=linf, grad_linf_norm=grad_linf,
        support_diameter=support_diameter, kato_constant=kato,
        weighted_sup=a_eps, weighted_l1=b_eps,
        quadrature_error_estimate=err, eps=eps, decay_kind=decay_kind)


def validate_decay_hypothesis(p: Potential) -> DecayReport:
    """Check the declared envelope |V| <= amp e^{-eps|x|}, |grad V| <= eps amp e^{-eps|x|}
    at 4096 sample points.

    Raises HypothesisViolated when either sampled ratio exceeds 1 + 1e-9.
    """
    if not isinstance(p.decay_class, ExponentialDecay):
        raise HypothesisViolated("potential is not declared ExponentialDecay")
    eps, amp = p.decay_class.eps, p.decay_class.amp
    scan_r = p.truncation_radius + 3.0 / eps
    pts = grids.ball_sample(scan_r, 4096, p.center, seed=0)
    wt = np.exp(eps * np.linalg.norm(pts, axis=-1))
    rv = np.abs(p.value_fn(pts)) * wt / amp
    rg = np.linalg.norm(np.abs(p.grad_fn(pts)), axis=-1) * wt / (eps * amp)
    iv, ig = int(np.argmax(rv)), int(np.argmax(rg))
    worst = pts[iv] if rv[iv] >= rg[ig] else pts[ig]
    report = DecayReport(float(rv[iv]), float(rg[ig]), tuple(worst),
                         bool(rv[iv] <= 1 + 1e-9 and rg[ig] <= 1 + 1e-9))
    if not report.passed:
        raise HypothesisViolated(
            f"envelope ratios value={rv[iv]:.6g} grad={rg[ig]:.6g} exceed 1",
            point=tuple(worst), ratio=float(max(rv[iv], rg[ig])))
    return report


FAMILIES = {
    "zero": zero_potential,
    "bump": bump_potential,
    "gaussian": gaussian_potential,
    "mollified_exponential": mollified_exponential_potential,
    "screened_coulomb": screened_coulomb_potential,
    "tabulated": tabulated_potential,
}
