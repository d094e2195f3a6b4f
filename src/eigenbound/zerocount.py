"""Zero counting and location for determinant families.

Winding numbers are computed by adaptive phase tracking along closed
contours, in breadth-first sweeps: each sweep probes the midpoints of all
arcs not yet accepted as one batch, and an arc is accepted once both of
its half steps stay below pi/2 and meet the Ying-Katz sufficient
sampling condition, so the accumulated argument change is an exact
multiple of 2 pi for an analytic nonvanishing-on-contour function.  A
batched function (the radial oracle) gets each sweep in one call; the
3-D determinant is evaluated one k at a time.  locate_zeros subdivides a
rectangle until each box isolates one zero (then Newton polish) or
reaches the minimum box size (then a cluster entry with the boxed
multiplicity).  jensen_bound evaluates the Nevanlinna-Jensen averaged
count numerically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (CenterIsZero, ContinuationOutOfStrip, NonConvergent,
                     ZeroOnContour)

_MODULUS_FLOOR = 1e-12


@dataclass(frozen=True)
class ContourSpec:
    center: complex
    radius: float
    n_samples_initial: int = 64
    refinement_limit: int = 16

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")


@dataclass(frozen=True)
class ZeroLocation:
    k: complex
    lam: complex
    multiplicity: int
    uncertainty: float


@dataclass
class ZeroCountResult:
    winding: int
    zeros: List[ZeroLocation] = field(default_factory=list)
    resolution_flags: dict = field(default_factory=dict)

    @property
    def total_multiplicity(self):
        return sum(z.multiplicity for z in self.zeros)


class _Memo:
    """fn with a cache keyed by k.

    A batched fn takes a 1-D array of k and returns their values; any
    other fn is called one k at a time.  The 3-D determinant stays
    unbatched on purpose: assembling several dense matrices at once would
    hold them all in memory.
    """

    def __init__(self, fn, batched=False):
        self.fn = fn
        self.batched = batched
        self.cache = {}

    def __call__(self, z):
        return self.many([z])[0]

    def many(self, zs):
        """Values at every z in zs; each k not yet cached is evaluated once."""
        zs = [complex(z) for z in zs]
        new = list(dict.fromkeys(z for z in zs if z not in self.cache))
        if self.batched and new:
            self.cache.update(zip(new, np.asarray(self.fn(np.array(new)),
                                                  dtype=complex).tolist()))
        else:
            for z in new:
                self.cache[z] = complex(self.fn(z))
        return [self.cache[z] for z in zs]


def _sampled_enough(v0, vm, v1):
    """Ying-Katz sufficient sampling on both halves of an arc sampled at t = 0, 1/2, 1.

    If |f(a)| + |f(b)| > |b - a| max|f'| on a segment, every f(z) on it
    lies within |f(a)| of f(a) or within |f(b)| of f(b), so f has no zero
    there and its argument change is the principal value (Ying & Katz,
    Numer. Math. 53, 1988).  max|f'| is taken from the quadratic through
    the three samples, whose derivative is linear in t and so largest at
    a half's ends.  That model is exact for a pair of zeros hiding between
    samples, whose 2 pi loop the phase steps alone alias to zero.
    """
    d0 = -3.0 * v0 + 4.0 * vm - v1         # derivatives in t at 0, 1/2, 1
    dm = v1 - v0
    d1 = v0 - 4.0 * vm + 3.0 * v1
    return (abs(v0) + abs(vm) > 0.5 * max(abs(d0), abs(dm)) and
            abs(vm) + abs(v1) > 0.5 * max(abs(dm), abs(d1)))


def _sample(fn, gamma, ts):
    """fn at gamma(t) for every t, in one batch; a zero or a non-finite
    value raises at once, naming its k."""
    ks = [gamma(t) for t in ts]
    vals = fn.many(ks)
    for k, v in zip(ks, vals):
        if v == 0.0:
            raise ZeroOnContour(f"function vanished at contour sample k={k:.6g}")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonConvergent(f"non-finite value {v} at contour sample k={k:.6g}")
    return vals


def _phase_track(fn, gamma, n0, limit):
    """Total phase change of fn along the closed parametric curve gamma(t), t in [0,1].

    Returns (phase change, smallest |fn| sampled).  The curve starts as
    n0 equal arcs.  Each sweep probes the midpoints of all arcs not yet
    accepted in one batch, then accepts an arc only if both half steps
    stay below pi/2 and pass the sufficient sampling test of
    _sampled_enough, and splits it at its midpoint otherwise.  An arc's
    verdict depends on its three samples alone, so the probed points do
    not depend on the order of the sweeps.  Accepting on the endpoint step
    alone can alias away a full 2 pi loop hiding between samples (a zero
    just off the contour), which silently corrupts the count; the probe
    makes the tracker drill into any such feature instead.  An arc that
    still fails at depth `limit` (or once the refinement budget is spent)
    ends the search, at the first such arc in t order: as ZeroOnContour
    when |fn| near it has collapsed below 1e-12 of its maximum within 32
    initial arcs, as NonConvergent otherwise.  The modulus test is local
    because a determinant's modulus legitimately spans hundreds of orders
    of magnitude along one contour.
    """
    fn = fn if isinstance(fn, _Memo) else _Memo(fn)
    n_init = max(n0, 8)
    ts = list(np.linspace(0.0, 1.0, n_init + 1))
    samples = dict(zip(ts, _sample(fn, gamma, ts)))
    arcs = [(a, b, 0) for a, b in zip(ts, ts[1:])]     # (t0, t1, depth), in t order
    steps = {}                                          # t0 -> accepted phase step
    budget = (limit + 2) * (n_init + 1) * 8
    while arcs:
        mids = [0.5 * (a + b) for a, b, _ in arcs]
        samples.update(zip(mids, _sample(fn, gamma, mids)))
        split = []
        for (a, b, d), tm in zip(arcs, mids):
            v0, vm, v1 = samples[a], samples[tm], samples[b]
            d1 = np.angle(vm / v0)
            d2 = np.angle(v1 / vm)
            if abs(d1) < 0.5 * math.pi and abs(d2) < 0.5 * math.pi and \
                    _sampled_enough(v0, vm, v1):
                steps[a] = d1 + d2
                continue
            if d >= limit or budget <= 0:
                _stalled(samples, gamma, tm, 1.0 / n_init)
            split += [(a, tm, d + 1), (tm, b, d + 1)]
            budget -= 1
        arcs = split
    total = 0.0
    for t in sorted(steps):
        total += steps[t]
    return total, min(abs(v) for v in samples.values())


def _stalled(samples, gamma, tm, h0):
    """Raise for the arc around tm that refinement could not resolve; h0 is
    the initial arc length in t."""
    near = lambda span: [abs(v) for t, v in samples.items() if abs(t - tm) <= span * h0]
    local, window = near(2), near(32)
    where = (f"at k={gamma(tm):.6g}: local min |f| {min(local):.3g}, "
             f"window max |f| {max(window):.3g}, min |f| on the contour "
             f"{min(abs(v) for v in samples.values()):.3g}")
    if min(local) < _MODULUS_FLOOR * max(window):
        raise ZeroOnContour(f"modulus collapse at a stalled contour arc {where}")
    raise NonConvergent(f"phase step refinement exceeded its limit {where}")


def _winding(total: float) -> int:
    w = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * w) > 0.5:
        raise NonConvergent(f"phase change {total:.3f} is not near a multiple of 2 pi")
    return int(w)


def winding_number(fn: Callable[[complex], complex], contour: ContourSpec) -> int:
    """Zeros enclosed by the circle, by the argument principle."""
    gamma = lambda t: contour.center + contour.radius * np.exp(2j * math.pi * t)
    return _winding(_phase_track(fn, gamma, contour.n_samples_initial,
                                 contour.refinement_limit)[0])


def _fmt_box(box):
    return "[" + ", ".join(f"{v:.6g}" for v in box) + "]"


def _box_winding(fn, box, n0, limit):
    """(winding, smallest |fn| sampled) over the rectangle box = (x0, x1, y0, y1).

    A tracking failure is re-raised naming the box.
    """
    x0, x1, y0, y1 = box
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]

    def gamma(t):
        s = (t % 1.0) * 4.0
        j = min(int(s), 3)
        frac = s - j
        a, b = corners[j], corners[(j + 1) % 4]
        return a + frac * (b - a)

    try:
        total, min_abs = _phase_track(fn, gamma, n0 * 4, limit)
        return _winding(total), min_abs
    except (ZeroOnContour, NonConvergent) as exc:
        raise type(exc)(f"box {_fmt_box(box)}: {exc}") from None


def _winding_box(fn, box, n0=24, limit=14):
    return _box_winding(fn, box, n0, limit)[0]


@dataclass(frozen=True)
class JensenResult:
    rhs: float
    n_bound: float
    n_theta: int
    converged: bool


def jensen_bound(fn, center: complex, rho: float, inner_radius: float,
                 n_theta: int = 64, n_theta_max: int = 8192,
                 log_ratio_denominator: Optional[float] = None) -> JensenResult:
    """Numeric Nevanlinna-Jensen bound.

    rhs = mean_theta ln|fn(center + rho e^{i theta})| - ln|fn(center)|;
    n_bound = rhs / ln(rho/inner_radius).  The denominator can be passed
    precomputed (log_ratio_denominator) when rho and inner_radius are so
    close that forming their ratio in doubles would cancel.
    """
    def log_abs(z):
        v = abs(complex(fn(z)))
        return math.log(v) if v > 0.0 else -math.inf
    return jensen_bound_log(log_abs, center, rho, inner_radius, n_theta,
                            n_theta_max, log_ratio_denominator)


def jensen_bound_log(log_abs, center: complex, rho: float, inner_radius: float,
                     n_theta: int = 64, n_theta_max: int = 8192,
                     log_ratio_denominator: Optional[float] = None) -> JensenResult:
    """jensen_bound from log_abs(z) = ln|fn(z)| itself.

    For functions whose modulus leaves the double range on the circle
    (a determinant continued below the real axis); ln|fn| = -inf means a
    zero, a NaN logarithm raises NonConvergent.
    """
    if rho <= inner_radius:
        raise ValueError(f"need rho > inner_radius, got {rho} <= {inner_radius}")
    phi0 = log_abs(complex(center))
    if phi0 == -math.inf:
        raise CenterIsZero("Jensen formula needs fn(center) != 0")
    if not math.isfinite(phi0):
        raise NonConvergent(f"ln|fn| = {phi0} at the Jensen center {center}")

    def mean_log(n):
        theta = 2.0 * math.pi * np.arange(n) / n
        vals = np.array([log_abs(center + rho * np.exp(1j * t)) for t in theta])
        if np.any(vals == -math.inf):
            raise ZeroOnContour("zero modulus on the Jensen circle")
        if not np.all(np.isfinite(vals)):
            raise NonConvergent(f"ln|fn| is not finite on the Jensen circle "
                                f"|k - {center}| = {rho}")
        return float(np.mean(vals))

    n = max(8, n_theta)
    prev = mean_log(n)
    converged = False
    while n < n_theta_max:
        n *= 2
        cur = mean_log(n)
        if abs(cur - prev) < 1e-6 * max(1.0, abs(cur)):
            prev = cur
            converged = True
            break
        prev = cur
    rhs = prev - phi0
    denom = log_ratio_denominator if log_ratio_denominator is not None \
        else math.log(rho / inner_radius)
    return JensenResult(rhs, rhs / denom, n, converged)


_SPLIT_FRACTIONS = (0.5, 0.53, 0.46, 0.57, 0.43, 0.61)


class _SplitFailed(Exception):
    """No fraction of the ladder splits a box into children adding up to it."""


def locate_zeros(fn, region, min_box: float,
                 n0: int = 10, refinement_limit: int = 14,
                 max_boxes: int = 4000) -> ZeroCountResult:
    """Quadtree zero search over region = (re0, re1, im0, im1) in the k-plane.

    Boxes with winding one are polished by Newton with a differenced
    derivative; clusters that cannot be split above min_box are reported
    with their boxed multiplicity and box-diagonal uncertainty.  A Newton
    step out of fn's domain (ContinuationOutOfStrip) ends that attempt
    like any other Newton failure.  Children always partition their
    parent exactly; a zero landing on a split line (or windings failing to
    add up to the parent's) retries the split at the next fraction of a
    deterministic ladder, so nothing is counted twice or lost.  When no
    fraction certifies a box, its parent re-partitions at its own next
    fraction, which also moves the box's outer edges (one of them may pass
    through a zero), and the abandoned subtree's zeros are discarded.
    Midpoint splits come first because sibling edges then share memoized
    samples.  Every give-up names the box, the windings and the smallest
    |f| met on the contours.
    """
    fn = _Memo(fn)
    x0, x1, y0, y1 = map(float, region)
    flags = {"jitter_used": 0, "newton_fallbacks": 0, "boxes": 0}

    def newton(z, scale, mult=1):
        # z -> z - mult f/f' converges quadratically to a mult-fold zero
        # (exactly degenerate clusters, e.g. the 2l+1 copies of a radial
        # eigenvalue, behave as one such zero)
        h = 1e-5 * scale
        try:
            for _ in range(40):
                f0 = fn(z)
                d = (fn(z + h) - fn(z - h)) / (2.0 * h)
                if d == 0:
                    return None
                step = mult * f0 / d
                z = z - step
                if abs(step) < 1e-11 * max(abs(z), scale):
                    return z
        except ContinuationOutOfStrip:
            pass
        return None

    def root_winding(box):
        last = None
        for j, _ in enumerate(_SPLIT_FRACTIONS):
            dx = (box[1] - box[0]) * 0.011 * j
            dy = (box[3] - box[2]) * 0.013 * j
            trial = (box[0] - dx, box[1] + dx, box[2] - dy, box[3] + dy)
            if j > 0:
                flags["jitter_used"] += 1
            try:
                return _box_winding(fn, trial, n0, refinement_limit)[0], trial
            except ZeroOnContour as exc:
                last = exc
        raise last

    def resolve(box, w, where):
        """The zeros in box, whose winding is w; where says how box was reached."""
        flags["boxes"] += 1
        if flags["boxes"] > max_boxes:
            raise NonConvergent(f"subdivision exceeded the budget of {max_boxes} "
                                f"boxes at box {_fmt_box(box)}, {where}")
        if w == 0:
            return []
        bx = box[1] - box[0]
        by = box[3] - box[2]
        diag = math.hypot(bx, by)
        z = newton(complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3])),
                   max(diag, min_box), mult=w)
        slack = 0.02 * diag
        if z is not None and (box[0] - slack <= z.real <= box[1] + slack and
                              box[2] - slack <= z.imag <= box[3] + slack):
            # a multiplicity-w Newton fixed point is only trusted once a
            # tight neighborhood carries the full winding w (a cluster of
            # distinct zeros fails this and falls back to subdivision)
            ok = w == 1
            if not ok:
                try:
                    ok = _box_winding(
                        fn, (z.real - 0.02 * bx, z.real + 0.02 * bx,
                             z.imag - 0.02 * by, z.imag + 0.02 * by),
                        max(6, n0 // 2), refinement_limit)[0] == w
                except ZeroOnContour:
                    ok = False
            if ok:
                return [ZeroLocation(z, z * z, w, abs(fn(z)))]
        flags["newton_fallbacks"] += 1
        if max(bx, by) <= min_box:
            z = complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
            return [ZeroLocation(z, z * z, w, diag)]
        tried = []
        deeper = None
        for j, fr in enumerate(_SPLIT_FRACTIONS):
            if j > 0:
                flags["jitter_used"] += 1
            xm = box[0] + fr * (box[1] - box[0])
            ym = box[2] + fr * (box[3] - box[2])
            children = [(box[0], xm, box[2], ym), (xm, box[1], box[2], ym),
                        (box[0], xm, ym, box[3]), (xm, box[1], ym, box[3])]
            found = []
            try:
                for c in children:
                    found.append(_box_winding(fn, c, n0, refinement_limit))
            except ZeroOnContour as exc:
                tried.append(f"fraction {fr}: {exc}")
                continue
            except NonConvergent as exc:
                raise NonConvergent(
                    f"{exc}, splitting box {_fmt_box(box)} (winding {w}) at fraction "
                    f"{fr}, sibling windings {[wc for wc, _ in found]}") from None
            ws = [wc for wc, _ in found]
            min_f = min(m for _, m in found)
            if sum(ws) != w:
                tried.append(f"fraction {fr}: child windings {ws}, min |f| {min_f:.3g}")
                continue
            try:
                return [zl for c, wc in zip(children, ws) if wc
                        for zl in resolve(c, wc, f"winding {wc} of {ws} splitting "
                                          f"winding {w}, min |f| {min_f:.3g}")]
            except _SplitFailed as exc:
                deeper = deeper or exc
        if deeper is not None:
            raise deeper
        raise _SplitFailed(f"box {_fmt_box(box)} with winding {w} has no certified "
                           f"split: " + "; ".join(tried))

    w_root, root = root_winding((x0, x1, y0, y1))
    try:
        zeros = resolve(root, w_root, f"root winding {w_root}")
    except _SplitFailed as exc:
        raise ZeroOnContour(f"{exc} (every enclosing box was re-partitioned "
                            f"without success)") from None
    finally:
        # resolve calls itself through its closure; break that cycle so fn
        # (a determinant evaluator holding dense grid arrays) is freed on
        # return rather than at the next cyclic garbage collection
        resolve = None

    # merge duplicates: Newton from adjacent boxes can land on the same zero
    merged: List[ZeroLocation] = []
    tol = max(min_box * 0.25, 1e-9 * max(abs(x0), abs(x1), abs(y0), abs(y1), 1.0))
    for z in sorted(zeros, key=lambda zl: (zl.k.real, zl.k.imag)):
        if merged and abs(z.k - merged[-1].k) < tol and z.multiplicity == 1 \
                and merged[-1].multiplicity == 1:
            continue
        merged.append(z)
    result = ZeroCountResult(int(w_root or 0), merged, resolution_flags=flags)
    flags["count_consistent"] = (result.total_multiplicity == result.winding)
    return result


def write_zeros_csv(path, zeros: List[ZeroLocation]):
    """Columns: re_k, im_k, re_lambda, im_lambda, multiplicity."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["re_k", "im_k", "re_lambda", "im_lambda", "multiplicity"])
        for z in zeros:
            wr.writerow([z.k.real, z.k.imag, z.lam.real, z.lam.imag, z.multiplicity])


# ---------------------------------------------------------------------------
# comparison drivers

@dataclass
class EmpiricalComparison:
    n_empirical_plus: int        # eigenvalues of -Delta + V found
    n_empirical_minus: int       # eigenvalues of -Delta - V found
    n_determinant: int           # zeros of D = det(I-A^2) in the region
    n_bound: float
    radius_R: float
    zeros_plus: List[ZeroLocation]
    zeros_minus: List[ZeroLocation]
    region: tuple
    chain_ok: bool
    report: object


def _is_real_potential(p):
    from . import grids
    pts = grids.ball_sample(0.8 * p.truncation_radius, 48, p.center, seed=1)
    v = p.value_fn(pts)
    scale = float(np.max(np.abs(v)))
    return scale == 0.0 or float(np.max(np.abs(v.imag))) < 1e-13 * scale


def default_search_region(p, fn, eps, pad: float = 1.1):
    """k-plane rectangle covering every possible eigenvalue momentum.

    For real V, -Delta+V is self-adjoint and its discrete spectrum lies in
    [-||V||_inf, 0), so every eigenvalue momentum k = i sqrt|lambda| lies
    on the positive imaginary axis with |k| <= sqrt(||V||_inf): the region
    is a strip around it, of half-width at least 0.35 (room for the ~1e-3
    off-axis splitting the angular rule gives degenerate zeros), reaching
    up to 1.1 sqrt(||V||_inf) + 0.2 plus a margin.  The strip is narrow
    on purpose.  Besides being cheap, it stays clear of the band over the
    real axis where the discretized continuum smears into spurious
    determinant zeros (those sit at Re lambda > 0 and are not discrete
    eigenvalues of the operator), and where the Nystrom grid cannot
    resolve the kernel: for the screened Coulomb well (-37, 24x38 grid,
    eps = 0.5), ln|D| swings from -8.6 to 2605 along Im k = 0.0625 across
    Re k in [-8, 8], and a full-width root contour fails with
    NonConvergent for both signs.  For complex V the region must cover
    the numerical range |lambda| <= sqrt(2)||V||_inf, so it reaches
    |Re k|, Im k >= (sqrt(2)||V||_inf)^{1/2}.
    """
    lam_max = max(fn.linf_norm, 1e-9)
    if _is_real_potential(p):
        kmax = math.sqrt(lam_max) * pad + 0.2
        margin = max(min(eps / 8.0, 0.05 * kmax), 5e-3)
        half_w = max(0.35, 0.04 * kmax)
        # 1.7% left-right asymmetry: dyadic subdivision lines then never
        # land on the imaginary axis, where all the zeros live
        return (-1.017 * half_w, half_w, margin, kmax + margin)
    kmax = math.sqrt(math.sqrt(2.0) * lam_max) * pad + 0.1
    margin = max(min(eps / 8.0, 0.05 * kmax), 5e-3)
    return (-1.017 * kmax, kmax, margin, kmax + margin)


def empirical_vs_bound(p, eps: float, mode: str,
                       n_radial: int = 12, n_angular: int = 38,
                       region=None, min_box: float = 5e-3,
                       quad=None) -> EmpiricalComparison:
    """Locate determinant zeros and compare the counts with the theorem bound.

    Counts zeros of det(I + A) (eigenvalues of -Delta + V), det(I - A)
    (eigenvalues of -Delta - V) and their union (zeros of D) inside the
    search region, then asserts N_emp(V) <= N_D <= n_bound.
    """
    from . import fredholm, potentials, scalarbounds
    fn = potentials.measure_functionals(p, eps, quad)
    if mode == "Theorem1":
        const = scalarbounds.lemma1_constant(fn)
        report = scalarbounds.n_bound_theorem1(fn, const,
                                               scalarbounds.BoundParameters(eps=eps))
    elif mode == "Theorem2":
        const = scalarbounds.lemma2_constant(fn)
        report = scalarbounds.n_bound_theorem2(fn, const,
                                               scalarbounds.BoundParameters(eps=eps))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if region is None:
        region = default_search_region(p, fn, eps)
    ev = fredholm.DeterminantEvaluator(p, n_radial, n_angular)
    res_plus = locate_zeros(ev.det_plus, region, min_box)
    res_minus = locate_zeros(ev.det_minus, region, min_box)
    n_plus = res_plus.total_multiplicity
    n_minus = res_minus.total_multiplicity
    n_d = n_plus + n_minus
    chain_ok = n_plus <= n_d <= report.n_bound
    return EmpiricalComparison(n_plus, n_minus, n_d, report.n_bound,
                               report.radius_R, res_plus.zeros, res_minus.zeros,
                               tuple(region), chain_ok, report)


@dataclass(frozen=True)
class JensenChain:
    n_d_inner: int
    jensen_rhs: float
    jensen_n_bound: float
    theorem_n_bound: float
    converged: bool
    chain_ok: bool


def jensen_chain(evaluator, report, located_inner_count: int,
                 n_theta: int = 256, n_theta_max: int = 8192) -> JensenChain:
    """Numeric Jensen step at the theorem's (T, rho) against the closed-form bound.

    The circle mean averages ln|D| = ln|det(I-A)| + ln|det(I+A)| taken
    from the evaluator's LU factors (log_abs_det), never |D| itself:
    below the real axis ln|D| reaches 1e5 and |D| has left the double
    range.  located_inner_count must be the number of D zeros found inside
    the disc |k - iT| <= sqrt(T^2+R); for the potentials in the suite every
    such zero lies in the small-|k| search region (the kernel bound keeps
    the continued determinant away from zero elsewhere).
    """
    from .scalarbounds import log_ratio_log
    T = report.T_used
    delta = report.rho_used - T
    denom = math.exp(log_ratio_log(report.log_T, report.log_radius_R, delta))
    jr = jensen_bound_log(evaluator.log_abs_det, 1j * T, report.rho_used,
                          math.sqrt(T * T + report.radius_R),
                          n_theta=n_theta, n_theta_max=n_theta_max,
                          log_ratio_denominator=denom)
    chain_ok = (located_inner_count <= jr.n_bound + 1e-9 and
                jr.n_bound <= report.n_bound * (1.0 + 1e-9) + 1e-9)
    return JensenChain(located_inner_count, jr.rhs, jr.n_bound,
                       report.n_bound, jr.converged, chain_ok)
