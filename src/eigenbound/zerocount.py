"""Zero counting and location for determinant families.

Winding numbers are computed by adaptive phase tracking along closed
contours, in breadth-first sweeps: each sweep probes the midpoints of all
arcs not yet accepted as one batch, and an arc is accepted once both of
its half steps stay below pi/2 and meet the Ying-Katz sufficient
sampling condition, so the accumulated argument change is an exact
multiple of 2 pi for an analytic nonvanishing-on-contour function.  A
batched function (the radial oracle) gets each sweep in one call; the
3-D determinant is evaluated one k at a time.  locate_zeros cuts a
rectangle in two across its longer side until Newton from a box's centre
lands inside that box (a polished zero, reported by the box that holds
it) or the box reaches the minimum size (a cluster entry with the boxed
multiplicity); for a real V it uses D(-conj k) = conj D(k) to search
half of each box.  jensen_bound evaluates the Nevanlinna-Jensen averaged
count numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from . import fredholm, potentials, scalarbounds
from .errors import (CenterIsZero, ContinuationOutOfStrip, NonConvergent,
                     ZeroOnContour)

_MODULUS_FLOOR = 1e-12
# locate_zeros: initial arcs per box side, phase-tracking depth, box budget
_BOX_N0 = 10
_BOX_DEPTH = 14
_MAX_BOXES = 4000
# empirical_vs_bound: boxes this small are reported as clusters
_MIN_BOX = 5e-3
# winding_number: phase-tracking depth
_CIRCLE_DEPTH = 16


@dataclass(frozen=True)
class ContourSpec:
    center: complex
    radius: float
    n_samples_initial: int = 64

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
    hold them all in memory.  With mirror set (fn(-conj k) = conj fn(k)),
    a k with Re k < 0 is answered from the value at -conj k.
    """

    def __init__(self, fn, batched=False, mirror=False):
        self.fn = fn
        self.batched = batched
        self.mirror = mirror
        self.cache = {}

    def __call__(self, z):
        return self.many([z])[0]

    def many(self, zs):
        """Values at every z in zs; each k not yet cached is evaluated once."""
        zs = [complex(z) for z in zs]
        flip = [self.mirror and z.real < 0 for z in zs]
        keys = [-z.conjugate() if f else z for z, f in zip(zs, flip)]
        new = list(dict.fromkeys(z for z in keys if z not in self.cache))
        if self.batched and new:
            self.cache.update(zip(new, np.asarray(self.fn(np.array(new)),
                                                  dtype=complex).tolist()))
        else:
            for z in new:
                self.cache[z] = complex(self.fn(z))
        return [self.cache[z].conjugate() if f else self.cache[z]
                for z, f in zip(keys, flip)]


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
                                 _CIRCLE_DEPTH)[0])


def _fmt_box(box):
    return "[" + ", ".join(f"{v:.6g}" for v in box) + "]"


def _box_winding(fn, box, n0, limit):
    """(winding, smallest |fn| sampled) over the rectangle box = (x0, x1, y0, y1).

    When fn mirrors and x0 == -x1, only the right half (0, y0) -> (x1, y0)
    -> (x1, y1) -> (0, y1) is tracked, at the same arc density: along its
    mirror image, the left half, fn turns by the same phase.  A tracking
    failure is re-raised naming the box.
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
        if getattr(fn, "mirror", False) and x0 == -x1:
            total, min_abs = _phase_track(fn, lambda t: gamma(0.125 + 0.5 * t),
                                          n0 * 2, limit)
            return _winding(2.0 * total), min_abs
        total, min_abs = _phase_track(fn, gamma, n0 * 4, limit)
        return _winding(total), min_abs
    except (ZeroOnContour, NonConvergent) as exc:
        raise type(exc)(f"box {_fmt_box(box)}: {exc}") from None


@dataclass(frozen=True)
class JensenResult:
    rhs: float
    n_bound: float
    n_theta: int
    converged: bool


def jensen_bound(fn, center: complex, rho: float, inner_radius: float) -> JensenResult:
    """Numeric Nevanlinna-Jensen bound.

    rhs = mean_theta ln|fn(center + rho e^{i theta})| - ln|fn(center)|;
    n_bound = rhs / ln(rho/inner_radius).
    """
    return jensen_bound_log(lambda z: scalarbounds._log(abs(complex(fn(z)))), center,
                            rho, inner_radius, math.log(rho / inner_radius))


def jensen_bound_log(log_abs, center: complex, rho: float, inner_radius: float,
                     log_ratio_denominator: float, n_theta: int = 64,
                     n_theta_max: int = 8192) -> JensenResult:
    """jensen_bound from log_abs(z) = ln|fn(z)| itself, over a given ln(rho/inner_radius).

    For functions whose modulus leaves the double range on the circle
    (a determinant continued below the real axis); ln|fn| = -inf means a
    zero, a NaN logarithm raises NonConvergent.  The denominator comes
    precomputed, since forming rho/inner_radius in doubles cancels when
    the two are close.
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
    return JensenResult(rhs, rhs / log_ratio_denominator, n, converged)


_SPLIT_FRACTIONS = (0.5, 0.53, 0.46, 0.57, 0.43, 0.61)


class _SplitFailed(Exception):
    """No fraction of the ladder splits a box into children adding up to it."""


def _newton(fn, z, scale, mult, axis=False):
    """Newton's z -> z - mult f/f' from z with a differenced derivative.

    Returns (root, |last step|), or None when 40 steps do not converge, a
    step leaves fn's domain (ContinuationOutOfStrip), or, for mult > 1, a
    step after the third exceeds half the one before it.  It converges
    quadratically to a mult-fold zero (exactly degenerate clusters, e.g.
    the 2l+1 copies of a radial eigenvalue, behave as one such zero), and
    linearly, ratio |1 - mult/p|, to a p-fold one.  With axis set, every
    step is kept on the imaginary axis.
    """
    h = 1e-5 * scale
    try:
        for i in range(40):
            f0 = fn(z)
            d = (fn(z + h) - fn(z - h)) / (2.0 * h)
            if d == 0:
                return None
            step = mult * f0 / d
            if axis:
                step = 1j * step.imag
            z = z - step
            if abs(step) < 1e-11 * max(abs(z), scale):
                return z, abs(step)
            if mult > 1 and i >= 3 and abs(step) > 0.5 * prev:
                return None
            prev = abs(step)
    except ContinuationOutOfStrip:
        pass
    return None


def _root_winding(fn, box, flags):
    """(winding, box) of the search region, widened a little at each retry
    while its contour passes through a zero."""
    last = None
    for j, _ in enumerate(_SPLIT_FRACTIONS):
        dx = (box[1] - box[0]) * 0.011 * j
        dy = (box[3] - box[2]) * 0.013 * j
        trial = (box[0] - dx, box[1] + dx, box[2] - dy, box[3] + dy)
        if j > 0:
            flags["jitter_used"] += 1
        try:
            return _box_winding(fn, trial, _BOX_N0, _BOX_DEPTH)[0], trial
        except ZeroOnContour as exc:
            last = exc
    raise last


def _resolve(fn, box, w, where, min_box, flags):
    """The zeros in box, whose winding is w; where says how box was reached."""
    flags["boxes"] += 1
    if flags["boxes"] > _MAX_BOXES:
        raise NonConvergent(f"subdivision exceeded the budget of {_MAX_BOXES} "
                            f"boxes at box {_fmt_box(box)}, {where}")
    if w == 0:
        return []
    x0, x1, y0, y1 = box
    bx, by = x1 - x0, y1 - y0
    # a symmetric box of a mirroring fn holds zeros on the axis or in mirror
    # pairs: it is cut across Im k only, and its Newton runs on the axis
    sym = fn.mirror and x0 == -x1
    diag = math.hypot(bx, by)
    mid = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    root = _newton(fn, mid, max(by if sym else diag, min_box), w, sym)
    # a root inside the closed box is one of the box's own zeros; a
    # multiplicity-w fixed point is only trusted once a tight neighborhood
    # carries the full winding w (a cluster of distinct zeros fails this
    # and falls back to subdivision)
    if root is not None and x0 <= root[0].real <= x1 and y0 <= root[0].imag <= y1:
        z, step = root
        ok = w == 1
        if not ok:
            try:
                ok = _box_winding(
                    fn, (z.real - 0.02 * bx, z.real + 0.02 * bx,
                         z.imag - 0.02 * by, z.imag + 0.02 * by),
                    max(6, _BOX_N0 // 2), _BOX_DEPTH)[0] == w
            except ZeroOnContour:
                ok = False
        if ok:
            return [ZeroLocation(z, z * z, w, step)]
    flags["newton_fallbacks"] += 1
    if (by if sym else max(bx, by)) <= min_box:
        if sym and w > 1 and x1 > 0.5 * min_box:
            # mirror pairs b, -conj b: the right half off the axis strip, searched as usual
            right = (0.5 * min_box, x1, y0, y1)
            w_right = _box_winding(fn, right, _BOX_N0, _BOX_DEPTH)[0]
            if 0 < 2 * w_right <= w:
                zs = _resolve(fn, right, w_right, f"right half of {_fmt_box(box)}", min_box,
                              flags)
                return zs + [ZeroLocation(-z.k.conjugate(), z.lam.conjugate(), z.multiplicity,
                                          z.uncertainty) for z in zs] + \
                    _resolve(fn, (-right[0], right[0], y0, y1), w - 2 * w_right,
                             f"axis strip of {_fmt_box(box)}", min_box, flags)
        return [ZeroLocation(mid, mid * mid, w, diag)]
    tried = []
    deeper = None
    for j, fr in enumerate(_SPLIT_FRACTIONS):
        if j > 0:
            flags["jitter_used"] += 1
        if bx >= by and not sym:
            xm = x0 + fr * bx
            children = [(x0, xm, y0, y1), (xm, x1, y0, y1)]
        else:
            ym = y0 + fr * by
            children = [(x0, x1, y0, ym), (x0, x1, ym, y1)]
        found = []
        try:
            for c in children:
                found.append(_box_winding(fn, c, _BOX_N0, _BOX_DEPTH))
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
                    for zl in _resolve(fn, c, wc, f"winding {wc} of {ws} splitting "
                                       f"winding {w}, min |f| {min_f:.3g}",
                                       min_box, flags)]
        except _SplitFailed as exc:
            deeper = deeper or exc
    if deeper is not None:
        raise deeper
    raise _SplitFailed(f"box {_fmt_box(box)} with winding {w} has no certified "
                       f"split: " + "; ".join(tried))


def locate_zeros(fn, region, min_box: float, mirror: bool = False) -> ZeroCountResult:
    """Bisection zero search over region = (re0, re1, im0, im1) in the k-plane.

    A box with winding w is polished by a multiplicity-w Newton with a
    differenced derivative from its centre.  The root counts only if it
    lies in the closed box, so each zero is reported by the box that
    holds it, once; its uncertainty is Newton's last step.  Otherwise the
    box is cut in two across its longer side, down to min_box, below
    which it is reported as a cluster with its boxed multiplicity and
    box-diagonal uncertainty.  A Newton step out of fn's domain
    (ContinuationOutOfStrip) ends that attempt like any other Newton
    failure.  Children always partition their parent exactly; a zero
    landing on a cut (or windings failing to add up to the parent's)
    retries the cut at the next fraction of a deterministic ladder, so
    nothing is counted twice or lost.  When no fraction certifies a box,
    its parent re-partitions at its own next fraction, which also moves
    the box's outer edges (one of them may pass through a zero), and the
    abandoned subtree's zeros are discarded.  Midpoint cuts come first
    because sibling edges then share memoized samples.  Every give-up
    names the box, the windings and the smallest |f| met on the contours.

    mirror declares fn(-conj k) = conj fn(k), the Jost symmetry of a real
    V's determinant: fn is then evaluated at Re k >= 0 only, and a box with
    x0 == -x1 tracks its right half, is cut across Im k alone (down to a
    height of min_box) and runs Newton on the axis, 2 evaluations a step.
    At that height a winding >= 2 searches the box's right half beyond
    Re k = min_box/2 as an ordinary box; its zeros' mirrors make up the left.
    """
    fn = _Memo(fn, mirror=mirror)
    flags = {"jitter_used": 0, "newton_fallbacks": 0, "boxes": 0}
    w_root, root = _root_winding(fn, tuple(map(float, region)), flags)
    try:
        zeros = _resolve(fn, root, w_root, f"root winding {w_root}", min_box, flags)
    except _SplitFailed as exc:
        raise ZeroOnContour(f"{exc} (every enclosing box was re-partitioned "
                            f"without success)") from None
    zeros.sort(key=lambda zl: (zl.k.real, zl.k.imag))
    result = ZeroCountResult(w_root, zeros, resolution_flags=flags)
    flags["count_consistent"] = (result.total_multiplicity == result.winding)
    return result


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
    functionals: object


def default_search_region(fn, eps, real):
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
    |Re k|, Im k >= (sqrt(2)||V||_inf)^{1/2}.  Either region is symmetric
    about the imaginary axis.
    """
    lam_max = max(fn.linf_norm, 1e-9)
    if real:
        kmax = math.sqrt(lam_max) * 1.1 + 0.2
        half_w = max(0.35, 0.04 * kmax)
    else:
        kmax = half_w = math.sqrt(math.sqrt(2.0) * lam_max) * 1.1 + 0.1
    margin = max(min(eps / 8.0, 0.05 * kmax), 5e-3)
    return (-half_w, half_w, margin, kmax + margin)


def empirical_vs_bound(p, eps: float, mode: str,
                       n_radial: int = fredholm.DEFAULT_GRID[0],
                       n_angular: int = fredholm.DEFAULT_GRID[1],
                       region=None, quad=None) -> EmpiricalComparison:
    """Locate determinant zeros and compare the counts with the theorem bound.

    Measures the functionals once (with quad), takes the theorem bound
    from scalarbounds.count_bounds (mode "auto" or the theorem matching
    the decay class), then counts zeros of det(I + A) (eigenvalues of
    -Delta + V), det(I - A) (eigenvalues of -Delta - V) and their union
    (zeros of D) inside the search region and checks
    N_emp(V) <= N_D <= n_bound.  Each k is assembled once: the det(I + A)
    search factors both signs there.  V counts as real when every value of
    it on the grid has imaginary part 0; then A(-conj k) = conj A(k), the
    default region is the real-V strip, and a symmetric region is searched
    mirrored.
    """
    fn = potentials.measure_functionals(p, eps, quad)
    report = scalarbounds.count_bounds(fn, mode)[2]
    ev = fredholm.DeterminantEvaluator(p, n_radial, n_angular)
    real = not np.any(np.imag(ev.assembler.vvals))
    if region is None:
        region = default_search_region(fn, eps, real)
    mirror = real and region[0] == -region[1]

    def det_plus(k):
        ev.factors(k, (+1.0, -1.0))
        return ev.det_plus(k)
    res_plus = locate_zeros(det_plus, region, _MIN_BOX, mirror)
    res_minus = locate_zeros(ev.det_minus, region, _MIN_BOX, mirror)
    n_plus = res_plus.total_multiplicity
    n_minus = res_minus.total_multiplicity
    n_d = n_plus + n_minus
    chain_ok = n_plus <= n_d <= report.n_bound
    return EmpiricalComparison(n_plus, n_minus, n_d, report.n_bound,
                               report.radius_R, res_plus.zeros, res_minus.zeros,
                               tuple(region), chain_ok, report, fn)


@dataclass(frozen=True)
class JensenChain:
    n_d_inner: int
    jensen_rhs: float
    jensen_n_bound: float
    theorem_n_bound: float
    theorem_log_n_bound: float
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
    the continued determinant away from zero elsewhere).  The Jensen
    value is held to the theorem in logarithms, so the comparison still
    means something when the theorem's n_bound is +inf.
    """
    T = report.T_used
    delta = report.rho_used - T
    denom = math.exp(scalarbounds.log_ratio_log(report.log_T, report.log_radius_R,
                                                delta))
    jr = jensen_bound_log(evaluator.log_abs_det, 1j * T, report.rho_used,
                          math.sqrt(T * T + report.radius_R), denom,
                          n_theta=n_theta, n_theta_max=n_theta_max)
    chain_ok = (located_inner_count <= jr.n_bound + 1e-9 and
                (jr.n_bound <= 1e-9 or
                 math.log(jr.n_bound) <= report.log_n_bound + 1e-9))
    return JensenChain(located_inner_count, jr.rhs, jr.n_bound, report.n_bound,
                       report.log_n_bound, jr.converged, chain_ok)
