"""Closed-form scalar functions and eigenvalue-count bounds.

Implements the combinatorial series f(a) = sum_n n^{n/2} a^n / n!, its
inverse, the weighted-exponential pair g_eps / h_eps, the kernel-bound
constants for compactly supported and exponentially decaying potentials,
the discrete-spectral-radius bounds, and the total-multiplicity bounds
with their corollary closed forms.  count_bounds is the one place that
chooses between the two results (Lemma/Theorem/Corollary 1 for compact
support, 2 for exponential decay) from the potential's decay class.
f is summed directly up to a = 17; past that ln f(a) is the one path,
and f(a) is its exponential, +inf exactly where f leaves the double range.

Every bound is evaluated in hardware doubles by default; passing
precision="extended" reruns the same formula in 50-digit software floats
for cross-checking.  In each precision Theorems 1 and 2 share one body,
and so do Corollaries 1 and 2.  The bounds are carried in logarithms
(ln R, ln T, ln q, ln ln f(q)), so a bound too large for doubles comes
back as +inf with a finite logarithm instead of overflowing or raising.
Near-threshold parameters make the log ratio ln(rho/sqrt(T^2+R)) cancel
catastrophically in doubles, so it is always computed through log1p on
the algebraically rearranged argument.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (DegenerateK, DivergentB, InadmissibleRho, InadmissibleT,
                     ModeMismatch, NegativeLogArgument, NonConvergent,
                     NonpositiveImK, WrongDecayClass)
from .potentials import PotentialFunctionals

_LN_DBL_MAX = math.log(np.finfo(float).max)


# ---------------------------------------------------------------------------
# the series f and friends

def f_series(a: float) -> float:
    """f(a) = sum_{n>=0} n^{n/2} a^n / n!  (0^0 = 1).

    The direct sum for a <= 17, e^{ln f(a)} above it: +inf exactly when the
    value exceeds the double range (callers needing the logarithm use
    log_f_series).
    """
    if not a >= 0:
        raise ValueError("f is defined for a >= 0")
    if a > 17.0:
        return _exp(log_f_series(a))
    s = 1.0
    t = a                     # n = 1 term
    n = 1
    while True:
        s += t
        ratio = a * (1.0 + 1.0 / n) ** (n / 2.0) / math.sqrt(n + 1.0)
        t *= ratio
        n += 1
        q = a * math.exp(0.5) / math.sqrt(n + 1.0)  # geometric tail majorant
        if q < 0.5 and t / (1.0 - q) < 1e-15 * s:
            s += t
            return s


def log_f_series(a: float) -> float:
    """ln f(a), finite for every finite a >= 0.

    ln of the direct sum for a <= 17.  Above that the log terms
    t(n) = (n/2) ln n + n ln a - ln n! peak at n* = e a^2, where
    t''(n*) = -1/(2 n*): ln f is summed over n* +- 14 sqrt(2 n*) in chunks
    of 10^6 terms (max + ln sum exp per chunk, joined with logaddexp), ln n!
    by Stirling's series to 1/(1260 n^5), off by under 1e-19 at n >= 181.
    Past a = 1e5 it is the Laplace approximation over the term index; with
    Stirling's ln n!, t(n*) = n*/2 - ln(2 pi n*)/2, so ln f(a) = n*/2 + ln 2/2 to O(1/n*).
    """
    if not a >= 0:
        raise ValueError("f is defined for a >= 0")
    if a <= 17.0:
        return math.log(f_series(a))
    n_star = math.e * a * a
    if a > 1e5:
        return 0.5 * n_star + 0.5 * math.log(2.0)
    half = int(14.0 * math.sqrt(2.0 * n_star)) + 50
    lo = int(n_star) - half
    hi = int(n_star) + half
    acc = -math.inf
    for c0 in range(lo, hi + 1, 1_000_000):
        nv = np.arange(c0, min(c0 + 1_000_000, hi + 1), dtype=float)
        t = (nv * (math.log(a) + 1.0 - 0.5 * np.log(nv)) - 0.5 * np.log(2.0 * math.pi * nv)
             - (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * nv * nv)) / (nv * nv)) / nv)
        top = np.max(t)
        acc = np.logaddexp(acc, top + math.log(np.sum(np.exp(t - top))))
    return float(acc)


def f_inverse(y: float) -> float:
    """Inverse of the strictly increasing f on [1, inf), bisection to 1e-10 relative."""
    if y < 1.0:
        raise ValueError("f maps [0, inf) onto [1, inf)")
    if y == 1.0:
        return 0.0
    ly = math.log(y)
    lo, hi = 0.0, 1.0
    while log_f_series(hi) < ly:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_f_series(mid) < ly:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(hi, 1e-30):
            break
    return 0.5 * (lo + hi)


def g_eps(eps: float, t: float) -> float:
    """g_eps(t) = t * exp(eps * t)."""
    if t < 0 or eps <= 0:
        raise ValueError("need t >= 0 and eps > 0")
    x = eps * t
    if x > _LN_DBL_MAX:
        return math.inf
    return t * math.exp(x)


def h_eps(eps: float, s: float) -> float:
    """Inverse of g_eps: the unique root of t e^{eps t} = s, by safeguarded Newton."""
    if s < 0 or eps <= 0:
        raise ValueError("need s >= 0 and eps > 0")
    if s == 0.0:
        return 0.0
    return _h_eps_log(eps, math.log(s))


def _h_eps_log(eps: float, ls: float) -> float:
    """h_eps(e^ls), also for s past the double range: the root of ln t + eps t = ls."""
    s = _exp(ls)
    t = min(s, math.log1p(eps * s) / eps) if math.isfinite(s) \
        else (math.log(eps) + ls) / eps
    if t <= 0.0:
        t = s
    lo, hi = 0.0, s
    for _ in range(200):
        phi = math.log(t) + eps * t - ls
        if phi > 0:
            hi = t
        else:
            lo = t
        step = phi / (1.0 / t + eps)
        t_new = t - step
        if not (lo < t_new < (hi if hi > 0 else s)):
            t_new = 0.5 * (lo + (hi if hi > lo else t + t))
        if abs(t_new - t) <= 1e-12 * max(t, 1e-300):
            t = t_new
            break
        t = t_new
    return t


# ---------------------------------------------------------------------------
# kernel-bound constants

_SQRT2 = math.sqrt(2.0)


def lemma1_constant(fn: PotentialFunctionals) -> float:
    """C = max{ kato/(8 pi^2), ||V||_inf/(8 pi) + (sqrt2/16)||grad V||_inf (d+1) }."""
    if fn.decay_kind != "compact":
        raise WrongDecayClass("constant C needs a compactly supported potential")
    first = fn.kato_constant / (8.0 * math.pi ** 2)
    second = fn.linf_norm / (8.0 * math.pi) + \
        (_SQRT2 / 16.0) * fn.grad_linf_norm * (fn.support_diameter + 1.0)
    return max(first, second)


def lemma1_kernel_bound(C: float, k: complex) -> float:
    """2C / (sqrt(1+4|k|) - 1), written in rationalized form."""
    ak = abs(k)
    if ak == 0.0:
        raise DegenerateK("kernel bound diverges at k = 0")
    return C * (math.sqrt(1.0 + 4.0 * ak) + 1.0) / (2.0 * ak)


def lemma2_constant(fn: PotentialFunctionals) -> float:
    """C~ = (1/8 pi^2) max{ kato, pi A (1 + sqrt2 pi) }."""
    if fn.decay_kind != "exponential":
        raise WrongDecayClass("constant C~ needs an exponentially decaying potential")
    return max(fn.kato_constant,
               math.pi * fn.weighted_sup * (1.0 + _SQRT2 * math.pi)) / (8.0 * math.pi ** 2)


def lemma2_kernel_bound(Ct: float, eps: float, k: complex) -> float:
    """C~ / h_eps(|k|)."""
    ak = abs(k)
    if ak == 0.0:
        raise DegenerateK("kernel bound diverges at k = 0")
    return Ct / h_eps(eps, ak)


def log_radius_bound(fn: PotentialFunctionals, constant: float, mode: str,
                     eps: Optional[float] = None) -> float:
    """ln R for the given theorem mode; finite whenever C||V||_1 is."""
    cl1 = constant * fn.l1_norm
    if mode == "Theorem1":
        if fn.decay_kind != "compact":
            raise ModeMismatch("Theorem1 radius needs compact support")
        return 2.0 * (_log(cl1) + math.log1p(cl1))
    if mode == "Theorem2":
        if fn.decay_kind != "exponential":
            raise ModeMismatch("Theorem2 radius needs exponential decay")
        e = fn.eps if eps is None else eps
        return 2.0 * (_log(cl1) + e * cl1)
    raise ValueError(f"unknown mode {mode!r}")


def radius_bound(fn: PotentialFunctionals, constant: float, mode: str,
                 eps: Optional[float] = None) -> float:
    """Discrete-spectral-radius bound R for the given theorem mode (+inf past doubles)."""
    return _exp(log_radius_bound(fn, constant, mode, eps))


def hadamard_deviation_bound(c_l1: float, k: complex) -> float:
    """f(2 C||V||_1 / (sqrt(1+4|k|)-1)) - 1: upper bound for |D(k) - 1| in C+.

    c_l1 is the product C * ||V||_1.
    """
    if k.imag <= 0:
        raise NonpositiveImK("Hadamard deviation bound holds in the upper half plane")
    return f_series(lemma1_kernel_bound(c_l1, k)) - 1.0


# ---------------------------------------------------------------------------
# bound reports

@dataclass(frozen=True)
class BoundParameters:
    eps: float
    T: Optional[float] = None

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.T is not None and self.T <= 0:
            raise ValueError("T must be positive")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound.

    radius_R, T_used, rho_used and n_bound are +inf when they leave the
    double range: such a bound is vacuous but honest.  log_radius_R,
    log_T and log_n_bound hold their natural logarithms, which stay
    finite then; a zero R or n_bound has logarithm -inf.
    """
    constant: float
    constant_kind: str        # "C" (Lemma 1) or "Ct" (Lemma 2)
    radius_R: float
    A: float
    B: float
    T_used: float
    rho_used: float
    eps: float
    n_bound: float
    admissible: bool
    diagnostic: str
    log_radius_R: float
    log_T: float
    log_n_bound: float

    def as_dict(self):
        return asdict(self)


def _exp(x: float) -> float:
    """e^x, +inf past the double range (x >= ln DBL_MAX); NaN stays NaN."""
    return math.inf if x >= _LN_DBL_MAX else math.exp(x)


def _log(x: float) -> float:
    """ln x, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _fmt(ln_x: float) -> str:
    """A quantity given by its logarithm, printed plainly while it fits a double."""
    x = _exp(ln_x)
    return f"{x:.6g}" if math.isfinite(x) else f"e^{ln_x:.6g}"


def _log_log_f(ln_a: float) -> float:
    """ln ln f(a) from ln a, finite for every finite ln a.

    Past a = e^20 the terms of f peak at n* ~ e a^2 and
    ln f(a) = e a^2/2 + O(ln a), so ln ln f(a) = 1 + 2 ln a - ln 2 to
    double precision.
    """
    if ln_a > 20.0:
        return 1.0 + 2.0 * ln_a - math.log(2.0)
    return _log(log_f_series(math.exp(ln_a)))


def _ln_q(fn: PotentialFunctionals, eps: float) -> float:
    """ln(AB / 2 pi eps), the argument of f in the count bounds."""
    return _log(fn.weighted_sup) + _log(fn.weighted_l1) - math.log(2.0 * math.pi * eps)


def _ln_threshold(ln_R: float, eps: float) -> float:
    """ln(2R/eps - eps/8), -inf where that is not positive."""
    w = _exp(2.0 * math.log(eps) - math.log(16.0) - ln_R)      # eps^2 / 16R
    return math.log(2.0 / eps) + ln_R + math.log1p(-w) if w < 1.0 else -math.inf


def log_ratio_log(ln_T: float, ln_R: float, delta: float) -> float:
    """ln ln((T+delta)/sqrt(T^2+R)) from ln T and ln R, for any T and R.

    With u = delta/T and v = R/(T delta) the squared ratio is 1 + x,
    x = u(2+u-v)/(1+uv), which neither cancels catastrophically near the
    threshold nor overflows at large T.  -inf when the ratio is not above 1.
    """
    if delta <= 0.0:
        return -math.inf
    ln_u = math.log(delta) - ln_T
    u = _exp(ln_u)
    v = _exp(ln_R - ln_T - math.log(delta))
    gap = 2.0 + u - v
    if gap <= 0.0:
        return -math.inf
    ln_x = ln_u + math.log(gap) - math.log1p(u * v)
    if ln_x < -36.0:            # log1p(x) = x to double precision
        return ln_x - math.log(2.0)
    if ln_x > 36.0:             # log1p(x) = ln x to double precision
        return math.log(0.5 * ln_x)
    return math.log(0.5 * math.log1p(math.exp(ln_x)))


def _check_eps(fn: PotentialFunctionals, eps: float):
    if abs(fn.eps - eps) > 1e-12 * max(1.0, eps):
        raise ValueError(
            f"functionals were measured at eps={fn.eps}, bound requested eps={eps}")


def _theorem_bound(fn, constant, kind, params, enforce, ln_R, ln_t2, t2_text,
                   hadamard_arg):
    """The form Theorems 1 and 2 share, evaluated in logarithms.

    N(V) <= [ln(rho/sqrt(T^2+R))]^{-1} [ln f(AB/2 pi eps) - ln(2 - f(a_T))]
    for T > max(2R/eps - eps/8, t2) and rho = T + eps/4, which must exceed
    sqrt(T^2+R).  The lemma supplies ln t2 and the Hadamard argument
    a_T = hadamard_arg(T, ln T).
    """
    eps = params.eps
    ln_tl = max(_ln_threshold(ln_R, eps), ln_t2)
    if params.T is not None:
        ln_T = math.log(params.T)
    else:
        ln_T = math.log(1.01) + ln_tl if ln_tl > -math.inf else math.log(eps)
    if enforce and ln_T <= ln_tl:
        raise InadmissibleT(f"T={_fmt(ln_T)} must exceed "
                            f"max(2R/eps - eps/8, {t2_text}) = {_fmt(ln_tl)}")
    T = _exp(ln_T)
    delta = eps / 4.0
    ln_denom = log_ratio_log(ln_T, ln_R, delta)
    if enforce and ln_denom == -math.inf:
        raise InadmissibleRho(
            f"rho={T + delta:.6g} not above sqrt(T^2+R) for T={_fmt(ln_T)}")
    arg2 = hadamard_arg(T, ln_T)
    floor = 2.0 - f_series(arg2)
    if floor <= 0.0:
        raise NegativeLogArgument(
            f"2 - f({arg2:.6g}) = {floor:.6g} <= 0; T below the admissible threshold")
    ln_q = _ln_q(fn, eps)
    ln_bracket = float(np.logaddexp(_log_log_f(ln_q), _log(-math.log(floor))))
    ln_n = ln_bracket - ln_denom if ln_bracket > -math.inf else -math.inf
    return BoundReport(constant, kind, _exp(ln_R), fn.weighted_sup, fn.weighted_l1,
                       T, T + delta, eps, _exp(ln_n), True,
                       f"T threshold {_fmt(ln_tl)}; f-arguments q={_fmt(ln_q)}, "
                       f"hadamard={arg2:.6g}", ln_R, ln_T, ln_n)


def _corollary_bound(fn, constant, kind, eps, ln_R, ln_T, ln_denom, case):
    """N(V) <= 2(3 + 2q^2 + ln(1+q)) / denominator, q = AB/2 pi eps, in logarithms."""
    ln_q = _ln_q(fn, eps)
    if ln_q > 40.0:             # 3 + ln(1+q) is below the last digit of 2q^2
        ln_bracket = math.log(2.0) + 2.0 * ln_q
    else:
        q = math.exp(ln_q)
        ln_bracket = math.log(3.0 + 2.0 * q * q + math.log1p(q))
    ln_n = math.log(2.0) + ln_bracket - ln_denom
    T = _exp(ln_T)
    return BoundReport(constant, kind, _exp(ln_R), fn.weighted_sup, fn.weighted_l1,
                       T, T + eps / 4.0, eps, _exp(ln_n), True,
                       f"corollary case {case}", ln_R, ln_T, ln_n)


def _zero_report(fn, constant, kind, eps):
    return BoundReport(constant, kind, 0.0, fn.weighted_sup, fn.weighted_l1,
                       eps, eps, eps, 0.0, True, "zero potential short-circuit",
                       -math.inf, math.log(eps), -math.inf)


def n_bound_theorem1(fn: PotentialFunctionals, C: float,
                     params: BoundParameters, enforce: bool = True,
                     precision: str = "double") -> BoundReport:
    """Total-multiplicity bound for compactly supported potentials.

    N(V) <= [ln((T+eps/4)/sqrt(T^2+R))]^{-1} [ln f(AB/2 pi eps)
             - ln{2 - f(2C||V||_1/(sqrt(1+4T)-1))}].
    """
    if fn.decay_kind != "compact":
        raise ModeMismatch("Theorem 1 requires a compactly supported potential")
    _check_eps(fn, params.eps)
    if precision == "extended":
        return _mp_theorem_bound(fn, C, "C", params, enforce, lambda mp, cl1, eps: (
            (cl1 * (1 + cl1)) ** 2, 2 * cl1 * (1 + 2 * cl1),
            lambda T: 2 * cl1 / (mp.sqrt(1 + 4 * T) - 1)))
    cl1 = C * fn.l1_norm
    return _theorem_bound(
        fn, C, "C", params, enforce, log_radius_bound(fn, C, "Theorem1"),
        _log(2.0 * cl1) + math.log1p(2.0 * cl1), "2C||V||1(1+2C||V||1)",
        lambda T, ln_T: lemma1_kernel_bound(cl1, T))


def n_bound_corollary1(fn: PotentialFunctionals, C: float, eps: float,
                       precision: str = "double") -> BoundReport:
    """Closed-form relaxation of Theorem 1 at its implied T."""
    if fn.decay_kind != "compact":
        raise ModeMismatch("Corollary 1 requires a compactly supported potential")
    _check_eps(fn, eps)
    if precision == "extended":
        return _mp_corollary_bound(fn, C, "C", eps, _corollary1_mp)
    cl1 = C * fn.l1_norm
    if cl1 == 0.0:
        return _zero_report(fn, C, "C", eps)
    L = cl1 * (1.0 + cl1)
    low = eps / 2.0 <= L
    T = 4.0 * L * L / eps if low else 2.0 * cl1 * (1.0 + 2.0 * cl1)
    m = min(eps / (2.0 * cl1), (1.0 + cl1) ** 2 / (1.0 + 2.0 * cl1))
    denom = math.log1p(0.25 * m * m / (1.0 + cl1) ** 2)
    return _corollary_bound(fn, C, "C", eps, 2.0 * math.log(L), math.log(T),
                            math.log(denom), "eps/2<=L" if low else "eps/2>=L")


def n_bound_theorem2(fn: PotentialFunctionals, Ct: float,
                     params: BoundParameters, enforce: bool = True,
                     precision: str = "double") -> BoundReport:
    """Total-multiplicity bound for exponentially decaying potentials.

    The form of Theorem 1 with R = (C~||V||_1)^2 e^{2 eps C~||V||_1},
    second threshold g_eps(2C~||V||_1) and Hadamard argument
    C~||V||_1 / h_eps(T).
    """
    if fn.decay_kind != "exponential":
        raise ModeMismatch("Theorem 2 requires an exponentially decaying potential")
    eps = params.eps
    _check_eps(fn, eps)
    if not math.isfinite(fn.weighted_l1):
        raise DivergentB("B(eps) must be finite")
    if precision == "extended":
        return _mp_theorem_bound(fn, Ct, "Ct", params, enforce, lambda mp, cl1, eps: (
            cl1 ** 2 * mp.exp(2 * eps * cl1), 2 * cl1 * mp.exp(2 * eps * cl1),
            lambda T: cl1 / mp_h_eps(eps, T)))
    cl1 = Ct * fn.l1_norm
    return _theorem_bound(
        fn, Ct, "Ct", params, enforce, log_radius_bound(fn, Ct, "Theorem2", eps),
        _log(2.0 * cl1) + 2.0 * eps * cl1, "g_eps(2C~||V||1)",
        lambda T, ln_T: cl1 / _h_eps_log(eps, ln_T))


def n_bound_corollary2(fn: PotentialFunctionals, Ct: float, eps: float,
                       precision: str = "double") -> BoundReport:
    """Closed-form relaxation of Theorem 2 at its implied T."""
    if fn.decay_kind != "exponential":
        raise ModeMismatch("Corollary 2 requires an exponentially decaying potential")
    _check_eps(fn, eps)
    if precision == "extended":
        return _mp_corollary_bound(fn, Ct, "Ct", eps, _corollary2_mp)
    cl1 = Ct * fn.l1_norm
    if cl1 == 0.0:
        return _zero_report(fn, Ct, "Ct", eps)
    low = eps <= 2.0 * cl1
    if low:      # T = 4 g_eps(C~||V||_1)^2 / eps
        ln_T = math.log(4.0 / eps) + 2.0 * (math.log(cl1) + eps * cl1)
    else:        # T = g_eps(2 C~||V||_1)
        ln_T = math.log(2.0 * cl1) + 2.0 * eps * cl1
    m = min(1.0, eps / (2.0 * cl1))
    ln_y = 2.0 * math.log(m) - math.log(4.0) - 2.0 * cl1    # y = m^2 e^{-2C~||V||1}/4
    ln_denom = ln_y if ln_y < -36.0 else math.log(math.log1p(math.exp(ln_y)))
    return _corollary_bound(fn, Ct, "Ct", eps, log_radius_bound(fn, Ct, "Theorem2", eps),
                            ln_T, ln_denom, "eps<=2Ctl1" if low else "eps>=2Ctl1")


def count_bounds(fn: PotentialFunctionals, mode: str = "auto",
                 T: Optional[float] = None, enforce: bool = True,
                 precision: str = "double"):
    """(mode, constant, theorem report, corollary report) at eps = fn.eps.

    The decay class chooses the theorem: Lemma 1, Theorem 1 and
    Corollary 1 for a compactly supported potential, Lemma 2, Theorem 2
    and Corollary 2 for an exponentially decaying one.  mode "auto" takes
    that choice; a named mode must agree with it (ModeMismatch).  T and
    enforce apply to the theorem; the corollary sets its own T.
    """
    fits = "Theorem1" if fn.decay_kind == "compact" else "Theorem2"
    if mode not in ("auto", "Theorem1", "Theorem2"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode not in ("auto", fits):
        raise ModeMismatch(f"{mode} does not apply to a potential with "
                           f"{fn.decay_kind} decay; {fits} does")
    params = BoundParameters(eps=fn.eps, T=T)
    if fits == "Theorem1":
        c = lemma1_constant(fn)
        return (fits, c, n_bound_theorem1(fn, c, params, enforce, precision),
                n_bound_corollary1(fn, c, fn.eps, precision))
    c = lemma2_constant(fn)
    return (fits, c, n_bound_theorem2(fn, c, params, enforce, precision),
            n_bound_corollary2(fn, c, fn.eps, precision))


# ---------------------------------------------------------------------------
# 50-digit cross-check path (mpmath)

_MP_TERM_LIMIT = 200_000


def mp_f_series(a):
    """f(a) in 50-digit software floats; independent evaluation for oracle cross-checks.

    The terms t(n) are log-concave, peaking at n* = e a^2 with ln t falling as
    (n - n*)^2/(4 n*): the sum runs from n0 = n* - 23 sqrt(n*) (t about e^-130
    of the peak; ln t(n0) by loggamma) until the geometric majorants of both
    skipped tails add up to under 1e-50 of it.  An a whose window of about
    46 sqrt(n*) terms passes 2e5 raises NonConvergent at once.
    """
    import mpmath as mp
    with mp.workdps(50):
        a = mp.mpf(a)
        if a < 0:
            raise ValueError("f is defined for a >= 0")
        n_star = mp.e * a * a
        if 46 * mp.sqrt(n_star) >= _MP_TERM_LIMIT:
            raise NonConvergent(f"extended-precision f({float(a):.6g}) needs about "
                                f"46 sqrt(e a^2) = {float(46 * mp.sqrt(n_star)):.3g} terms, "
                                f"past the limit of {_MP_TERM_LIMIT:.0e}")
        ratio = lambda n: a * mp.power(1 + mp.mpf(1) / max(n, 1), n / 2.0) / mp.sqrt(n + 1)
        n0 = max(0, int(n_star - 23 * mp.sqrt(n_star)))
        t, low, s = mp.mpf(1), 0, 0
        if n0:
            t = mp.exp(n0 * (mp.log(n0) / 2 + mp.log(a)) - mp.loggamma(n0 + 1))
            low = t / (ratio(n0 - 1) - 1)                      # sum of t(n), n < n0
        for n in range(n0, n0 + _MP_TERM_LIMIT):
            s += t
            r = ratio(n)
            t *= r
            if r < 1 and t / (1 - r) + low < mp.mpf(10) ** -50 * s:
                return +s
        raise NonConvergent(f"extended-precision f({float(a):.6g}) exceeded the "
                            f"limit of {_MP_TERM_LIMIT:.0e} terms")


def mp_h_eps(eps, s):
    """h_eps(s) in 50-digit software floats: t = e^x with x + eps e^x = ln s, which
    stays well scaled for s far past the double range (Newton on a convex
    increasing function of x)."""
    import mpmath as mp
    with mp.workdps(50):
        eps, s = mp.mpf(eps), mp.mpf(s)
        if s == 0:
            return mp.mpf(0)
        ls = mp.log(s)
        x = mp.findroot(lambda x: x + eps * mp.exp(x) - ls,
                        mp.log(min(s, mp.log1p(eps * s) / eps)),
                        solver="newton", df=lambda x: 1 + eps * mp.exp(x))
        return mp.exp(x)


def _mp_report(fn, constant, kind, R, T, rho, eps, n_bound, diag):
    import mpmath as mp
    ln = lambda x: float(mp.log(x)) if x > 0 else -math.inf
    return BoundReport(float(constant), kind, float(R), fn.weighted_sup,
                       fn.weighted_l1, float(T), float(rho), float(eps),
                       float(n_bound), True, diag, ln(R), ln(T), ln(n_bound))


def _mp_theorem_bound(fn, constant, kind, params, enforce, forms):
    """Theorem 1 or 2's bound at 50 digits, in the form _theorem_bound shares.

    forms(mp, cl1, eps) gives R, the second threshold t2 and the Hadamard
    argument as a function of T, for cl1 = constant * ||V||_1.
    """
    import mpmath as mp
    with mp.workdps(50):
        eps = mp.mpf(params.eps)
        R, t2, hadamard_arg = forms(mp, mp.mpf(constant) * mp.mpf(fn.l1_norm), eps)
        t_lower = max(2 * R / eps - eps / 8, t2)
        T = mp.mpf(params.T) if params.T is not None else \
            (mp.mpf("1.01") * t_lower if t_lower > 0 else eps)
        if enforce and T <= t_lower:
            raise InadmissibleT(f"T={float(T):.6g} below threshold {float(t_lower):.6g}")
        rho = T + eps / 4
        if enforce and rho < mp.sqrt(T * T + R):
            raise InadmissibleRho("rho = T + eps/4 not above sqrt(T^2+R)")
        floor = 2 - mp_f_series(hadamard_arg(T))
        if floor <= 0:
            raise NegativeLogArgument("2 - f(...) <= 0")
        q = mp.mpf(fn.weighted_sup) * mp.mpf(fn.weighted_l1) / (2 * mp.pi * eps)
        bracket = mp.log(mp_f_series(q)) - mp.log(floor)
        denom = mp.log(rho / mp.sqrt(T * T + R))
        nb = bracket / denom if denom > 0 else mp.inf
        return _mp_report(fn, constant, kind, R, T, rho, eps, max(nb, 0),
                          "extended precision")


def _mp_corollary_bound(fn, constant, kind, eps, forms):
    """Corollary 1 or 2 at 50 digits: N(V) <= 2(3 + 2q^2 + ln(1+q)) / denominator.

    forms(mp, cl1, eps) gives R, the corollary's T and its denominator.
    """
    import mpmath as mp
    with mp.workdps(50):
        eps = mp.mpf(eps)
        cl1 = mp.mpf(constant) * mp.mpf(fn.l1_norm)
        if cl1 == 0:
            return _mp_report(fn, constant, kind, 0, eps, eps, eps, 0, "zero potential")
        R, T, denom = forms(mp, cl1, eps)
        q = mp.mpf(fn.weighted_sup) * mp.mpf(fn.weighted_l1) / (2 * mp.pi * eps)
        nb = 2 * (3 + 2 * q * q + mp.log(1 + q)) / denom
        return _mp_report(fn, constant, kind, R, T, T + eps / 4, eps, nb,
                          "extended precision")


def _corollary1_mp(mp, cl1, eps):
    """Corollary 1's R, T and denominator at 50 digits."""
    L = cl1 * (1 + cl1)
    T = 4 * L * L / eps if eps / 2 <= L else 2 * cl1 * (1 + 2 * cl1)
    m = min(eps / (2 * cl1), (1 + cl1) ** 2 / (1 + 2 * cl1))
    return L * L, T, mp.log(1 + m * m / (4 * (1 + cl1) ** 2))


def _corollary2_mp(mp, cl1, eps):
    """Corollary 2's R, T and denominator at 50 digits."""
    if eps <= 2 * cl1:
        M = cl1 * mp.exp(eps * cl1)
        T = 4 * M * M / eps
    else:
        T = 2 * cl1 * mp.exp(2 * eps * cl1)
    m = min(mp.mpf(1), eps / (2 * cl1))
    return (cl1 ** 2 * mp.exp(2 * eps * cl1), T,
            mp.log(1 + m * m * mp.exp(-2 * cl1) / 4))
