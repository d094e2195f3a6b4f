"""Nystrom discretization of the Birman-Schwinger operator and its determinant.

The operator R_0(lambda) V on the determinant ball (determinant_ball_radius)
is discretized on a spherical product grid; entry (i,j) is
e^{ik|x_i-x_j|}/(4 pi |x_i-x_j|) V(x_j) w_j off the stencils, and each
row's nearest nodes carry a local moment correction against the closed-form
ball integrals of the free kernel.  D(k) = det(I - A^2) is evaluated as
det(I - A) det(I + A) through two pivoted LU factorizations in
log-magnitude + phase form, which survives the huge dynamic range met on
continuation contours.

DeterminantEvaluator is the one way to a determinant: it memoizes the
(phase, log|det|) factors per k and sign.  BSAssembler precomputes the
k-independent geometry once, so assemblies at distinct k are independent
and safe to run in parallel.
"""

from __future__ import annotations

import math

import numpy as np

from . import grids
from .errors import ContinuationOutOfStrip, NonConvergent, TooManyTerms
from .kernel import iterated_kernel
from .potentials import Potential, QuadratureSpec

DEFAULT_GRID = (12, 38)   # 456 nodes


def determinant_ball_radius(p: Potential) -> float:
    """Ball radius for determinant grids.

    The truncation radius of an exponentially decaying potential is sized
    for the weighted norm B(eps) at 1e-10, far beyond what the spectrum
    needs; restricting the Birman-Schwinger grid to where the envelope
    still clears 1e-7 of its amplitude shifts eigenvalues at that same
    level while keeping the grid able to resolve the potential's core.
    """
    if p.is_compact:
        return p.truncation_radius
    return min(p.truncation_radius, math.log(1e7) / p.decay_class.eps + 1.0)


def build_grid(p: Potential, n_radial: int = DEFAULT_GRID[0],
               n_angular: int = DEFAULT_GRID[1]):
    """Spherical product rule over the potential's determinant ball."""
    return grids.ball_rule(determinant_ball_radius(p), n_radial, n_angular, p.center)


def _e_sin_cos(x):
    """(e^{ix} sin x, e^{ix} cos x), elementwise.

    Written through e^{2ix}, so both stay finite where sin x and cos x
    alone overflow (Im x of several hundred): in the upper half plane
    |e^{2ix}| <= 1, and below it the growth e^{-2 Im x} is the entries' own.
    """
    e2 = np.exp(2j * x)
    return (e2 - 1.0) / 2j, (e2 + 1.0) / 2.0


def _seg_r_exp(k: complex, a, b):
    """e^{-ika} int_a^b s e^{iks} ds, elementwise; stable for small |k| max(b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(k) * float(np.max(b, initial=0.0)) < 0.3:
        acc = np.zeros(np.broadcast(a, b).shape, dtype=complex)
        term = np.ones_like(acc)
        for m in range(0, 16):
            if m > 0:
                term = term * (1j * k) / m
            acc = acc + term * (b ** (m + 2) - a ** (m + 2)) / (m + 2)
        return np.exp(-1j * k * a) * acc
    return np.exp(1j * k * (b - a)) * (b / (1j * k) + 1.0 / k ** 2) - \
        (a / (1j * k) + 1.0 / k ** 2)


def _e_q(x):
    """e^{ix} (sin x - x cos x)/x, complex x; series sum_{m>=1} (-1)^{m+1} 2m x^{2m}/(2m+1)! near 0."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.4
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        term = x2 / 3.0
        acc = term.copy()
        for m in range(2, 14):
            term = term * (-x2) * (2 * m) / ((2 * m - 2) * (2 * m) * (2 * m + 1))
            acc += term
        out[small] = np.exp(1j * xs) * acc
    if np.any(~small):
        xb = x[~small]
        es, ec = _e_sin_cos(xb)
        out[~small] = (es - xb * ec) / xb
    return out


def _e_sinc(x):
    """e^{ix} sin(x)/x, complex x."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    out[small] = np.exp(1j * x[small]) * (1.0 - x[small] ** 2 / 6.0)
    xb = x[~small]
    out[~small] = _e_sin_cos(xb)[0] / xb
    return out


def ball_helmholtz_potential(k: complex, rho, radius: float):
    """S(rho) = int_{|y-c| <= radius} e^{ik|x-y|}/(4 pi |x-y|) dy at |x-c| = rho.

    Only the monopole term of e^{ikr}/r = ik sum (2l+1) j_l(kr_<) h_l(kr_>) P_l
    survives the angular integral, which collapses to the closed form
    S = e^{ik rho} q(k rho)/k^2 + sinc(k rho) int_rho^radius s e^{iks} ds.
    Each product is formed with the growing factor (q, sinc) scaled by
    e^{ik rho} and the decaying one by e^{-ik rho}, so S stays finite at
    any |Im k|.  Valid for points inside the ball (rho <= radius).
    """
    rho = np.asarray(rho, dtype=float)
    x = k * rho
    return (_e_q(x) / k ** 2 +
            _e_sinc(x) * _seg_r_exp(k, rho, np.full(rho.shape, float(radius))))


# series coefficients of A_h(x) = e^{ix}(i x^2 - 3x - 3i) about 0 (a_0, a_1 = -3i, 0)
_AH_COEFF = {2: -0.5j, 4: -0.125j, 5: 1.0 / 15.0, 6: 1j / 48.0,
             7: -1.0 / 210.0, 8: -1j / 1152.0}


def _ah_poly(x):
    """e^{-ix} times the antiderivative A_h(x) of t^3 h^(1)_1(t): i x^2 - 3x - 3i."""
    return 1j * x * x - 3.0 * x - 3.0j


def _e_j1(x):
    """e^{ix} j_1(x), complex x."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.1
    xs = x[small]
    out[small] = np.exp(1j * xs) * (xs / 3.0 - xs ** 3 / 30.0 + xs ** 5 / 840.0)
    xb = x[~small]
    es, ec = _e_sin_cos(xb)
    out[~small] = es / xb ** 2 - ec / xb
    return out


def ball_helmholtz_dipole(k: complex, rho, radius: float):
    """D(rho) = int_{ball} e^{ik|x-y|}/(4 pi |x-y|) (y . xhat) dy at |x-c| = rho.

    The l = 1 term of the monopole-dipole expansion; with A_j, A_h the
    Riccati antiderivatives, D = (i/k^3)[h_1(k rho) A_j(k rho)
    + j_1(k rho)(A_h(k radius) - A_h(k rho))].  As in the monopole,
    A_j(y) = 3(sin y - y cos y) - y^2 sin y and j_1 are scaled by e^{iy}
    and h_1, A_h by e^{-iy}, so D stays finite at any |Im k|.
    """
    rho = np.asarray(rho, dtype=float)
    y = k * rho
    yr = k * float(radius)
    small = np.abs(y) < 0.4
    p1 = np.empty(rho.shape, dtype=complex)
    ys = y[small]
    p1[small] = -np.exp(1j * ys) * (ys + 1j) * \
        (ys ** 3 / 15.0 - ys ** 5 / 210.0 + ys ** 7 / 7560.0)
    yb = y[~small]
    es, ec = _e_sin_cos(yb)
    p1[~small] = -(yb + 1j) / yb ** 2 * (3.0 * (es - yb * ec) - yb ** 2 * es)
    if abs(yr) < 0.25:
        delta_ah = np.zeros(rho.shape, dtype=complex)
        for n, a in _AH_COEFF.items():
            delta_ah += a * (yr ** n - y ** n)
        delta_ah *= np.exp(-1j * y)
    else:
        delta_ah = np.exp(1j * (yr - y)) * _ah_poly(yr) - _ah_poly(y)
    return 1j / k ** 3 * (p1 + _e_j1(y) * delta_ah)


def _check_strip(k: complex, p: Potential, radius: float):
    """Admit k where the continued kernel is defined and its entries are doubles.

    Below the real axis the kernel grows like e^{-Im k |x-y|}; across a
    ball of the given radius that leaves the double range once
    -2 Im k radius passes 700, even for compactly supported potentials.
    """
    if k == 0:
        raise ContinuationOutOfStrip("assembly requires k != 0")
    if k.imag > 0:
        return
    if not p.is_compact and k.imag <= -p.decay_class.eps / 4.0:
        raise ContinuationOutOfStrip(
            f"Im k = {k.imag:.6g} below the strip -eps/4 = {-p.decay_class.eps / 4.0:.6g}")
    if -2.0 * k.imag * radius > 700.0:
        raise ContinuationOutOfStrip(
            f"Im k = {k.imag:.6g}: kernel entries e^{{-2 Im k r}} over a ball of "
            f"radius {radius:.6g} leave the double range")


class BSAssembler:
    """Precomputed geometry for fast repeated assembly at many k.

    The rule is locally corrected: for each row the weights of the
    nearest nodes are adjusted (minimum-norm) so that the row integrates
    const and linear functions times the kernel exactly, using the
    closed-form monopole/dipole ball moments.  This removes the dominant
    near-singularity quadrature error.
    """

    N_NEIGHBORS = 14

    def __init__(self, p: Potential, nodes, weights):
        self.potential = p
        self.ball_radius = determinant_ball_radius(p)
        self.nodes = np.asarray(nodes)
        self.weights = np.asarray(weights)
        d = self.nodes[:, None, :] - self.nodes[None, :, :]
        self.dist = np.sqrt(np.sum(d * d, axis=-1))
        np.fill_diagonal(self.dist, 1.0)          # placeholder; diagonal is replaced
        self.vvals = p.value_fn(self.nodes)
        self.vw = self.vvals * self.weights
        center = np.asarray(p.center, dtype=float)
        self.node_rho = np.linalg.norm(self.nodes - center[None, :], axis=1)
        with np.errstate(invalid="ignore"):
            self.node_hat = np.where(self.node_rho[:, None] > 0,
                                     (self.nodes - center[None, :]) /
                                     np.where(self.node_rho[:, None] == 0, 1.0,
                                              self.node_rho[:, None]),
                                     0.0)
        self._prepare_moment_stencils()

    def _prepare_moment_stencils(self):
        """Per-row neighbor sets and pseudo-inverses of the moment matrices.

        Nearest nodes cluster on the node's own radial shell (nearly
        coplanar caps), so the radially adjacent nodes in the product
        grid's (shell, direction) layout are forced into every stencil to
        keep the linear moments well posed.
        """
        n = len(self.weights)
        m = min(self.N_NEIGHBORS, n)
        dist = self.dist.copy()
        np.fill_diagonal(dist, 0.0)
        order = np.argsort(dist, axis=1)
        nbr = np.empty((n, m), dtype=int)
        n_ang = self._n_angular_layout()
        for i in range(n):
            forced = [i]
            if n_ang:
                for j in (i - n_ang, i + n_ang):
                    if 0 <= j < n:
                        forced.append(j)
            seen = list(dict.fromkeys(forced))
            for j in order[i]:
                if len(seen) >= m:
                    break
                if j not in seen:
                    seen.append(int(j))
            nbr[i] = seen[:m]
        self.nbr = nbr
        dx = self.nodes[self.nbr] - self.nodes[:, None, :]           # (n, m, 3)
        scale = np.maximum(np.max(np.linalg.norm(dx, axis=2), axis=1), 1e-12)
        self.mom_scale = scale
        q = np.empty((n, 4, m))
        q[:, 0, :] = 1.0
        q[:, 1:, :] = np.transpose(dx, (0, 2, 1)) / scale[:, None, None]
        qqt = q @ np.transpose(q, (0, 2, 1))                         # (n, 4, 4)
        self.mom_pinv = np.transpose(q, (0, 2, 1)) @ np.linalg.pinv(qqt, rcond=1e-10)

    def _n_angular_layout(self):
        """Angular block size of the (shell-major, direction-minor) node layout."""
        n = len(self.weights)
        rho = self.node_rho
        first = rho[0]
        count = int(np.sum(np.abs(rho - first) < 1e-9 * max(first, 1.0)))
        if count > 1 and n % count == 0:
            return count
        return 0

    def matrix(self, k: complex):
        """The Nystrom matrix A(k) of R_0(k^2) V on this grid."""
        _check_strip(complex(k), self.potential, self.ball_radius)
        kern = np.exp(1j * k * self.dist) / (4.0 * np.pi * self.dist)
        np.fill_diagonal(kern, 0.0)
        a = kern * self.vw[None, :]
        s = ball_helmholtz_potential(k, self.node_rho, self.ball_radius)
        dip = ball_helmholtz_dipole(k, self.node_rho, self.ball_radius)
        kw = kern * self.weights[None, :]
        raw0 = kw.sum(axis=1)
        raw1 = kw @ self.nodes - raw0[:, None] * self.nodes
        exact1 = self.node_hat * (dip - self.node_rho * s)[:, None]
        defect = np.empty((len(s), 4), dtype=complex)
        defect[:, 0] = s - raw0
        defect[:, 1:] = (exact1 - raw1) / self.mom_scale[:, None]
        delta = np.einsum("nmf,nf->nm", self.mom_pinv, defect)
        rows = np.repeat(np.arange(len(s)), self.nbr.shape[1])
        cols = self.nbr.ravel()
        # each row's stencil columns are distinct, so a plain fancy-index
        # add updates every (row, col) pair once
        a[rows, cols] += (delta * self.vvals[self.nbr]).ravel()
        return a


def _slogdet_shifted(a, sign):
    """(phase, log|det|) of I + sign*A."""
    return np.linalg.slogdet(np.eye(len(a)) + sign * a)


def _to_value(s, log_abs):
    if s == 0:
        return 0.0j
    if log_abs > 700.0:
        return complex(s) * math.inf
    return complex(s) * math.exp(log_abs)


class DeterminantEvaluator:
    """Callable determinant family over k with per-point memoization.

    The grid covers determinant_ball_radius(p), which matters for
    long-tailed potentials whose full truncation ball would starve the
    core of nodes.  Only k in the upper half plane or in the continuation
    strip (see _check_strip) are admitted.
    """

    def __init__(self, p: Potential, n_radial: int = DEFAULT_GRID[0],
                 n_angular: int = DEFAULT_GRID[1]):
        self.assembler = BSAssembler(p, *build_grid(p, n_radial, n_angular))
        self._cache = {}

    def factors(self, k: complex, signs):
        """(phase, log|det|) of I + sign*A per requested sign, lazily.

        One factorization per sign; the assembled matrix is never retained
        (an extra assembly on a late second-sign request is cheaper than
        holding dense matrices across thousands of cached points).
        """
        k = complex(k)
        entry = self._cache.setdefault(k, {})
        missing = [s for s in signs if s not in entry]
        if missing:
            a = self.assembler.matrix(k)
            for s in missing:
                entry[s] = _slogdet_shifted(a, s)
        return [entry[s] for s in signs]

    def det_value(self, k):
        """D(k) = det(I - A) det(I + A) = det(I - A^2)."""
        (sm, lm), (sp, lp) = self.factors(k, (-1.0, +1.0))
        return _to_value(sm * sp, lm + lp)

    def det_plus(self, k):
        """det(I + A): vanishes exactly at discrete eigenvalues of -Delta + V."""
        ((sp, lp),) = self.factors(k, (+1.0,))
        return _to_value(sp, lp)

    def det_minus(self, k):
        """det(I - A): vanishes exactly at discrete eigenvalues of -Delta - V."""
        ((sm, lm),) = self.factors(k, (-1.0,))
        return _to_value(sm, lm)

    def log_abs_det(self, k):
        (sm, lm), (sp, lp) = self.factors(k, (-1.0, +1.0))
        return lm + lp


def fredholm_series_term(nterm: int, k: complex, p: Potential,
                         quad: QuadratureSpec | None = None,
                         grid=None, route: str = "independent") -> complex:
    """n-th term of the Fredholm expansion D = 1 + sum_n (-1)^n/n! int det(...).

    On the grid the n-fold integral of the n x n minors reduces to the
    elementary symmetric function e_n of B_ij = G(x_i,x_j) V(x_j) w_j.

    route="independent" (default) computes G by the prolate-coordinate
    quadrature, fully decoupled from the Nystrom matrix; partial sums
    then approach the determinant as coupling -> 0 up to the O(g^2)
    cross-route quadrature mismatch of the two discretizations.
    route="matrix" uses B = A^2 of the assembled system itself, for which
    1 + sum of terms equals det(I - A^2) exactly in finite dimensions, so
    the truncation remainder scales as the genuine O(g^{2(n+1)}).
    Cost grows as grid^nterm; nterm <= 3.
    """
    if nterm not in (1, 2, 3):
        raise TooManyTerms("series terms implemented for n in {1, 2, 3}")
    if route == "matrix":
        if grid is None:
            grid = build_grid(p)
        a = BSAssembler(p, *grid).matrix(k)
        b = a @ a
    elif route == "independent":
        quad = quad or QuadratureSpec(n_radial=24, n_angular=16)
        if grid is None:
            grid = build_grid(p, 6, 14) if nterm > 1 else build_grid(p)
        nodes, weights = grid
        vw = p.value_fn(nodes) * weights
        n = len(weights)
        if nterm == 1:
            gdiag = np.array([iterated_kernel(k, xi, xi, p, quad) for xi in nodes])
            return -complex(np.sum(gdiag * vw))
        b = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                g = iterated_kernel(k, nodes[i], nodes[j], p, quad)
                b[i, j] = g * vw[j]
                if j > i:
                    b[j, i] = g * vw[i]   # G is symmetric in (x, y)
    else:
        raise ValueError(f"unknown route {route!r}")
    t1 = np.trace(b)
    if nterm == 1:
        return -complex(t1)
    t2 = np.trace(b @ b)
    if nterm == 2:
        return complex(0.5 * (t1 * t1 - t2))
    t3 = np.trace(b @ b @ b)
    return -complex((t1 ** 3 - 3.0 * t1 * t2 + 2.0 * t3) / 6.0)


def determinant_bound_check(ev: DeterminantEvaluator, k: complex, eps: float, fn):
    """(|D(k)|, f(AB/2 pi eps)): the continuation bound at one k in the strip.

    A NaN |D(k)| raises NonConvergent; it is never compared with the bound.
    """
    from .scalarbounds import f_series
    if complex(k).imag <= -eps / 4.0:
        raise ContinuationOutOfStrip(
            f"Im k = {complex(k).imag:.6g} at or below -eps/4 = {-eps / 4.0:.6g}")
    log_abs = ev.log_abs_det(k)
    if math.isnan(log_abs):
        raise NonConvergent(f"|D(k)| is NaN at k = {complex(k):.6g}")
    abs_d = math.exp(log_abs) if log_abs < 700.0 else math.inf
    bound = f_series(fn.weighted_sup * fn.weighted_l1 / (2.0 * math.pi * eps))
    return abs_d, bound
