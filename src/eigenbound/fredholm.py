"""Nystrom discretization of the Birman-Schwinger operator and its determinant.

The operator R_0(lambda) V on the determinant ball (determinant_ball_radius)
is discretized on a spherical product grid; entry (i,j) is
e^{ik|x_i-x_j|}/(4 pi |x_i-x_j|) V(x_j) w_j off the stencils, and each
row's nearest nodes carry a local moment correction against the closed-form
ball integrals of the free kernel, short sums of the exponential moments
psi_j(z) = int_0^1 t^j e^{zt} dt exact to about 1e-13.  Stencils are closed
under distance ties, so A(k) commutes with the rotations about the z axis
through V's centre and that axis's mirror that map the grid and V onto
themselves: only its orbit-representative rows are assembled, in an orbit
layout holding each column once, and folded into one block per character
of their group (a grid or V without symmetry is one block, A itself).
D(k) = det(I - A^2) is det(I - A) det(I + A), each the product of the
blocks' LU determinants, one per block at its own size, in log-magnitude
+ phase form, which survives the huge dynamic range on continuation contours.

DeterminantEvaluator is the one way to a determinant: it memoizes the
(phase, log|det|) factors per k and sign.  BSAssembler precomputes the
k-independent geometry and symmetry once, so assemblies at distinct k are
independent and safe to run in parallel.  It holds nothing n x n: it finds
the group first, picks the representative rows' stencils from their
distance rows and carries them to the other rows by the group, evaluates
the kernel once per distinct distance of those rows and the ball moments
once per distinct radius.  Its other k-independent arrays, moment
pseudo-inverses included, are built per row layout: once for the
representatives, per call for the full matrix.
"""

from __future__ import annotations

import math

import numpy as np

from . import grids
from .errors import ContinuationOutOfStrip, NonConvergent, TooManyTerms
from .kernel import iterated_kernel
from .potentials import Potential, QuadratureSpec
from .scalarbounds import _exp, f_series

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


# 1/(m + j + 1), m < 30: psi_j(z) = sum_m z^m/m! /(m + j + 1)
_PSI_SERIES = 1.0 / (np.arange(30)[:, None] + np.arange(1, 6)[None, :])


def _psi(z):
    """psi_j(z) = int_0^1 t^j e^{zt} dt for j = 0..4, along a new last axis: the
    power series for |z| <= 2 (30 terms, a remainder below 1e-22), and above it
    expm1(z)/z and the upward recurrence psi_j = (e^z - j psi_{j-1})/z, stable there."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (5,), dtype=complex)
    small = np.abs(z) <= 2.0
    zs = z[small][:, None]
    out[small] = np.cumprod(np.concatenate([np.ones_like(zs), zs / np.arange(1, 30)],
                                           axis=1), axis=1) @ _PSI_SERIES
    zb = z[~small]
    ez = np.exp(zb)
    out[~small, 0] = np.expm1(zb) / zb
    for j in range(1, 5):
        out[~small, j] = (ez - j * out[~small, j - 1]) / zb
    return out


def ball_helmholtz_moments(k: complex, rho, radius: float):
    """(S, D) at the radii rho <= radius, each exact to about 1e-13 relative.

    Only the l = 0 and l = 1 terms of e^{ikr}/r = ik sum (2l+1) j_l(kr_<) h_l(kr_>) P_l
    survive the angular integrals.  With y = k rho and
    J_p = e^{-ik rho} int_rho^radius s^p e^{iks} ds they leave
        S = rho e^{iy} j_1(y)/k + e^{iy} j_0(y) J_1,
        D = -(i/k^3)(y + i) y e^{iy} j_2(y) + e^{iy} j_1(y) (J_1/k - i J_2),
    D's first term through int_0^y t^3 j_1(t) dt = y^3 j_2(y).  Poisson's
    integral e^{iy} j_n(y) = (2y)^n/n! int_0^1 t^n (1-t)^n e^{2iyt} dt makes
    each a short sum of psi_j (`_psi`): at z = 2iy, e^{iy} j_0 = psi_0,
    e^{iy} j_1 = 2y (psi_1 - psi_2) and e^{iy} j_2 = 2y^2 (psi_2 - 2 psi_3 + psi_4);
    J_p is a binomial sum of psi_0..psi_p at z = ik(radius - rho) with weights
    >= 0.  No term cancels at small y, and every exponential decays above the
    real axis, so both stay finite at any Im k > 0 (below it they grow as the
    kernel does); both agree with 80-digit values of the closed forms to about
    1e-13 relative.
    """
    rho = np.asarray(rho, dtype=float)
    y, gap = k * rho, float(radius) - rho
    (p0, p1, p2, p3, p4), (q0, q1, q2, _, _) = np.moveaxis(
        _psi(np.stack([2j * y, 1j * k * gap])), -1, 1)
    ej1 = 2.0 * rho * (p1 - p2)                                  # e^{iy} j_1(y)/k
    seg1 = gap * (rho * q0 + gap * q1)                           # J_1
    seg2 = gap * (rho * rho * q0 + 2.0 * rho * gap * q1 + gap * gap * q2)
    return (rho * ej1 + p0 * seg1,
            ej1 * (seg1 - 1j * k * seg2) - 2j * rho ** 3 * (y + 1j) * (p2 - 2.0 * p3 + p4))


def ball_helmholtz_potential(k: complex, rho, radius: float):
    """S(rho) = int_{|y-c| <= radius} e^{ik|x-y|}/(4 pi |x-y|) dy at |x-c| = rho, as
    2 rho^2 (psi_1 - psi_2) + psi_0 J_1 at z = 2ik rho (`ball_helmholtz_moments`)."""
    return ball_helmholtz_moments(k, rho, radius)[0]


def ball_helmholtz_dipole(k: complex, rho, radius: float):
    """D(rho) = int_{ball} e^{ik|x-y|}/(4 pi |x-y|) (y - c) . xhat dy at |x-c| = rho, as
    2 rho (psi_1 - psi_2)(J_1 - ik J_2) - 2i rho^3 (k rho + i)(psi_2 - 2 psi_3 + psi_4)
    at z = 2ik rho (`ball_helmholtz_moments`)."""
    return ball_helmholtz_moments(k, rho, radius)[1]


def _turn(angle, flip=1.0):
    """The rotation by angle about the z axis, then z -> flip z."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, flip]])


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
    near-singularity quadrature error.  `symmetries` holds the 3 x 3 matrices
    of the group the grid and V admit (rotation^a mirror^b at b m + a).
    `_rep_dist` holds the distinct distances of the representative rows,
    `_rep_index` each slot's place among them in the orbit layout `_slots`,
    and `_rep_layout` that layout's other k-independent arrays (`_layout`).
    """

    N_NEIGHBORS = 14

    def __init__(self, p: Potential, nodes, weights):
        self.potential = p
        self.ball_radius = determinant_ball_radius(p)
        self.nodes = np.asarray(nodes)
        self.weights = np.asarray(weights)
        self.vvals = p.value_fn(self.nodes)
        self.vw = self.vvals * self.weights
        center = np.asarray(p.center, dtype=float)
        self.node_rho = np.linalg.norm(self.nodes - center[None, :], axis=1)
        self.node_hat = ((self.nodes - center[None, :]) /
                         np.where(self.node_rho > 0, self.node_rho, 1.0)[:, None])
        perms = self._prepare_blocks()
        d = self._distances(self._reps)
        self._rep_dist, self._rep_index = self._distance_table(self._reps, self._slots, d)
        self._prepare_moment_stencils(d, perms)
        self._rep_layout = self._layout(self._reps, self._slots)

    def _prepare_moment_stencils(self, key, perms):
        """Per-row neighbor sets for the local moment corrections.

        Nearest nodes cluster on the node's own radial shell (nearly
        coplanar caps), so the radially adjacent nodes in the product
        grid's (shell, direction) layout are forced into every stencil to
        keep the linear moments well posed.  The nearest nodes fill the
        stencil to N_NEIGHBORS, closed under distance ties: every node as
        near as the last one taken (to 1e-10 relative) joins, so mirror
        rows get mirror stencils.  They are picked from the representatives'
        distance rows (key, overwritten), and every other row's stencil is
        its representative's image under the group (perms).  Rows are
        padded to one length with their next-nearest nodes, masked out of
        the moments (`stencil_mask` marks the real members).
        """
        n = len(self.weights)
        m = min(self.N_NEIGHBORS, n)
        # the angular block size of a (shell-major, direction-minor) layout
        rho = self.node_rho
        n_ang = int(np.sum(np.abs(rho - rho[0]) < 1e-9 * max(rho[0], 1.0)))
        n_ang = n_ang if n_ang > 1 and n % n_ang == 0 else 0
        forced = self._reps[:, None] + np.array(sorted({0, n_ang, -n_ang}))[None, :]
        inside = (forced >= 0) & (forced < n)
        # forced nodes, the row's own among them, sort first
        key[np.nonzero(inside)[0], forced[inside]] = -1.0
        cut = np.partition(key, m - 1, axis=1)[:, m - 1] * (1.0 + 1e-10)
        n_real = np.sum(key <= cut[:, None], axis=1)
        width = int(np.max(n_real))
        near = np.argpartition(key, width - 1, axis=1)[:, :width]
        near = np.take_along_axis(near, np.argsort(np.take_along_axis(key, near, axis=1),
                                                   axis=1, kind="stable"), axis=1)
        # every node is the image perm_h(rep s) of the one slot (h, s) holding it
        h, s = np.divmod(np.argsort(self._slots)[len(self._slots) - n:], len(self._reps))
        self.nbr = perms[h[:, None], near[s]]
        self.stencil_mask = np.arange(width)[None, :] < n_real[s, None]

    def _prepare_blocks(self):
        """G = C_m x <z -> -z> about V's centre: the rotations by multiples of 2 pi/m
        about the z axis and the mirror z -> -z that map the nodes onto themselves
        (images matched among nodes of equal radius, to 1e-12 of the ball radius)
        and fix V w and w (to 1e-12 of their largest entry), m the largest divisor
        of the node count on the ring farthest from the axis that does; returns G's
        node permutations.  The block of chi(a, b) = e^{2 pi i ja/m} (-1)^{pb} holds
        the orbits whose stabilizer lies in ker chi:
        M_chi[r, s] = sum_{j in orbit(s)} chi(g_j) A[r, j]."""
        n = len(self.weights)
        rel = self.nodes - np.asarray(self.potential.center, dtype=float)
        by_rho = np.argsort(self.node_rho, kind="stable")
        shells = np.split(by_rho, np.flatnonzero(
            np.diff(self.node_rho[by_rho]) > 1e-9 * self.ball_radius) + 1)

        def perm(mat):
            """mat's node permutation, or None if it moves the nodes, V w or w."""
            img = np.empty(n, dtype=int)
            for shell in shells:       # on a shell the nearest node is the most aligned
                img[shell] = shell[np.argmax(rel[shell] @ mat.T @ rel[shell].T, axis=1)]
            if not np.array_equal(np.sort(img), np.arange(n)) or np.max(np.linalg.norm(
                    rel[img] - rel @ mat.T, axis=1)) > 1e-12 * self.ball_radius or any(
                    np.max(np.abs(v[img] - v)) > 1e-12 * np.max(np.abs(v))
                    for v in (self.vw, self.weights)):
                return None
            return img

        axis, z = np.hypot(rel[:, 0], rel[:, 1]), rel[:, 2]
        far = np.argmax(axis)
        ring = np.sum(np.hypot(axis - axis[far], z - z[far]) <= 1e-9 * self.ball_radius)
        for m in (d for d in range(ring, 0, -1) if ring % d == 0):   # m = 1 always maps
            turn = perm(_turn(2.0 * np.pi / m))
            if turn is not None:
                break
        flip = perm(np.diag([1.0, 1.0, -1.0]))
        perms = [np.arange(n)]
        for _ in range(m - 1):
            perms.append(turn[perms[-1]])
        # element (a, b) = rotation^a mirror^b, and chi_{a,b}, sit at b m + a
        perms = np.array(perms + ([] if flip is None else [flip[p] for p in perms]))
        b, a = np.divmod(np.arange(len(perms)), m)
        self.symmetries = np.array([_turn(2.0 * np.pi * j / m, (-1.0) ** i)
                                    for i, j in zip(b, a)])
        self._reps = np.flatnonzero(np.min(perms, axis=0) == np.arange(n))
        # slot (h, s) holds column perm_h(rep s), or -1 if an earlier slot does
        slots = perms[:, self._reps].ravel()
        _, first = np.unique(slots, return_index=True)
        self._slots = np.full(len(slots), -1)
        self._slots[first] = slots[first]
        self._chars = np.exp(2j * np.pi * (np.outer(a, a) % m) / m) * (-1.0) ** np.outer(b, b)
        stab = perms[:, self._reps] == self._reps                    # (h, s)
        keep = ~np.any(stab[None] & (np.abs(self._chars - 1.0) > 1e-9)[:, :, None], axis=1)
        kept = [(c, np.flatnonzero(row)) for c, row in enumerate(keep) if row.any()]
        self.block_sizes = [len(r) for _, r in kept]
        self.block_orbits = [(c, np.ix_(r, r)) for c, r in kept]   # (chi, its orbits)
        return perms

    def _distances(self, rows):
        """|x_r - x_j| from the rows' nodes to every node, summed as cdist sums them."""
        x = self.nodes
        return np.sqrt(sum(np.square(x[rows, c, None] - x[None, :, c]) for c in range(3)))

    def _distance_table(self, rows, cols=None, d=None):
        """Distinct distances from the rows' nodes to all nodes (d if given, overwritten) and
        an int32 index into them per slot of a column layout (-1: empty, one past the end)."""
        d = self._distances(rows) if d is None else d
        d[np.arange(len(rows)), rows] = 1.0       # placeholder; the diagonal is replaced
        dist, index = np.unique(d, return_inverse=True)
        index = index.reshape(d.shape).astype(np.int32)
        if cols is not None:
            index = np.where(cols >= 0, np.take(index, cols, axis=1), np.int32(len(dist)))
        return dist, index

    def _layout(self, rows, cols):
        """The k-independent arrays of these rows in this column layout: own and
        stencil slots, weights, stencil V, geometry (the rows' distinct radii, at
        which the moments are evaluated, and each row's index among them) and
        moment pseudo-inverses."""
        n = len(self.weights)
        slot = np.argsort(cols)[len(cols) - n:]            # each column's slot
        at = np.arange(len(rows))
        nbr, mask = self.nbr[rows], self.stencil_mask[rows]
        dx = self.nodes[nbr] - self.nodes[rows, None, :]             # (row, m, 3)
        scale = np.maximum(np.max(np.where(mask, np.linalg.norm(dx, axis=2), 0.0), axis=1),
                           1e-12)
        q = np.concatenate([np.ones((len(rows), 1, nbr.shape[1])),
                            np.transpose(dx, (0, 2, 1)) / scale[:, None, None]], axis=1)
        q *= mask[:, None, :]
        qqt = q @ np.transpose(q, (0, 2, 1))                         # (row, 4, 4)
        pinv = np.transpose(q, (0, 2, 1)) @ np.linalg.pinv(qqt, rcond=1e-10)
        wx = self.weights[cols, None] * np.column_stack([np.ones(n), self.nodes])[cols]
        radii, at_radius = np.unique(self.node_rho[rows], return_inverse=True)
        return ((at, slot[rows]), wx, self.vw[cols], (at[:, None], slot[nbr]),
                self.vvals[nbr], self.nodes[rows], radii, at_radius, self.node_hat[rows],
                scale, pinv)

    def matrix(self, k: complex, rows=None, cols=None):
        """The Nystrom matrix A(k) of R_0(k^2) V on this grid, or its given rows
        in a layout of their columns: every column fills one slot, empty slots
        (-1) hold 0, and the default is each column once, in order."""
        _check_strip(complex(k), self.potential, self.ball_radius)
        n = len(self.weights)
        rows = np.arange(n) if rows is None else np.asarray(rows)
        layout = None
        if cols is None:
            cols, (dist, index) = np.arange(n), self._distance_table(rows)
        elif np.array_equal(rows, self._reps) and np.array_equal(cols, self._slots):
            dist, index, layout = self._rep_dist, self._rep_index, self._rep_layout
        else:
            dist, index = self._distance_table(rows, cols)
        own, wx, vw, stencil, v_stencil, x, radii, at_radius, hat, scale, pinv = \
            layout or self._layout(rows, cols)
        a = np.append(np.exp(1j * k * dist) / (4.0 * np.pi * dist), 0.0)[index]
        a[own] = 0.0                                  # the own node enters by its stencil
        raw = a @ wx                                        # empty slots hold 0
        s, dip = ball_helmholtz_moments(k, radii, self.ball_radius)   # once per radius
        a *= vw
        raw0, raw1 = raw[:, 0], raw[:, 1:] - raw[:, :1] * x
        exact1 = hat * (dip - radii * s)[at_radius, None]
        defect = np.column_stack([s[at_radius] - raw0, (exact1 - raw1) / scale[:, None]])
        delta = np.einsum("nmf,nf->nm", pinv, defect)
        # each row's stencil columns are distinct, so a plain fancy-index
        # add updates every (row, slot) pair once
        a[stencil] += delta * v_stencil
        return a

    def blocks(self, k: complex):
        """The character sums M_chi[r, s] of A(k) over all orbit representatives
        r, s, (n_char, n_rep, n_rep): the characters times the orbit layout."""
        a = self.matrix(k, rows=self._reps, cols=self._slots)
        orbits = a.reshape(len(self._reps), len(self.symmetries), len(self._reps))
        return np.matmul(self._chars, orbits).transpose(1, 0, 2)


def _slogdet_shifted(blocks, sign):
    """(phase, log|det|) of I + sign*A over A's character blocks, given as
    (character sums, index pair): each is gathered, shifted in place to
    M + sign*I = sign (I + sign*M) and factored by one LU at its own size."""
    phase, log_abs = 1.0, 0.0
    for sums, index in blocks:
        m = sums[index]
        m.flat[::len(m) + 1] += sign
        s, l = np.linalg.slogdet(m)
        phase *= s * sign ** len(m)
        log_abs += l
    return phase, log_abs


def _to_value(s, log_abs):
    return 0.0j if s == 0 else complex(s) * _exp(log_abs)


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

        The signs not yet cached at k share one assembly, which is not
        retained: a caller that will need both signs asks for both at once.
        """
        k = complex(k)
        entry = self._cache.setdefault(k, {})
        missing = [s for s in signs if s not in entry]
        if missing:
            sums = self.assembler.blocks(k)
            blocks = [(sums[c], index) for c, index in self.assembler.block_orbits]
            for s in missing:
                entry[s] = _slogdet_shifted(blocks, s)
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
    if complex(k).imag <= -eps / 4.0:
        raise ContinuationOutOfStrip(
            f"Im k = {complex(k).imag:.6g} at or below -eps/4 = {-eps / 4.0:.6g}")
    log_abs = ev.log_abs_det(k)
    if math.isnan(log_abs):
        raise NonConvergent(f"|D(k)| is NaN at k = {complex(k):.6g}")
    abs_d = _exp(log_abs)
    bound = f_series(fn.weighted_sup * fn.weighted_l1 / (2.0 * math.pi * eps))
    return abs_d, bound
