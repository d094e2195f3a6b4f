"""Nystrom grids, Birman-Schwinger assembly, determinants, series terms."""

import dataclasses
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from eigenbound import fredholm as fr
from eigenbound import grids
from eigenbound import potentials as pot
from eigenbound import scalarbounds as sb
from eigenbound.errors import ContinuationOutOfStrip, TooManyTerms


class TestGrid:
    def test_weight_sum_is_ball_volume(self, bump_unit):
        nodes, w = fr.build_grid(bump_unit, 12, 38)
        assert w.sum() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert len(w) == 456
        assert np.all(np.linalg.norm(nodes, axis=1) < 1.0)
        assert np.all(w > 0)

    def test_monomial_exactness(self):
        # int |x|^2 over unit ball = 4 pi / 5
        nodes, w = grids.ball_rule(1.0, 12, 38)
        val = np.dot(w, np.sum(nodes ** 2, axis=1))
        assert val == pytest.approx(4.0 * math.pi / 5.0, rel=1e-12)
        # the Gauss-Legendre rules are cached, so no caller may write to them
        assert not any(a.flags.writeable for a in grids.leggauss(12))

    def test_lebedev_degree(self):
        # the 6-, 14-, 26- and 38-point rules average every x^a y^b z^c
        # over the sphere exactly up to degree 3, 5, 7 and 9, and no further
        def mean(a, b, c):
            if a % 2 or b % 2 or c % 2:
                return 0.0
            g = math.gamma
            return g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2) / \
                (2.0 * math.pi * g((a + b + c + 3) / 2))

        for n, degree in ((6, 3), (14, 5), (26, 7), (38, 9)):
            dirs, w = grids.angular_rule(n)
            err = [max(abs(np.dot(w, np.prod(dirs ** (a, b, d - a - b), axis=1)) -
                           mean(a, b, d - a - b))
                       for a in range(d + 1) for b in range(d + 1 - a))
                   for d in range(degree + 2)]
            assert max(err[:-1]) < 1e-14, (n, err)
            assert err[-1] > 1e-4, (n, err)

    def test_refinement_reduces_bump_integral_error(self, bump_unit):
        from tests.test_potentials import BUMP_L1
        errs = []
        for n_r in (4, 8, 16):
            nodes, w = fr.build_grid(bump_unit, n_r, 38)
            errs.append(abs(np.dot(w, np.abs(bump_unit.value_fn(nodes))) - BUMP_L1))
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]


class TestAssembly:
    def test_zero_potential_zero_matrix(self):
        z = pot.zero_potential()
        a = fr.BSAssembler(z, *fr.build_grid(z, 6, 14)).matrix(2j)
        assert np.all(a == 0.0)

    def test_entries_shrink_with_imk(self, bump_unit):
        # plain kernel entries (outside each row's moment stencil, which
        # holds the diagonal): |e^{ikr}| decays
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, 6, 14))
        a1 = asm.matrix(1j)
        a2 = asm.matrix(3j)
        plain = np.ones(a1.shape, dtype=bool)
        plain[np.arange(len(a1))[:, None], asm.nbr] = False
        assert np.all(np.abs(a2[plain]) <= np.abs(a1[plain]) + 1e-15)

    def test_continuation_gate(self, bump_unit, mollified_exp):
        # compact potentials admit any strip depth
        fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, 6, 14)).matrix(1.0 - 2.0j)
        asm = fr.BSAssembler(mollified_exp, *fr.build_grid(mollified_exp, 6, 14))
        with pytest.raises(ContinuationOutOfStrip):
            asm.matrix(1.0 - 0.3j)   # below -eps/4 = -0.25

    def test_non_finite_k_refused_before_assembly(self, bump_unit):
        # 1j * T at T = +inf is nan+inf j, above the axis: refused by name
        # before any kernel entry or LU is computed
        ev = fr.DeterminantEvaluator(bump_unit, 6, 14)
        for k in (1j * math.inf, complex(math.nan, 1.0), complex(math.inf, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ContinuationOutOfStrip, match="finite k"):
                    ev.factors(k, (-1.0, +1.0))

    def test_rows_integrate_constants_and_linears_exactly(self):
        # with V = 1 the matrix IS the corrected weight table; its rows must
        # reproduce the closed-form ball moments to solver precision
        ones = pot.tabulated_potential(np.linspace(0.0, 1.0, 8),
                                       np.ones(8, dtype=complex))
        asm = fr.BSAssembler(ones, *fr.build_grid(ones, 10, 26))
        k = 1.3j
        cw = asm.matrix(k)
        s = fr.ball_helmholtz_potential(k, asm.node_rho, 1.0)
        got0 = cw.sum(axis=1)
        assert np.max(np.abs(got0 - s)) < 1e-10 * np.max(np.abs(s))
        dip = fr.ball_helmholtz_dipole(k, asm.node_rho, 1.0)
        exact1 = asm.node_hat * (dip - asm.node_rho * s)[:, None]
        got1 = cw @ asm.nodes - got0[:, None] * asm.nodes
        assert np.max(np.abs(got1 - exact1)) < 1e-9 * max(np.max(np.abs(exact1)), 1.0)

    def test_stencil_columns_unique_per_row(self, bump_unit):
        # the moment correction adds into a[row, nbr[row]] with one fancy-index
        # add, which would drop updates if a row listed a column twice
        for n_rad, n_ang in ((6, 14), (12, 38)):
            asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, n_rad, n_ang))
            assert all(len(set(row)) == len(row) for row in asm.nbr.tolist())

    def test_row_action_close_to_true_integral(self, bump_unit):
        # (A 1)_i vs int K(x_i, y) V(y) dy by a chord-spherical reference
        # (singularity removed); rows near the support edge see only the
        # flat tail of the bump and carry the rule's few-percent far-field
        # error, so the tolerance loosens with the node radius
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, 10, 26))
        k = 1.3j
        a = asm.matrix(k)
        got = a @ np.ones(len(asm.weights))
        dirs, wa = grids.angular_rule(302)
        gx, gw = np.polynomial.legendre.leggauss(96)
        for i, tol in ((0, 1e-3), (57, 1e-3), (200, 0.15), (255, 0.15)):
            x = asm.nodes[i]
            b = dirs @ x
            disc = b * b + 1.0 - x @ x
            sq = np.sqrt(np.maximum(disc, 0.0))
            r_lo = np.maximum(-b - sq, 0.0)
            r_hi = np.maximum(-b + sq, 0.0)
            half = 0.5 * (r_hi - r_lo)
            r = r_lo[None, :] + half[None, :] * (gx[:, None] + 1.0)
            wr = half[None, :] * gw[:, None]
            pts = x[None, None, :] + r[..., None] * dirs[None, :, :]
            v = bump_unit.value_fn(pts.reshape(-1, 3)).reshape(r.shape)
            ref = np.einsum("ij,ij,j->", r * np.exp(1j * k * r) * v, wr, wa)
            assert got[i] == pytest.approx(complex(ref), rel=tol)


def _skewed(p):
    """p times a linear tilt in x, y and z: no reflection maps it onto itself."""
    return dataclasses.replace(p, value_fn=lambda x: p.value_fn(x) *
                               (1.0 + 0.3 * x[:, 0] + 0.2 * x[:, 1] + 0.1 * x[:, 2]))


def _tilted(p):
    """p times a linear tilt in x: only the reflections fixing x map it onto itself."""
    return dataclasses.replace(p, value_fn=lambda x: p.value_fn(x) * (1.0 + 0.3 * x[:, 0]))


def _brute_force_stencils(nodes, n_dir):
    """Each row's stencil member set from the full distance matrix: the row's
    node and its radial neighbours (+-n_dir), then the nearest other nodes
    up to N_NEIGHBORS, and every node as near as the last (1e-10 relative)."""
    from scipy.spatial.distance import cdist
    d = cdist(nodes, nodes)
    n = len(d)
    m = min(fr.BSAssembler.N_NEIGHBORS, n)
    out = []
    for i in range(n):
        forced = {j for j in (i - n_dir, i, i + n_dir) if 0 <= j < n}
        others = [j for j in np.argsort(d[i], kind="stable") if j not in forced]
        cut = d[i, others[m - len(forced) - 1]] * (1.0 + 1e-10)
        out.append(forced | {int(j) for j in others if d[i, j] <= cut})
    return out


def _arrays(obj):
    """Every ndarray in obj, looking inside tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


class TestGeometry:
    @pytest.mark.parametrize("grid,skew", [((2, 6), False), ((6, 14), False),
                                           ((12, 38), False), ((16, 50), False),
                                           ((12, 38), True)])
    def test_stencils_match_brute_force(self, bump_unit, grid, skew):
        p = _skewed(bump_unit) if skew else bump_unit
        asm = fr.BSAssembler(p, *fr.build_grid(p, *grid))
        ref = _brute_force_stencils(asm.nodes, len(asm.nodes) // grid[0])
        for row, mask, want in zip(asm.nbr.tolist(), asm.stencil_mask, ref):
            assert len(set(row)) == len(row)
            assert set(np.asarray(row)[mask].tolist()) == want

    def test_stencils_fall_back_to_every_node(self, bump_unit):
        # a centre node inside a 48-point O_h shell: all 48 tie at its
        # 14th-nearest distance, more than 3 N_NEIGHBORS, so the tie closure
        # must reach past any short candidate list to every node
        shell = np.array([p for s in itertools.product((1.0, -1.0), repeat=3)
                          for p in itertools.permutations(np.array([0.1, 0.2, 0.3]) * s)])
        nodes = np.vstack([np.zeros(3), shell])
        assert len(np.unique(shell, axis=0)) == 48 > 3 * fr.BSAssembler.N_NEIGHBORS
        asm = fr.BSAssembler(bump_unit, nodes, np.full(len(nodes), 0.01))
        ref = _brute_force_stencils(asm.nodes, 0)
        assert len(ref[0]) == 49
        for row, mask, want in zip(asm.nbr.tolist(), asm.stencil_mask, ref):
            assert len(set(row)) == len(row)
            assert set(np.asarray(row)[mask].tolist()) == want

    @pytest.mark.parametrize("grid", [(12, 38), (16, 50)])
    def test_kernel_table_matches_direct_form(self, bump_unit, grid, monkeypatch):
        # the table changes how often the kernel is evaluated, not its values:
        # plain entries are e^{ikd}/(4 pi d) V w at cdist's d, and every entry
        # equals that of an assembly with one table slot per entry
        from scipy.spatial.distance import cdist
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, *grid))
        n = len(asm.weights)
        d = cdist(asm.nodes, asm.nodes)
        plain = np.ones((n, n), dtype=bool)
        plain[np.arange(n)[:, None], asm.nbr] = False

        def every_entry(rows):
            dr = d[rows].copy()
            dr[np.arange(len(rows)), rows] = 1.0
            return dr.ravel(), np.arange(dr.size).reshape(dr.shape)

        direct = fr.BSAssembler(bump_unit, asm.nodes, asm.weights)
        monkeypatch.setattr(direct, "_distance_table", every_entry)
        for k in (0.7 + 0.4j, 1.3j, 0.2 - 0.05j):
            a = asm.matrix(k)
            with np.errstate(divide="ignore", invalid="ignore"):
                kern = np.exp(1j * k * d) / (4.0 * np.pi * d) * asm.vw[None, :]
            np.testing.assert_allclose(a[plain], kern[plain], rtol=1e-14, atol=0)
            ref = direct.matrix(k)
            np.testing.assert_allclose(a, ref, rtol=1e-14, atol=0)
            np.testing.assert_allclose(asm.matrix(k, rows=asm._reps), ref[asm._reps],
                                       rtol=1e-14, atol=0)

    def test_no_attribute_holds_n_squared_entries(self, bump_unit):
        # on a grid with reflections; without them every row is a representative
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, 12, 38))
        n = len(asm.weights)
        # the representative rows' distances: far fewer values than entries
        assert asm._rep_index.shape == (len(asm._reps), len(asm._slots))
        assert len(asm._rep_dist) < asm._rep_index.size / 10
        sizes = {name: arr.size for name, value in vars(asm).items()
                 for arr in _arrays(value)}
        assert max(sizes.values()) < n * n, sizes


class TestHelmholtzMoments:
    def test_monopole_against_quadrature(self):
        k = 1.7 + 0.4j
        dirs, wa = grids.angular_rule(302)
        for rho in (0.0, 0.6, 1.9):
            x = np.array([rho, 0.0, 0.0])
            b = dirs @ x
            disc = b * b + 4.0 - rho * rho
            sq = np.sqrt(np.maximum(disc, 0))
            r_lo = np.maximum(-b - sq, 0)
            r_hi = np.maximum(-b + sq, 0)
            gx, gw = np.polynomial.legendre.leggauss(120)
            half = 0.5 * (r_hi - r_lo)
            r = r_lo[None, :] + half[None, :] * (gx[:, None] + 1)
            wr = half[None, :] * gw[:, None]
            ref = np.einsum("ij,ij,j->", r * np.exp(1j * k * r), wr, wa)
            val = fr.ball_helmholtz_potential(k, np.array([rho]), 2.0)[0]
            # tolerance set by the reference quadrature, not the closed form
            assert val == pytest.approx(complex(ref), rel=3e-5)

    def test_finite_at_large_imk(self):
        # deep inside the ball at large Im k only the local part survives:
        # S -> int_0^inf r e^{ikr} dr = -1/k^2 and D -> -rho/k^2, with
        # corrections of order e^{-Im k (radius - rho)}; sin and cos of
        # k rho alone overflow here
        rho = np.linspace(0.05, 2.5, 6)
        for k in (2109j, 757.5 + 1795.2j):
            s = fr.ball_helmholtz_potential(k, rho, 3.0)
            d = fr.ball_helmholtz_dipole(k, rho, 3.0)
            assert np.max(np.abs(s * k ** 2 + 1.0)) < 1e-12
            assert np.max(np.abs(d * k ** 2 + rho) / rho) < 1e-12

    def test_newton_limits(self):
        s = fr.ball_helmholtz_potential(1e-9 + 0j, np.array([1.0]), 3.0)[0]
        assert s.real == pytest.approx((3 * 9 - 1) / 6, rel=1e-7)
        d = fr.ball_helmholtz_dipole(1e-8 + 0j, np.array([1.2]), 3.0)[0]
        assert d.real == pytest.approx(1.2 ** 3 / 15 + 1.2 * (9 - 1.44) / 6, rel=1e-6)

    @staticmethod
    def _closed_forms(k, rho, radius):
        # S and D as the docstrings write them, through sin and cos at 80
        # digits: at |k rho| ~ 1e-6 the j_n forms cancel like (k rho)^-5
        with mp.workdps(80):
            k, rho, radius = mp.mpc(k), mp.mpf(rho), mp.mpf(radius)
            y = k * rho
            sin, cos, e = mp.sin(y), mp.cos(y), mp.exp(1j * y)
            j0, j1 = sin / y, sin / y ** 2 - cos / y
            j2 = (3 / y ** 3 - 1 / y) * sin - 3 * cos / y ** 2
            # antiderivatives of s e^{iks} and s^2 e^{iks}
            a1 = lambda s: (s / (1j * k) + 1 / k ** 2) * mp.exp(1j * k * s)
            a2 = lambda s: (s ** 2 / (1j * k) + 2 * s / k ** 2 - 2 / (1j * k ** 3)) \
                * mp.exp(1j * k * s)
            big_j1 = (a1(radius) - a1(rho)) / mp.exp(1j * y)
            big_j2 = (a2(radius) - a2(rho)) / mp.exp(1j * y)
            s = rho * e * j1 / k + e * j0 * big_j1
            d = -(1j / k ** 3) * (y + 1j) * y * e * j2 + e * j1 * (big_j1 / k - 1j * big_j2)
            return complex(s), complex(d)

    def test_against_80_digit_closed_forms(self):
        fractions = np.array([0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9, 0.999])
        for k in (0.2j, 0.05 + 0.1j, 0.3 + 0.8j, 0.001 + 0.01j, 2 + 0.1j, 0.5 - 0.05j,
                  1.7 + 0.4j, 5 + 3j, 12 + 0.5j):
            for radius in (1.0, 3.0, 8.0):
                rho = fractions * radius
                s = fr.ball_helmholtz_potential(k, rho, radius)
                d = fr.ball_helmholtz_dipole(k, rho, radius)
                ref = np.array([self._closed_forms(k, r, radius) for r in rho])
                assert np.max(np.abs(s - ref[:, 0]) / np.abs(ref[:, 0])) < 1e-12
                assert np.max(np.abs(d - ref[:, 1]) / np.abs(ref[:, 1])) < 1e-12

    def test_mirror_is_conjugate(self):
        # A(-conj k) = conj A(k) for real V, which the mirror search relies on
        rho = np.linspace(0.0, 3.0, 31)
        for k in (0.3 + 0.8j, 2 + 0.1j, 0.001 + 0.01j, 12 + 0.5j, 0.5 - 0.05j, 3 - 0.2j):
            for moment in (fr.ball_helmholtz_potential, fr.ball_helmholtz_dipole):
                assert np.array_equal(moment(-k.conjugate(), rho, 3.0),
                                      np.conj(moment(k, rho, 3.0)))


class TestDeterminant:
    def test_zero_potential_unit_determinant(self):
        z = pot.zero_potential()
        ev = fr.DeterminantEvaluator(z, 8, 26)
        assert ev.det_value(2j) == 1.0
        assert ev.log_abs_det(2j) == 0.0

    def test_one_by_one(self, bump_unit):
        # sign convention: det_plus is det(I + A), det_minus is det(I - A),
        # against direct determinants on a 12-node grid
        ev = fr.DeterminantEvaluator(bump_unit, 2, 6)
        k = 1.5j
        a = ev.assembler.matrix(k)
        eye = np.eye(len(a))
        assert ev.det_value(k) == pytest.approx(np.linalg.det(eye - a @ a), rel=1e-12)
        assert ev.det_plus(k) == pytest.approx(np.linalg.det(eye + a), rel=1e-12)
        assert ev.det_minus(k) == pytest.approx(np.linalg.det(eye - a), rel=1e-12)

    def test_factorization_identity_456(self, bump_unit):
        # det(I - A^2) = det(I - A) det(I + A) on full-size systems
        ev = fr.DeterminantEvaluator(bump_unit)    # 456 nodes
        rng = np.random.default_rng(20)
        for _ in range(3):
            k = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            a = ev.assembler.matrix(k)
            direct = np.linalg.det(np.eye(len(a)) - a @ a)
            d = ev.det_value(k)
            assert abs(d - direct) / abs(direct) < 1e-10
            prod = ev.det_plus(k) * ev.det_minus(k)
            assert abs(prod - d) / abs(d) < 1e-10

    def test_conjugation_symmetry(self, bump_unit):
        # real V: D(-conj(k)) = conj(D(k))
        ev = fr.DeterminantEvaluator(bump_unit, 8, 26)
        for k in (1.0 + 0.5j, -0.7 + 1.2j, 0.3 + 2.0j):
            d1 = ev.det_value(k)
            d2 = ev.det_value(-k.conjugate())
            assert d2 == pytest.approx(d1.conjugate(), rel=1e-10)

    @pytest.mark.parametrize("grid", [(12, 38), (16, 50)])
    def test_mirror_identity_of_det_plus(self, bump_unit, grid):
        # the zero search answers Re k < 0 from det(I + A)(-conj k) =
        # conj det(I + A)(k), which holds for real V only; each side is
        # assembled by its own evaluator
        ks = (0.8 + 0.6j, 0.3 + 1.7j, 1.5 + 0.05j)
        for p, holds in ((bump_unit, True), (pot.bump_potential(-1.0 + 0.5j, 2.0), False)):
            ev, other = fr.DeterminantEvaluator(p, *grid), fr.DeterminantEvaluator(p, *grid)
            for k in ks:
                d = ev.det_plus(k)
                rel = abs(other.det_plus(-k.conjugate()) - d.conjugate()) / abs(d)
                assert rel < 1e-12 if holds else rel > 1e-2

    def test_grid_refinement_converges(self, bump_unit):
        k = 1.5j
        vals = [fr.DeterminantEvaluator(bump_unit, n_r, n_a).det_value(k)
                for n_r, n_a in ((6, 14), (12, 38), (18, 74))]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def _reflection_perms(asm, mats):
    """Node permutation of each symmetry x -> c + g (x - c) about V's centre c,
    given by its 3 x 3 matrix g, found independently."""
    from scipy.spatial.distance import cdist
    rel = asm.nodes - np.asarray(asm.potential.center)
    return [np.argmin(cdist(rel @ g.T, rel), axis=1) for g in mats]


ALL_REFLECTIONS = [np.diag(s) for s in itertools.product((1.0, -1.0), repeat=3)]


class TestReflectionBlocks:
    @pytest.mark.parametrize("grid", [(12, 38), (16, 50)])
    def test_matrix_is_equivariant(self, bump_unit, grid):
        # A[g(i), g(j)] = A[i, j] for all eight reflections and the
        # assembler's own rotation generator, which map these grids onto
        # themselves and fix the centred bump
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, *grid))
        a = asm.matrix(0.7 + 0.4j)
        for perm in _reflection_perms(asm, ALL_REFLECTIONS + [asm.symmetries[1]]):
            assert np.max(np.abs(a[np.ix_(perm, perm)] - a)) < 1e-10 * np.max(np.abs(a))

    @pytest.mark.parametrize("grid", [(12, 38), (16, 50)])
    def test_stencils_map_onto_images(self, bump_unit, grid):
        asm = fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, *grid))
        real = [set(np.asarray(row)[m].tolist()) for row, m in zip(asm.nbr, asm.stencil_mask)]
        for perm in _reflection_perms(asm, ALL_REFLECTIONS + [asm.symmetries[1]]):
            for i, st in enumerate(real):
                assert {int(perm[j]) for j in st} == real[perm[i]]

    @pytest.mark.parametrize("grid", [(12, 38), (16, 50)])
    def test_block_product_matches_full_slogdet(self, bump_unit, grid):
        # one block per element of C_4h (12x38) or C_10 x <z -> -z> (16x50),
        # also for a complex bump off the origin, rotated about its own centre
        off_centre = pot.bump_potential(-1.0 + 0.5j, 2.0, (0.3, -0.2, 0.1))
        for p in (bump_unit, off_centre):
            ev = fr.DeterminantEvaluator(p, *grid)
            assert len(ev.assembler.block_sizes) == {(12, 38): 8, (16, 50): 20}[grid]
            for k in (0.8 + 0.6j, 0.5 - 0.05j):
                a = ev.assembler.matrix(k)
                for sign, (phase, log_abs) in zip((-1.0, 1.0), ev.factors(k, (-1.0, 1.0))):
                    s, ref = np.linalg.slogdet(np.eye(len(a)) + sign * a)
                    assert abs(phase / s * np.exp(log_abs - ref) - 1.0) < 1e-12

    @pytest.mark.parametrize("grid,tilt", [((12, 38), False), ((16, 50), False),
                                           ((12, 38), True)])
    def test_blocks_are_the_character_fold_of_the_matrix(self, bump_unit, grid, tilt):
        # M_chi[r, s] = sum of chi(g) A[r, g(s)] over the distinct members
        # g(s) of s's orbit, each once however many g map s there
        p = _tilted(bump_unit) if tilt else bump_unit
        asm = fr.BSAssembler(p, *fr.build_grid(p, *grid))
        perms = _reflection_perms(asm, asm.symmetries)
        reps = asm._reps
        assert any(len({int(perm[s]) for perm in perms}) < len(perms) for s in reps)
        for k in (0.8 + 0.6j, 0.5 - 0.05j):
            a = asm.matrix(k)[reps]
            sums = asm.blocks(k)
            # the layout's table built for other rows gives the same entries
            np.testing.assert_allclose(asm.matrix(k, reps[::-1], asm._slots)[::-1],
                                       asm.matrix(k, reps, asm._slots), rtol=1e-14, atol=0)
            for c, index in asm.block_orbits:
                ref = np.zeros((len(reps), len(reps)), dtype=complex)
                for col, s in enumerate(reps):
                    members = {}
                    for chi, perm in zip(asm._chars[c], perms):
                        members.setdefault(int(perm[s]), chi)
                    for j, chi in members.items():
                        ref[:, col] += chi * a[:, j]
                want = ref[index]
                assert np.max(np.abs(sums[c][index] - want)) <= 1e-11 * np.max(np.abs(want))

    def test_group_order_follows_the_potential(self, bump_unit):
        tilted = dataclasses.replace(
            bump_unit, value_fn=lambda x: bump_unit.value_fn(x) * (1.0 + 0.3 * x[:, 0]))
        skew = _skewed(bump_unit)
        orders = [len(fr.BSAssembler(p, *fr.build_grid(p, 12, 38)).symmetries)
                  for p in (bump_unit, tilted, skew)]
        assert orders == [8, 2, 1]
        # a product rule with n_t = 3 polar nodes: C_6 x <z -> -z>
        assert len(fr.BSAssembler(bump_unit, *fr.build_grid(bump_unit, 6, 18)).symmetries) == 12
        # the trivial group is the one-block case: the full matrix itself
        asm = fr.BSAssembler(skew, *fr.build_grid(skew, 12, 38))
        blocks = asm.blocks(0.8 + 0.6j)
        assert blocks.shape == (1, 456, 456)
        assert np.array_equal(blocks[0], asm.matrix(0.8 + 0.6j))

    def test_never_factors_the_full_matrix(self, bump_unit, monkeypatch):
        # one det(I + A) on the symmetric 456-node grid: eight block LUs,
        # none above 120 rows, together the full dimension, each at its
        # block's own size
        shapes = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet",
                            lambda a: shapes.append(np.shape(a)) or slogdet(a))
        ev = fr.DeterminantEvaluator(bump_unit, 12, 38)
        ev.factors(0.8 + 0.6j, (1.0,))
        assert sum(math.prod(s[:-2]) for s in shapes) == 8
        assert max(s[-1] for s in shapes) <= 120
        assert sum(ev.assembler.block_sizes) == 456
        assert sorted(s[-1] for s in shapes) == sorted(ev.assembler.block_sizes)


class TestSeriesTerms:
    def test_term1_is_minus_trace(self, bump_unit):
        # n = 1 term = -sum_i G(x_i, x_i) V_i w_i on the same grid
        from eigenbound.kernel import iterated_kernel
        from eigenbound.potentials import QuadratureSpec
        quad = QuadratureSpec(n_radial=24, n_angular=16)
        grid = fr.build_grid(bump_unit, 6, 14)
        nodes, w = grid
        t1 = fr.fredholm_series_term(1, 1.5j, bump_unit, quad=quad, grid=grid)
        direct = -sum(iterated_kernel(1.5j, x, x, bump_unit, quad) *
                      bump_unit.value_fn(x[None, :])[0] * wi
                      for x, wi in zip(nodes, w))
        assert t1 == pytest.approx(direct, rel=1e-12)

    def test_coupling_power_scaling(self):
        # n-th term scales as g^{2n}
        k = 1.2j
        grid_spec = (5, 14)
        p1 = pot.bump_potential(1.0, 1.0)
        p2 = pot.bump_potential(2.0, 1.0)
        g1 = fr.build_grid(p1, *grid_spec)
        t11 = fr.fredholm_series_term(1, k, p1, grid=g1)
        t12 = fr.fredholm_series_term(1, k, p2, grid=g1)
        assert t12 == pytest.approx(4.0 * t11, rel=1e-10)
        t21 = fr.fredholm_series_term(2, k, p1, grid=g1)
        t22 = fr.fredholm_series_term(2, k, p2, grid=g1)
        assert t22 == pytest.approx(16.0 * t21, rel=1e-10)

    def test_partial_sum_halving_is_quartic(self):
        # |D - (1 + term1)| = O(g^4): halving g divides the residual by ~16.
        # term1 from the discrete series (route="matrix"), for which the
        # identity D = 1 + sum_n (-1)^n e_n holds exactly; the independent
        # quadrature route carries an O(g^2) cross-discretization floor
        # that buries the quartic term (see test below).
        # residual ~ e_2 ~ 1e-4 g^4 must stay above the 1e-15 determinant
        # noise floor, which places g at 0.1 rather than far smaller
        k = 1.5j
        residuals = []
        for g in (0.1, 0.05):
            p = pot.bump_potential(g, 1.0)
            d = fr.DeterminantEvaluator(p).det_value(k)
            t1 = fr.fredholm_series_term(1, k, p, grid=fr.build_grid(p), route="matrix")
            residuals.append(abs(d - (1 + t1)))
        ratio = residuals[0] / residuals[1]
        assert 14.0 < ratio < 18.0

    def test_partial_sum_approaches_determinant_independent_route(self):
        # cross-route: the residual still vanishes as g -> 0 (at the O(g^2)
        # rate set by the mismatch of the two discretizations)
        k = 1.5j
        residuals = []
        for g in (0.4, 0.2, 0.1):
            p = pot.bump_potential(g, 1.0)
            d = fr.DeterminantEvaluator(p).det_value(k)
            t1 = fr.fredholm_series_term(1, k, p)
            residuals.append(abs(d - (1 + t1)))
        assert residuals[0] > 3.0 * residuals[1] > 9.0 * residuals[2] / 1.5
        assert residuals[2] < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_route_is_characteristic_coefficient(self, bump_unit, n):
        # (-1)^n e_n(A^2), the coefficient np.poly gives, on a 12-node grid
        grid = fr.build_grid(bump_unit, 2, 6)
        a = fr.BSAssembler(bump_unit, *grid).matrix(1.3j)
        term = fr.fredholm_series_term(n, 1.3j, bump_unit, grid=grid, route="matrix")
        assert len(a) == 12
        assert term == pytest.approx(np.poly(a @ a)[n], rel=1e-10)

    def test_too_many_terms(self, bump_unit):
        with pytest.raises(TooManyTerms):
            fr.fredholm_series_term(4, 1j, bump_unit)


class TestBoundCheck:
    def test_zero_potential_equality_edge(self):
        z = pot.zero_potential()
        fn = pot.measure_functionals(z, 1.0)
        ev = fr.DeterminantEvaluator(z, 8, 26)
        absd, bound = fr.determinant_bound_check(ev, 1j, 1.0, fn)
        assert absd == pytest.approx(1.0, abs=1e-14)
        assert bound == pytest.approx(1.0, abs=1e-14)

    def test_strip_gate(self, bump_unit, bump_unit_functionals):
        with pytest.raises(ContinuationOutOfStrip):
            fr.determinant_bound_check(fr.DeterminantEvaluator(bump_unit),
                                       1.0 - 0.3j, 1.0, bump_unit_functionals)

    def test_modulus_inside_double_range_is_finite(self, bump_unit,
                                                   bump_unit_functionals, monkeypatch):
        # e^705 is a double: it must come back finite, not as +inf
        ev = fr.DeterminantEvaluator(bump_unit, 6, 14)
        monkeypatch.setattr(ev, "log_abs_det", lambda k: 705.0)
        absd, _ = fr.determinant_bound_check(ev, 1j, 1.0, bump_unit_functionals)
        assert absd == pytest.approx(math.exp(705.0), rel=1e-15)

    def test_bound_holds_on_strip_grid(self, bump_unit, bump_unit_functionals):
        fn = bump_unit_functionals
        ev = fr.DeterminantEvaluator(bump_unit, 10, 26)
        for k in (1j, 2j, 1 + 0.5j, -1 + 1j, 0.5 - 0.1j, -0.4 - 0.12j):
            absd, bound = fr.determinant_bound_check(ev, k, 1.0, fn)
            assert absd <= bound * (1 + 1e-2)


class TestHadamardCheck:
    def test_deviation_within_floor(self, bump_unit, bump_unit_functionals):
        fn = bump_unit_functionals
        c = sb.lemma1_constant(fn)
        cl1 = c * fn.l1_norm
        t_lower = max(0.0, 2 * cl1 * (1 + 2 * cl1))
        ev = fr.DeterminantEvaluator(bump_unit)
        for t in (t_lower * 1.05, t_lower * 1.5, t_lower * 4.0):
            dev = abs(ev.det_value(1j * t) - 1.0)
            assert dev <= sb.hadamard_deviation_bound(cl1, 1j * t) * (1 + 1e-2)
