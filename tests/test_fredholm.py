"""Nystrom grids, Birman-Schwinger assembly, determinants, series terms."""

import math

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

    def test_grid_refinement_converges(self, bump_unit):
        k = 1.5j
        vals = [fr.DeterminantEvaluator(bump_unit, n_r, n_a).det_value(k)
                for n_r, n_a in ((6, 14), (12, 38), (18, 74))]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


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
