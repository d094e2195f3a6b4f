"""Free-resolvent kernel, iterated kernel, ellipsoid estimate, HS identity."""

import math

import numpy as np
import pytest

from eigenbound import kernel as ker
from eigenbound import potentials as pot
from eigenbound import scalarbounds as sb
from eigenbound.errors import CoincidentPoints, DegenerateK, NonpositiveImK
from eigenbound.potentials import QuadratureSpec


class TestFreeResolvent:
    def test_ki_unit_distance(self):
        v = ker.free_resolvent_kernel(1j, [0, 0, 0], [1, 0, 0])
        assert v == pytest.approx(math.exp(-1) / (4 * math.pi), rel=1e-14)

    def test_k0(self):
        v = ker.free_resolvent_kernel(0.0, [0, 0, 0], [0, 0, 2])
        assert v == pytest.approx(1 / (8 * math.pi), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=3)
            k = complex(rng.normal(), abs(rng.normal()) + 0.1)
            assert ker.free_resolvent_kernel(k, x, y) == \
                ker.free_resolvent_kernel(k, y, x)

    def test_coincident(self):
        with pytest.raises(CoincidentPoints):
            ker.free_resolvent_kernel(1j, [1, 2, 3], [1, 2, 3])


class TestIteratedKernel:
    def test_zero_potential(self):
        z = pot.zero_potential()
        assert ker.iterated_kernel(2j, [0.3, 0, 0], [-0.3, 0, 0], z) == 0.0

    def test_equal_arguments_finite(self, bump_unit):
        g = ker.iterated_kernel(2j, [0.2, 0.1, 0], [0.2, 0.1, 0], bump_unit)
        assert np.isfinite(g) and abs(g) > 0

    def test_refinement_oracle(self, bump_unit):
        x, y = np.array([0.3, 0, 0]), np.array([-0.3, 0, 0])
        val, delta = ker.iterated_kernel(2j, x, y, bump_unit, with_error=True)
        assert delta < 1e-4
        fine = ker.iterated_kernel(2j, x, y, bump_unit,
                                   QuadratureSpec(n_radial=64, n_angular=48))
        assert abs(val - fine) / abs(fine) < 1e-4

    def test_swap_symmetry(self, bump_unit):
        rng = np.random.default_rng(11)
        for _ in range(6):
            x = rng.normal(scale=0.4, size=3)
            y = rng.normal(scale=0.4, size=3)
            k = complex(rng.normal(), 0.3 + abs(rng.normal()))
            gxy = ker.iterated_kernel(k, x, y, bump_unit)
            gyx = ker.iterated_kernel(k, y, x, bump_unit)
            assert gxy == pytest.approx(gyx, rel=1e-9)

    def test_linearity_in_potential(self):
        p1 = pot.bump_potential(1.0, 1.0)
        p2 = pot.bump_potential(2.0 - 1.0j, 1.0)
        x, y = [0.25, 0.1, 0], [-0.2, 0.3, 0]
        g1 = ker.iterated_kernel(1.5j, x, y, p1)
        g2 = ker.iterated_kernel(1.5j, x, y, p2)
        assert g2 == pytest.approx((2.0 - 1.0j) * g1, rel=1e-10)

    def test_crude_kato_bound(self, bump_unit, bump_unit_functionals):
        # |G(x,y)| <= kato / (4 pi^2 |x-y|) for Im k >= 0
        rng = np.random.default_rng(2)
        kato = bump_unit_functionals.kato_constant
        for _ in range(12):
            x = rng.normal(scale=0.5, size=3)
            y = rng.normal(scale=0.5, size=3)
            d = np.linalg.norm(x - y)
            if d < 1e-3:
                continue
            k = complex(rng.normal(), abs(rng.normal()) + 0.05)
            g = ker.iterated_kernel(k, x, y, bump_unit)
            assert abs(g) <= kato / (4 * math.pi ** 2 * d) * (1 + 1e-6)

    def test_lemma1_bound_sampled(self, bump_unit, bump_unit_functionals):
        c = sb.lemma1_constant(bump_unit_functionals)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(scale=0.6, size=3)
            y = rng.normal(scale=0.6, size=3)
            k = complex(rng.uniform(-15, 15), rng.uniform(0.05, 10))
            if abs(k) < 0.5:
                continue
            g = ker.iterated_kernel(k, x, y, bump_unit)
            assert abs(g) <= sb.lemma1_kernel_bound(c, k) * (1 + 1e-2)

    def test_lemma2_bound_sampled(self, mollified_exp, mollified_exp_functionals):
        ct = sb.lemma2_constant(mollified_exp_functionals)
        eps = mollified_exp.decay_class.eps
        rng = np.random.default_rng(4)
        for _ in range(12):
            x = rng.normal(scale=1.5, size=3)
            y = rng.normal(scale=1.5, size=3)
            k = complex(rng.uniform(-10, 10), rng.uniform(0.1, 8))
            if abs(k) < 0.5:
                continue
            g = ker.iterated_kernel(k, x, y, mollified_exp)
            assert abs(g) <= sb.lemma2_kernel_bound(ct, eps, k) * (1 + 1e-2)


class TestHSIdentity:
    def test_bump_ratio(self, bump_unit):
        lhs, rhs = ker.hs_identity_check(1j, bump_unit)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-3)

    def test_large_imk_decay_rate(self, bump_unit):
        vals = [ker.hs_identity_check(1j * t, bump_unit)[1] for t in (4.0, 8.0)]
        assert vals[0] / vals[1] == pytest.approx(2.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        p1 = pot.bump_potential(1.0, 1.0)
        p2 = pot.bump_potential(2.0, 1.0)
        l1, r1 = ker.hs_identity_check(1j, p1)
        l2, r2 = ker.hs_identity_check(1j, p2)
        assert l2 == pytest.approx(4 * l1, rel=1e-12)
        assert r2 == pytest.approx(4 * r1, rel=1e-12)

    def test_nonpositive_imk(self, bump_unit):
        with pytest.raises(NonpositiveImK):
            ker.hs_identity_check(1.0 + 0j, bump_unit)


class TestPropositionBound:
    def test_zero_potential(self):
        z = pot.zero_potential()
        assert ker.proposition_bound(2j, [0.3, 0, 0], [-0.3, 0, 0], z) == 0.0

    def test_degenerate_k(self, bump_unit):
        with pytest.raises(DegenerateK):
            ker.proposition_bound(0.0, [0.3, 0, 0], [-0.3, 0, 0], bump_unit)

    def test_dominates_iterated_kernel(self, bump_unit):
        rng = np.random.default_rng(7)
        for _ in range(8):
            x = rng.normal(scale=0.5, size=3)
            y = rng.normal(scale=0.5, size=3)
            k = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            if abs(k) < 0.3:
                continue
            g = ker.iterated_kernel(k, x, y, bump_unit)
            b = ker.proposition_bound(k, x, y, bump_unit)
            assert abs(g) <= b * (1 + 1e-2)

    def test_compact_integral_term_bound(self, bump_unit, bump_unit_functionals):
        # int_c^inf max_E |grad V| r dr / sqrt(r^2-c^2) <= ||grad V||_inf (c + d)
        fn = bump_unit_functionals
        rng = np.random.default_rng(8)
        for _ in range(6):
            x = rng.normal(scale=0.6, size=3)
            y = rng.normal(scale=0.6, size=3)
            c = 0.5 * np.linalg.norm(x - y)
            k = 2.0j
            total = ker.proposition_bound(k, x, y, bump_unit)
            # recover the integral term from the bound's structure
            integral = (total * 8 * abs(k) - fn.linf_norm / math.pi) * math.sqrt(2)
            assert integral <= fn.grad_linf_norm * (c + fn.support_diameter) \
                * (1 + 1e-2) + 1e-12

    def test_exponential_integral_term_bound(self, mollified_exp,
                                             mollified_exp_functionals):
        # exponential-decay specialization: integral term <= A e^{eps c}
        dc = mollified_exp.decay_class
        rng = np.random.default_rng(9)
        for _ in range(6):
            x = rng.normal(scale=1.0, size=3)
            y = rng.normal(scale=1.0, size=3)
            c = 0.5 * np.linalg.norm(x - y)
            k = 1.5j
            total = ker.proposition_bound(k, x, y, mollified_exp)
            integral = (total * 8 * abs(k) -
                        mollified_exp_functionals.linf_norm / math.pi) * math.sqrt(2)
            assert integral <= dc.amp * math.exp(dc.eps * c) * (1 + 1e-2) + 1e-12


class TestEllipsoidMajorant:
    def test_crossover_convention_both_active(self):
        x, y = np.array([0.5, 0, 0]), np.array([-0.5, 0, 0])
        mu = ker.segment_min_distance(x, y)
        c = 0.5
        r = math.sqrt(mu * mu + c * c)
        spec = ker.EllipsoidSpec.from_foci(x, y, r)
        val = ker.exponential_grad_majorant(spec, 1.0, 2.0)
        expect = 1.0 * 2.0 * (math.exp(1.0 * (c + mu - r)) +
                              math.exp(1.0 * (spec.minor - mu)))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_large_r_first_term_vanishes(self):
        x, y = np.array([0.3, 0.2, 0]), np.array([-0.3, 0, 0.1])
        vals = [ker.exponential_grad_majorant(
            ker.EllipsoidSpec.from_foci(x, y, r), 1.0, 1.0) for r in (5.0, 10.0, 20.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-7

    def test_majorant_dominates_sampled_gradient(self):
        p = pot.mollified_exponential_potential(0.5, 1.0)
        dc = p.decay_class
        rng = np.random.default_rng(10)
        for _ in range(8):
            x = rng.normal(scale=1.0, size=3)
            y = rng.normal(scale=1.0, size=3)
            cc = 0.5 * np.linalg.norm(x - y)
            r = cc + abs(rng.normal()) * 1.5 + 1e-3
            spec = ker.EllipsoidSpec.from_foci(x, y, r)
            maj = ker.exponential_grad_majorant(spec, dc.eps, dc.amp)
            # sample 200 surface points
            m, e, e1, e2 = ker._frame(x, y)
            th = np.linspace(0, np.pi, 20)
            ph = np.linspace(0, 2 * np.pi, 10, endpoint=False)
            tg, pg = np.meshgrid(th, ph, indexing="ij")
            pts = (m[None, :] + np.outer(r * np.cos(tg.ravel()), e) +
                   np.outer(spec.minor * np.sin(tg.ravel()) * np.cos(pg.ravel()), e1) +
                   np.outer(spec.minor * np.sin(tg.ravel()) * np.sin(pg.ravel()), e2))
            gmax = float(np.max(np.linalg.norm(np.abs(p.grad_fn(pts)), axis=-1)))
            assert gmax <= maj * (1 + 1e-9)

    def test_spec_invariants(self):
        spec = ker.EllipsoidSpec.from_foci([1, 0, 0], [-1, 0, 0], 1.5)
        assert spec.c == pytest.approx(1.0)
        assert spec.minor ** 2 == pytest.approx(spec.r ** 2 - spec.c ** 2, rel=1e-14)
        with pytest.raises(ValueError):
            ker.EllipsoidSpec.from_foci([1, 0, 0], [-1, 0, 0], 0.5)
