"""Scalar series, inverse functions, constants, and the bound formulas."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import lambertw

from eigenbound import potentials as pot
from eigenbound import scalarbounds as sb
from eigenbound.errors import (DegenerateK, InadmissibleT, ModeMismatch,
                               NegativeLogArgument, NonConvergent, WrongDecayClass)

# frozen oracle values (50-digit partial sums with interval tail bounds)
F_HALF = 1.9211099466577954
F_INV_2 = 0.5237660159060474
F_03 = 1.4201806970393886


class TestFSeries:
    def test_f_zero_is_one(self):
        assert sb.f_series(0.0) == 1.0

    def test_f_half_oracle(self):
        assert sb.f_series(0.5) == pytest.approx(F_HALF, abs=1e-4)
        assert sb.f_series(0.5) == pytest.approx(F_HALF, rel=1e-12)

    def test_f_half_below_two_minus_exp3(self):
        assert sb.f_series(0.5) <= 2.0 - math.exp(-3.0)

    def test_f_point_three_oracle(self):
        assert sb.f_series(0.3) == pytest.approx(F_03, rel=1e-12)

    def test_majorant_on_grid(self):
        for a in np.linspace(0.0, 3.0, 300):
            assert sb.f_series(a) <= (1 + a) * math.exp(2 * a * a)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 4.0, 120)
        vals = [sb.f_series(a) for a in grid]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_overflow_flagged_as_inf(self):
        assert math.isinf(sb.f_series(50.0))
        # finite while it fits a double: f(20) = 1.8e236
        assert sb.f_series(20.0) == pytest.approx(math.exp(sb.log_f_series(20.0)),
                                                  rel=1e-12)

    def test_log_f_continuous_across_laplace_switch(self):
        # the chunked sum up to a = 1e5, the Laplace form past it
        above = sb.log_f_series(math.nextafter(1e5, 2e5))
        assert above == pytest.approx(sb.log_f_series(1e5), rel=1e-12)

    def test_log_f_matches_direct_small(self):
        for a in (0.2, 1.0, 5.0, 16.0):
            assert sb.log_f_series(a) == pytest.approx(math.log(sb.f_series(a)),
                                                       rel=1e-12)

    def test_log_f_matches_mp_large(self):
        import mpmath as mp
        for a in (25.0, 60.0):
            mp_val = float(mp.log(sb.mp_f_series(a)))
            assert sb.log_f_series(a) == pytest.approx(mp_val, rel=1e-10)

    def test_log_f_matches_gammaln_logsumexp(self):
        # the window n* +- 14 sqrt(2 n*) + 50 summed with scipy's ln n! and logsumexp
        from scipy.special import gammaln, logsumexp
        for a in (17.5, 100.0, 1e4):
            n_star = math.e * a * a
            half = int(14.0 * math.sqrt(2.0 * n_star)) + 50
            n = np.arange(int(n_star) - half, int(n_star) + half + 1, dtype=float)
            ref = logsumexp(0.5 * n * np.log(n) + n * math.log(a) - gammaln(n + 1.0))
            assert sb.log_f_series(a) == pytest.approx(ref, rel=1e-13)

    def test_mp_f_window_matches_every_term(self):
        # against the sum of every term from n = 0 up to the first below
        # 1e-50 of the sum; the m5 well's q, e q^2 = 4.1e6, in seconds
        with mp.workdps(50):
            a, s, t, n = mp.mpf(30), mp.mpf(1), mp.mpf(30), 1
            while t >= mp.mpf(10) ** -50 * s:
                s += t
                t *= a * mp.power(1 + mp.mpf(1) / n, mp.mpf(n) / 2) / mp.sqrt(n + 1)
                n += 1
            assert abs(sb.mp_f_series(30.0) / s - 1) < mp.mpf(10) ** -45
        start = time.perf_counter()
        val = sb.mp_f_series(1234.75)
        assert time.perf_counter() - start < 20.0
        assert float(mp.log(val)) == pytest.approx(sb.log_f_series(1234.75), rel=1e-12)

    def test_mp_f_matches_double(self):
        for a in (0.1, 0.5, 2.0, 8.0):
            assert float(sb.mp_f_series(a)) == pytest.approx(sb.f_series(a),
                                                             rel=1e-13)


class TestFInverse:
    def test_inverse_of_one(self):
        assert sb.f_inverse(1.0) == 0.0

    def test_inverse_of_two_exceeds_half(self):
        v = sb.f_inverse(2.0)
        assert v > 0.5
        assert v == pytest.approx(F_INV_2, rel=1e-9)

    def test_roundtrip(self):
        assert sb.f_inverse(sb.f_series(0.3)) == pytest.approx(0.3, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            sb.f_inverse(0.5)


class TestGH:
    def test_g_direct(self):
        assert sb.g_eps(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_h_inverse_of_e(self):
        assert sb.h_eps(1.0, math.e) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_grid(self):
        for eps in np.linspace(0.1, 3.0, 20):
            for t in np.linspace(0.01, 5.0, 20):
                s = sb.g_eps(eps, t)
                assert sb.h_eps(eps, s) == pytest.approx(t, rel=1e-10)
                assert sb.g_eps(eps, sb.h_eps(eps, s)) == pytest.approx(s, rel=1e-9)

    def test_h_below_identity(self):
        for eps in (0.3, 1.0, 2.0):
            for s in (0.1, 1.0, 10.0, 1e4):
                assert sb.h_eps(eps, s) <= s * (1 + 1e-12)

    def test_h_matches_lambert_w(self):
        # independent route: h_eps(s) = W(eps s)/eps
        for eps, s in ((0.5, 3.0), (1.0, 50.0), (2.3, 7.7)):
            ref = float(np.real(lambertw(eps * s))) / eps
            assert sb.h_eps(eps, s) == pytest.approx(ref, rel=1e-11)

    def test_h_log_asymptotics(self):
        # h_eps(s) ~ ln(s)/eps; the deviation is lnln(s)/ln(s) + O(..),
        # i.e. 17.7% at 1e6 and 14.0% at 1e9, shrinking with s
        devs = [abs(sb.h_eps(1.0, s) / math.log(s) - 1.0) for s in (1e6, 1e9)]
        assert devs[0] < 0.18
        assert devs[1] < 0.145
        assert devs[1] < devs[0]


class TestConstants:
    def test_lemma1_zero(self):
        fn = pot.measure_functionals(pot.zero_potential(), 1.0)
        assert sb.lemma1_constant(fn) == 0.0

    def test_lemma1_kato_branch(self):
        fn = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, 2.0, 8 * math.pi ** 2,
                                      0.0, 0.0, 0.0, 1.0, "compact")
        assert sb.lemma1_constant(fn) == pytest.approx(1.0, rel=1e-15)

    def test_lemma1_gradient_branch(self):
        fn = pot.PotentialFunctionals(1.0, 1.0, 8 * math.pi, 0.0, 2.0, 0.0,
                                      0.0, 0.0, 0.0, 1.0, "compact")
        assert sb.lemma1_constant(fn) == pytest.approx(1.0, rel=1e-15)

    def test_lemma1_wrong_class(self, mollified_exp_functionals):
        with pytest.raises(WrongDecayClass):
            sb.lemma1_constant(mollified_exp_functionals)

    def test_lemma1_bump_from_oracle_functionals(self):
        # direct formula on independently computed functionals
        from .test_potentials import (BUMP_GRAD_LINF, BUMP_KATO, BUMP_LINF)
        expect = max(BUMP_KATO / (8 * math.pi ** 2),
                     BUMP_LINF / (8 * math.pi) +
                     math.sqrt(2) / 16 * BUMP_GRAD_LINF * 3.0)
        p = pot.bump_potential(1.0, 1.0)
        fn = pot.measure_functionals(p, 1.0)
        assert sb.lemma1_constant(fn) == pytest.approx(expect, rel=1e-5)

    def test_lemma1_kernel_bound_values(self):
        assert sb.lemma1_kernel_bound(1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert sb.lemma1_kernel_bound(1.0, 6.0) == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(DegenerateK):
            sb.lemma1_kernel_bound(1.0, 0.0)

    def test_lemma1_kernel_bound_decreasing(self):
        vals = [sb.lemma1_kernel_bound(2.0, kk) for kk in np.linspace(0.5, 40, 50)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lemma2_branches(self):
        fn_kato = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, None, 8 * math.pi ** 2,
                                           0.1, 1.0, 0.0, 1.0, "exponential")
        assert sb.lemma2_constant(fn_kato) == pytest.approx(1.0, rel=1e-15)
        a = 8 * math.pi / (1 + math.sqrt(2) * math.pi)
        fn_a = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, None, 0.0,
                                        a, 1.0, 0.0, 1.0, "exponential")
        assert sb.lemma2_constant(fn_a) == pytest.approx(1.0, rel=1e-15)

    def test_lemma2_kernel_bound_h1e(self):
        assert sb.lemma2_kernel_bound(1.0, 1.0, math.e) == pytest.approx(1.0, abs=1e-9)


class TestRadius:
    def test_theorem1_arithmetic(self):
        fn = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, 2.0, 0.0,
                                      0.0, 0.0, 0.0, 1.0, "compact")
        # C l1 = 1 -> R = 1 * (1+1)^2 = 4
        assert sb.radius_bound(fn, 1.0, "Theorem1") == pytest.approx(4.0)

    def test_theorem2_arithmetic(self):
        fn = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, None, 0.0,
                                      0.0, 0.0, 0.0, 1.0, "exponential")
        # Ct l1 = 1, eps = 2 gives R = exp(4); pass eps through fn-independent arg
        fn2 = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, None, 0.0,
                                       0.0, 0.0, 0.0, 2.0, "exponential")
        assert sb.radius_bound(fn2, 1.0, "Theorem2") == pytest.approx(math.exp(4.0))

    def test_zero_potential_radius(self):
        fn = pot.measure_functionals(pot.zero_potential(), 1.0)
        assert sb.radius_bound(fn, 0.0, "Theorem1") == 0.0

    def test_mode_mismatch(self, bump_unit_functionals):
        with pytest.raises(ModeMismatch):
            sb.radius_bound(bump_unit_functionals, 1.0, "Theorem2")


class TestHadamard:
    def test_zero_argument(self):
        assert sb.hadamard_deviation_bound(0.0, 1j) == pytest.approx(0.0, abs=1e-14)

    def test_half_argument_paper_floor(self):
        # arg = 1/2 exactly when 2 c_l1 / (sqrt(1+4|k|)-1) = 1/2
        k = 1j * 2.0
        cl1 = (math.sqrt(1 + 4 * 2.0) - 1) / 4.0
        dev = sb.hadamard_deviation_bound(cl1, k)
        assert dev == pytest.approx(F_HALF - 1.0, rel=1e-12)
        assert dev <= 1.0 - math.exp(-3.0)

    def test_monotone_decreasing_in_T(self):
        vals = [sb.hadamard_deviation_bound(0.7, 1j * t) for t in np.linspace(2, 40, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestCountBounds:
    def test_auto_follows_decay_class(self, bump_unit_functionals,
                                      mollified_exp_functionals):
        fn = bump_unit_functionals
        mode, c, th, cor = sb.count_bounds(fn)
        assert (mode, c) == ("Theorem1", sb.lemma1_constant(fn))
        assert th == sb.n_bound_theorem1(fn, c, sb.BoundParameters(eps=fn.eps))
        assert cor == sb.n_bound_corollary1(fn, c, fn.eps)
        fe = mollified_exp_functionals
        mode, c, th, cor = sb.count_bounds(fe, "Theorem2")
        assert (mode, c) == ("Theorem2", sb.lemma2_constant(fe))
        assert th == sb.n_bound_theorem2(fe, c, sb.BoundParameters(eps=fe.eps))
        assert cor == sb.n_bound_corollary2(fe, c, fe.eps)

    def test_named_mode_must_match_decay_class(self, bump_unit_functionals,
                                                mollified_exp_functionals):
        with pytest.raises(ModeMismatch):
            sb.count_bounds(bump_unit_functionals, "Theorem2")
        with pytest.raises(ModeMismatch):
            sb.count_bounds(mollified_exp_functionals, "Theorem1")
        with pytest.raises(ValueError):
            sb.count_bounds(bump_unit_functionals, "Theorem3")

    def test_theorem_at_given_T(self, bump_unit_functionals):
        fn = bump_unit_functionals
        with pytest.raises(InadmissibleT):
            sb.count_bounds(fn, T=1e-3)
        cor = sb.count_bounds(fn)[3]
        th = sb.count_bounds(fn, T=cor.T_used, enforce=False)[2]
        assert th.T_used == cor.T_used


class TestTheorem1:
    def test_zero_potential_bound_is_zero(self):
        fn = pot.measure_functionals(pot.zero_potential(), 1.0)
        rep = sb.n_bound_theorem1(fn, 0.0, sb.BoundParameters(eps=1.0))
        assert rep.n_bound == 0.0
        assert rep.radius_R == 0.0

    def test_complex_bump_matches_extended_precision(self):
        p = pot.bump_potential(0.1 + 0.1j, 1.0)
        fn = pot.measure_functionals(p, 1.0)
        c = sb.lemma1_constant(fn)
        rep = sb.n_bound_theorem1(fn, c, sb.BoundParameters(eps=1.0))
        repx = sb.n_bound_theorem1(fn, c, sb.BoundParameters(eps=1.0),
                                   precision="extended")
        assert rep.n_bound > 0 and math.isfinite(rep.n_bound)
        assert rep.n_bound == pytest.approx(repx.n_bound, rel=1e-12)

    def test_below_threshold_raises(self, bump_unit_functionals):
        fn = bump_unit_functionals
        c = sb.lemma1_constant(fn)
        with pytest.raises(InadmissibleT):
            sb.n_bound_theorem1(fn, c, sb.BoundParameters(eps=1.0, T=1e-3))

    def test_forced_negative_log_argument(self, bump_unit_functionals):
        fn = bump_unit_functionals
        c = sb.lemma1_constant(fn)
        with pytest.raises(NegativeLogArgument):
            sb.n_bound_theorem1(fn, c, sb.BoundParameters(eps=1.0, T=1e-3),
                                enforce=False)

    def test_translation_does_not_decrease_bound(self):
        p0 = pot.bump_potential(0.3, 1.0)
        p1 = pot.bump_potential(0.3, 1.0, center=(1.5, 0.0, 0.0))
        f0 = pot.measure_functionals(p0, 1.0)
        f1 = pot.measure_functionals(p1, 1.0)
        c0, c1 = sb.lemma1_constant(f0), sb.lemma1_constant(f1)
        r0 = sb.n_bound_theorem1(f0, c0, sb.BoundParameters(eps=1.0))
        r1 = sb.n_bound_theorem1(f1, c1, sb.BoundParameters(eps=1.0))
        assert r1.n_bound >= r0.n_bound * (1 - 1e-6)

    def test_near_threshold_blowup_through_left_factor(self, bump_unit_functionals):
        fn = bump_unit_functionals
        c = sb.lemma1_constant(fn)
        cl1 = c * fn.l1_norm
        r = (cl1 * (1 + cl1)) ** 2
        t_lower = max(2 * r / 1.0 - 1.0 / 8.0, 2 * cl1 * (1 + 2 * cl1))
        rep_near = sb.n_bound_theorem1(
            fn, c, sb.BoundParameters(eps=1.0, T=t_lower * (1 + 1e-6)))
        rep_far = sb.n_bound_theorem1(
            fn, c, sb.BoundParameters(eps=1.0, T=t_lower * 1.5))
        # blowup near threshold is driven by the shrinking log ratio
        assert rep_near.n_bound > rep_far.n_bound


class TestCorollary1:
    def test_zero_potential_short_circuit(self):
        fn = pot.measure_functionals(pot.zero_potential(), 1.0)
        rep = sb.n_bound_corollary1(fn, 0.0, 1.0)
        assert rep.n_bound == 0.0

    def test_ab_zero_bracket_is_three(self):
        fn = pot.PotentialFunctionals(1.0, 1.0, 0.0, 0.0, 2.0, 0.0,
                                      0.0, 0.0, 0.0, 1.0, "compact")
        rep = sb.n_bound_corollary1(fn, 1.0, 1.0)
        m = min(1.0 / 2.0, 4.0 / 3.0)
        expect = 2.0 * 3.0 / math.log1p(0.25 * m * m / 4.0)
        assert rep.n_bound == pytest.approx(expect, rel=1e-12)

    def test_branch_crossover_continuity(self, bump_unit, bump_unit_functionals):
        c = sb.lemma1_constant(bump_unit_functionals)
        cl1 = c * bump_unit_functionals.l1_norm
        eps_cross = 2.0 * cl1 * (1.0 + cl1)   # T-case switch at eps/2 = L
        reps = []
        for eps in (eps_cross * (1 - 1e-9), eps_cross * (1 + 1e-9)):
            fn = pot.measure_functionals(bump_unit, eps)
            reps.append(sb.n_bound_corollary1(fn, sb.lemma1_constant(fn), eps))
        lo, hi = reps
        assert lo.n_bound == pytest.approx(hi.n_bound, rel=1e-6)
        assert lo.T_used != pytest.approx(hi.T_used, rel=1e-3)  # branches differ

    def test_extended_cross_check(self, bump_unit_functionals):
        fn = bump_unit_functionals
        c = sb.lemma1_constant(fn)
        rep = sb.n_bound_corollary1(fn, c, 1.0)
        repx = sb.n_bound_corollary1(fn, c, 1.0, precision="extended")
        assert rep.n_bound == pytest.approx(repx.n_bound, rel=1e-12)


class TestTheorem2:
    def test_mollified_exp_matches_extended(self, mollified_exp_functionals):
        fn = mollified_exp_functionals
        ct = sb.lemma2_constant(fn)
        rep = sb.n_bound_theorem2(fn, ct, sb.BoundParameters(eps=0.5))
        repx = sb.n_bound_theorem2(fn, ct, sb.BoundParameters(eps=0.5),
                                   precision="extended")
        assert math.isfinite(rep.n_bound) and rep.n_bound > 0
        assert rep.n_bound == pytest.approx(repx.n_bound, rel=1e-12)

    def test_zero_exponential_potential(self):
        z = pot.mollified_exponential_potential(0.0, 1.0)
        fn = pot.measure_functionals(z, 0.5)
        rep = sb.n_bound_theorem2(fn, 0.0, sb.BoundParameters(eps=0.5))
        assert rep.n_bound == 0.0

    def test_threshold_approaches_f_half(self, mollified_exp_functionals):
        # T just above g_eps(2 Ct l1) puts the Hadamard f-argument just under 1/2
        fn = mollified_exp_functionals
        ct = sb.lemma2_constant(fn)
        cl1 = ct * fn.l1_norm
        t = sb.g_eps(0.5, 2 * cl1) * (1 + 1e-9)
        arg = cl1 / sb.h_eps(0.5, t)
        assert arg == pytest.approx(0.5, abs=1e-8)
        assert sb.f_series(arg) == pytest.approx(F_HALF, rel=1e-7)

    def test_overflow_is_inf_with_finite_logs(self):
        # C~||V||_1 = 850 (screened Coulomb -37 at eps 0.5) puts R near
        # e^863: R, T and the bounds leave the doubles, their logs do not
        fn = pot.PotentialFunctionals(111.48, 304.54, 35.195, 71.673, None,
                                      269.98, 35.195, 458.0, 0.0, 0.5,
                                      "exponential")
        ct = sb.lemma2_constant(fn)
        for rep in (sb.n_bound_theorem2(fn, ct, sb.BoundParameters(eps=0.5)),
                    sb.n_bound_corollary2(fn, ct, 0.5)):
            assert rep.radius_R == rep.T_used == rep.n_bound == math.inf
            assert rep.log_radius_R == pytest.approx(
                2.0 * (math.log(ct * 111.48) + 0.5 * ct * 111.48), rel=1e-15)
            assert 700.0 < rep.log_radius_R < rep.log_T < rep.log_n_bound < 1e4

    def test_extended_h_eps_past_doubles(self):
        # Theorem 2 on the m2 functionals needs h_eps at T = e^864.6
        fn = pot.PotentialFunctionals(111.48, 304.54, 35.195, 71.673, None,
                                      269.98, 35.195, 458.0, 0.0, 0.5,
                                      "exponential")
        ln_T = sb.n_bound_theorem2(fn, sb.lemma2_constant(fn),
                                   sb.BoundParameters(eps=0.5)).log_T
        t = sb.mp_h_eps(0.5, mp.exp(ln_T))
        assert abs(mp.log(t) + 0.5 * t - ln_T) < 1e-40
        assert float(t) == pytest.approx(sb._h_eps_log(0.5, ln_T), rel=1e-12)
        for eps, s in ((0.5, 3.0), (2.0, 1e-8), (1.0, 1e-300)):
            assert float(sb.mp_h_eps(eps, s)) == pytest.approx(sb.h_eps(eps, s), rel=1e-11)

    def test_extended_term_limit_is_typed(self):
        # q = AB/2 pi eps = 5131 needs about e q^2 = 7e7 terms of f
        fn = pot.PotentialFunctionals(111.48, 304.54, 35.195, 71.673, None,
                                      269.98, 35.195, 458.0, 0.0, 0.5,
                                      "exponential")
        with pytest.raises(NonConvergent, match="terms"):
            sb.n_bound_theorem2(fn, sb.lemma2_constant(fn), sb.BoundParameters(eps=0.5),
                                precision="extended")

    def test_corollary2_extended(self, mollified_exp_functionals):
        fn = mollified_exp_functionals
        ct = sb.lemma2_constant(fn)
        rep = sb.n_bound_corollary2(fn, ct, 0.5)
        repx = sb.n_bound_corollary2(fn, ct, 0.5, precision="extended")
        assert rep.n_bound == pytest.approx(repx.n_bound, rel=1e-12)


def _eps_for_min_threshold(cl1, r):
    """eps equalizing the two T lower bounds of Theorem 1."""
    l2 = 2 * cl1 * (1 + 2 * cl1)
    return 4.0 * (-l2 + math.sqrt(l2 * l2 + 2 * r))


class TestCorollaryDominatesTheorem:
    @pytest.mark.parametrize("v0,radius", [
        (0.05, 1.0), (0.2, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0),
        (0.3 + 0.2j, 1.0), (0.1, 2.0), (0.6, 1.5), (1.0 + 1.0j, 0.8), (3.0, 0.7),
    ])
    def test_sweep(self, v0, radius):
        p = pot.bump_potential(v0, radius)
        fn = pot.measure_functionals(p, 1.0)
        c = sb.lemma1_constant(fn)
        cor = sb.n_bound_corollary1(fn, c, 1.0)
        # the implied T of the eps/2 >= L branch sits exactly on the strict
        # threshold, so evaluate the theorem formula without the gate
        th = sb.n_bound_theorem1(fn, c,
                                 sb.BoundParameters(eps=1.0, T=cor.T_used),
                                 enforce=False)
        assert cor.n_bound >= th.n_bound * (1 - 1e-9)
