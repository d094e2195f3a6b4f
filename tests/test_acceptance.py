"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [ACCEPTANCE] pass line when it holds (visible with
pytest -s); a failure is an ordinary assertion failure.  The counting
sweeps are computed once in session fixtures and shared between the
criteria that consume them.
"""

import math
import time

import numpy as np
import pytest

from eigenbound import fredholm as fr
from eigenbound import kernel as ker
from eigenbound import oracle as orc
from eigenbound import potentials as pot
from eigenbound import scalarbounds as sb
from eigenbound import zerocount as zc
from eigenbound.potentials import QuadratureSpec

from .test_oracle import KAPPA_BUMP3_G1

pytestmark = pytest.mark.slow


def _chain_eps(cl1, R):
    """eps equalizing the two T thresholds of Theorem 1 (smallest contour)."""
    l2 = 2.0 * cl1 * (1.0 + 2.0 * cl1)
    return 4.0 * (-l2 + math.sqrt(l2 * l2 + R))


# ---------------------------------------------------------------------------
# shared expensive artifacts

@pytest.fixture(scope="session")
def sweep_m0():
    p = pot.bump_potential(-0.3, 3.0)
    comp = zc.empirical_vs_bound(p, 1.0, "Theorem1")
    rc = orc.count_eigenvalues_radial(p, 0.9)
    return p, comp, rc


@pytest.fixture(scope="session")
def sweep_m1():
    p = pot.bump_potential(-1.0, 3.0)
    comp = zc.empirical_vs_bound(p, 1.0, "Theorem1")
    rc = orc.count_eigenvalues_radial(p, 2.0)
    return p, comp, rc


@pytest.fixture(scope="session")
def sweep_m2():
    p = pot.screened_coulomb_potential(-37.0, 1.0, 0.25, 0.05)
    comp = zc.empirical_vs_bound(p, 0.5, "Theorem2", n_radial=24, n_angular=38,
                                 quad=QuadratureSpec(n_radial=64))
    rc = orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 35.0)
    return p, comp, rc


@pytest.fixture(scope="session")
def sweep_m5():
    # the 5-state well's shallowest eigenvalue is two orders below the well
    # depth; the 800-node grid is the cheapest that keeps it on the axis
    p = pot.bump_potential(-54.5, 1.0)
    comp = zc.empirical_vs_bound(p, 1.0, "Theorem1", n_radial=16, n_angular=50)
    rc = orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 54.5)
    return p, comp, rc


@pytest.fixture(scope="session")
def sweep_complex():
    p = pot.bump_potential(-1.0 * np.exp(1j * np.pi / 6), 3.0)
    comp = zc.empirical_vs_bound(p, 1.0, "Theorem1")
    rc = orc.count_eigenvalues_radial(p, 2.0)
    return p, comp, rc


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. scalar-function suite (< 1 s)

class TestCriterion1Scalar:
    def test_scalar_suite(self):
        t0 = time.perf_counter()
        assert sb.f_series(0.0) == 1.0
        assert sb.f_series(0.5) <= 2.0 - math.exp(-3.0)
        assert sb.f_inverse(2.0) > 0.5
        for a in np.linspace(0.0, 3.0, 300):
            assert sb.f_series(a) <= (1.0 + a) * math.exp(2.0 * a * a)
        for eps in np.linspace(0.1, 3.0, 20):
            for t in np.linspace(0.01, 4.0, 20):
                s = sb.g_eps(eps, t)
                assert abs(sb.h_eps(eps, s) - t) <= 1e-10 * t
        dt = time.perf_counter() - t0
        _report("1 scalar-function suite", dt < 1.0, f"({dt:.2f} s)")


# ---------------------------------------------------------------------------
# 2. kernel-estimate suite (< 5 min)

class TestCriterion2Kernel:
    def test_kernel_suite(self):
        t0 = time.perf_counter()
        bump = pot.bump_potential(1.0, 1.0)
        fn_b = pot.measure_functionals(bump, 1.0)
        c = sb.lemma1_constant(fn_b)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            x = rng.normal(scale=0.6, size=3)
            y = rng.normal(scale=0.6, size=3)
            k = complex(rng.uniform(-12, 12), rng.uniform(0.05, 8))
            if abs(k) < 0.3:
                continue
            g = ker.iterated_kernel(k, x, y, bump)
            assert abs(g) <= sb.lemma1_kernel_bound(c, k) * (1 + 1e-2)
            checked += 1

        mexp = pot.mollified_exponential_potential(0.2, 1.0)
        fn_e = pot.measure_functionals(mexp, 0.5)
        ct = sb.lemma2_constant(fn_e)
        checked = 0
        while checked < 50:
            x = rng.normal(scale=1.2, size=3)
            y = rng.normal(scale=1.2, size=3)
            k = complex(rng.uniform(-8, 8), rng.uniform(0.1, 6))
            if abs(k) < 0.3:
                continue
            g = ker.iterated_kernel(k, x, y, mexp)
            assert abs(g) <= sb.lemma2_kernel_bound(ct, 1.0, k) * (1 + 1e-2)
            checked += 1

        # proposition dominates |G| and its two specializations hold
        for _ in range(12):
            x = rng.normal(scale=0.5, size=3)
            y = rng.normal(scale=0.5, size=3)
            k = complex(rng.uniform(-3, 3), rng.uniform(0.15, 3))
            if abs(k) < 0.3:
                continue
            g = ker.iterated_kernel(k, x, y, bump)
            b = ker.proposition_bound(k, x, y, bump)
            assert abs(g) <= b * (1 + 1e-2)
            cc = 0.5 * np.linalg.norm(x - y)
            integral = (b * 8 * abs(k) - fn_b.linf_norm / math.pi) * math.sqrt(2)
            assert integral <= fn_b.grad_linf_norm * (cc + fn_b.support_diameter) \
                * (1 + 1e-2) + 1e-12
        dc = mexp.decay_class
        for _ in range(8):
            x = rng.normal(scale=1.0, size=3)
            y = rng.normal(scale=1.0, size=3)
            cc = 0.5 * np.linalg.norm(x - y)
            b = ker.proposition_bound(1.5j, x, y, mexp)
            integral = (b * 8 * 1.5 - fn_e.linf_norm / math.pi) * math.sqrt(2)
            assert integral <= dc.amp * math.exp(dc.eps * cc) * (1 + 1e-2) + 1e-12
        dt = time.perf_counter() - t0
        _report("2 kernel-estimate suite", dt < 300.0, f"({dt:.1f} s)")


# ---------------------------------------------------------------------------
# 3. Hilbert-Schmidt identity (< 1 min)

class TestCriterion3HS:
    def test_hs_identity(self):
        t0 = time.perf_counter()
        bump = pot.bump_potential(1.0, 1.0)
        for k in (1j, 2j, 1 + 1j):
            lhs, rhs = ker.hs_identity_check(k, bump)
            ratio = lhs / rhs
            assert 0.99 <= ratio <= 1.01
        dt = time.perf_counter() - t0
        _report("3 Hilbert-Schmidt identity", dt < 60.0, f"({dt:.1f} s)")


# ---------------------------------------------------------------------------
# 4. determinant suite (< 10 min)

class TestCriterion4Determinant:
    def test_determinant_suite(self):
        t0 = time.perf_counter()
        z = pot.zero_potential()
        assert fr.DeterminantEvaluator(z, 8, 26).det_value(1.5j) == 1.0

        bump = pot.bump_potential(1.0, 1.0)
        ev = fr.DeterminantEvaluator(bump)    # 456 nodes
        rng = np.random.default_rng(3)
        for _ in range(4):
            k = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
            a = ev.assembler.matrix(k)
            d = ev.det_value(k)
            direct = np.linalg.det(np.eye(456) - a @ a)
            assert abs(d - direct) / abs(direct) < 1e-10

        # quartic truncation error of the discrete Fredholm series
        residuals = []
        for g in (0.1, 0.05):
            p = pot.bump_potential(g, 1.0)
            d = fr.DeterminantEvaluator(p).det_value(1.5j)
            t1 = fr.fredholm_series_term(1, 1.5j, p, grid=fr.build_grid(p),
                                         route="matrix")
            residuals.append(abs(d - (1 + t1)))
        assert 14.0 < residuals[0] / residuals[1] < 18.0

        # |D(k)| <= f(AB/2 pi eps) on a 7x7 grid down to Im k = -eps/8
        fn = pot.measure_functionals(bump, 1.0)
        bound = sb.f_series(fn.weighted_sup * fn.weighted_l1 / (2 * math.pi))
        for re in np.linspace(-1.5, 1.5, 7):
            for im in np.linspace(-1.0 / 8.0, 2.0, 7):
                k = complex(re, im)
                if k == 0:
                    continue
                absd, b2 = fr.determinant_bound_check(ev, k, 1.0, fn)
                assert b2 == bound
                assert absd <= bound * (1 + 1e-2)

        # Hadamard step on admissible T
        c = sb.lemma1_constant(fn)
        cl1 = c * fn.l1_norm
        t_low = 2 * cl1 * (1 + 2 * cl1)
        for t in (t_low * 1.01, t_low * 1.6, t_low * 3.0):
            dev = abs(ev.det_value(1j * t) - 1.0)
            assert dev <= sb.hadamard_deviation_bound(cl1, 1j * t) * (1 + 1e-2)
        dt = time.perf_counter() - t0
        _report("4 determinant suite", dt < 600.0, f"({dt:.1f} s)")


# ---------------------------------------------------------------------------
# 5. counting chain (< 20 min total, elevated grids where the eigenvalue
#    dynamic range demands them)

class TestCriterion5Counting:
    def test_counts_match_oracle(self, sweep_m0, sweep_m1, sweep_m2, sweep_m5,
                                 sweep_complex):
        t0 = time.perf_counter()
        for m, (p, comp, rc) in [(0, sweep_m0), (1, sweep_m1), (2, sweep_m2),
                                 (5, sweep_m5)]:
            assert rc.total == m, f"oracle count {rc.total} != {m}"
            assert comp.n_empirical_plus == m, \
                f"3D pipeline found {comp.n_empirical_plus}, oracle-certified {m}"
            assert comp.n_empirical_plus <= comp.n_determinant
        p, comp, rc = sweep_complex
        assert comp.n_empirical_plus == rc.total == 1
        assert comp.n_empirical_plus <= comp.n_determinant
        dt = time.perf_counter() - t0
        _report("5a counting sweep m in {0,1,2,5} + complex", True, f"({dt:.1f} s)")

    def test_jensen_chain(self, sweep_m0, sweep_m1, sweep_complex):
        # N_D inside the shifted disc <= Jensen numeric bound <= Theorem-1
        # n_bound, at an admissible (eps, T, rho).  Every located zero lies
        # in the upper half plane with |k|^2 <= R, hence inside the disc
        # |k - iT| <= sqrt(T^2+R); the kernel bound keeps the continued
        # determinant away from zero at larger |k|.
        t0 = time.perf_counter()
        for name, (p, comp, rc) in (("m0", sweep_m0), ("m1", sweep_m1),
                                    ("complex", sweep_complex)):
            fn = pot.measure_functionals(p, 1.0)
            c = sb.lemma1_constant(fn)
            cl1 = c * fn.l1_norm
            R = (cl1 * (1 + cl1)) ** 2
            eps = _chain_eps(cl1, R)
            fn_e = pot.measure_functionals(p, eps)
            c_e = sb.lemma1_constant(fn_e)
            report = sb.n_bound_theorem1(fn_e, c_e,
                                         sb.BoundParameters(eps=eps))
            ev = fr.DeterminantEvaluator(p)
            n_inner = comp.n_determinant
            chain = zc.jensen_chain(ev, report, n_inner,
                                    n_theta=256, n_theta_max=2048)
            assert chain.n_d_inner <= chain.jensen_n_bound + 1e-9, \
                f"{name}: N_D={chain.n_d_inner} > jensen={chain.jensen_n_bound}"
            assert chain.jensen_n_bound <= chain.theorem_n_bound * (1 + 1e-9), \
                f"{name}: jensen={chain.jensen_n_bound} > theorem={chain.theorem_n_bound}"
        dt = time.perf_counter() - t0
        _report("5b Jensen chain N_D <= jensen <= theorem", True, f"({dt:.1f} s)")

    def test_zero_location_matches_oracle(self):
        # located determinant zero agrees with the radial oracle to 1e-3
        # relative in lambda: locate at 1568 nodes, one Newton polish pass
        # on the 3888-node evaluator
        t0 = time.perf_counter()
        p = pot.bump_potential(-10.0, 1.0)
        prof = orc._radial_profile(p)
        rp = orc.RadialProblem(prof, 0, orc.ode_range(p))
        lo, hi = 0.5, 1.2
        flo = orc.jost_like_value(rp, 1j * lo).imag
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sign(orc.jost_like_value(rp, 1j * mid).imag) == np.sign(flo):
                lo = mid
            else:
                hi = mid
        kap_oracle = 0.5 * (lo + hi)

        ev = fr.DeterminantEvaluator(p, 16, 74)
        res = zc.locate_zeros(ev.det_plus,
                              (-0.15, 0.15, kap_oracle - 0.25, kap_oracle + 0.25),
                              2e-3)
        assert res.total_multiplicity == 1
        seed = res.zeros[0].k

        fine = fr.DeterminantEvaluator(p, 24, 146)
        zk = seed
        h = 1e-6
        for _ in range(5):
            f0 = fine.det_plus(zk)
            d = (fine.det_plus(zk + h) - fine.det_plus(zk - h)) / (2 * h)
            zk = zk - f0 / d
        lam = zk * zk
        lam_oracle = -kap_oracle ** 2
        rel = abs(lam - lam_oracle) / abs(lam_oracle)
        dt = time.perf_counter() - t0
        _report("5c zero location vs radial oracle", rel < 1e-3,
                f"(rel dev {rel:.2e}, {dt:.1f} s)")


# ---------------------------------------------------------------------------
# 6. corollary consistency (< 1 min)

class TestCriterion6Corollary:
    def test_corollary_sweep(self):
        t0 = time.perf_counter()
        cases = [(0.05, 1.0), (0.2, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0),
                 (0.3 + 0.2j, 1.0), (0.1, 2.0), (0.6, 1.5), (1.0 + 1.0j, 0.8),
                 (3.0, 0.7)]
        branches = set()
        for v0, radius in cases:
            p = pot.bump_potential(v0, radius)
            fn = pot.measure_functionals(p, 1.0)
            c = sb.lemma1_constant(fn)
            cor = sb.n_bound_corollary1(fn, c, 1.0)
            th = sb.n_bound_theorem1(fn, c,
                                     sb.BoundParameters(eps=1.0, T=cor.T_used),
                                     enforce=False)
            assert cor.n_bound >= th.n_bound * (1 - 1e-9)
            cl1 = c * fn.l1_norm
            branches.add("low" if 1.0 / 2.0 <= cl1 * (1 + cl1) else "high")
        assert branches == {"low", "high"}

        # continuity at the T-branch crossover eps = 2L to 1e-6 relative
        p = pot.bump_potential(1.0, 1.0)
        fn1 = pot.measure_functionals(p, 1.0)
        c1 = sb.lemma1_constant(fn1)
        cl1 = c1 * fn1.l1_norm
        eps_cross = 2.0 * cl1 * (1.0 + cl1)
        vals = []
        for eps in (eps_cross * (1 - 1e-9), eps_cross * (1 + 1e-9)):
            fn = pot.measure_functionals(p, eps)
            vals.append(sb.n_bound_corollary1(fn, sb.lemma1_constant(fn), eps))
        assert vals[0].n_bound == pytest.approx(vals[1].n_bound, rel=1e-6)
        assert vals[0].T_used != pytest.approx(vals[1].T_used, rel=1e-3)
        dt = time.perf_counter() - t0
        _report("6 corollary consistency", dt < 60.0, f"({dt:.1f} s)")


# ---------------------------------------------------------------------------
# 7. radius bound (uses the sweep artifacts)

class TestCriterion7Radius:
    def test_all_located_eigenvalues_inside_radius(self, sweep_m0, sweep_m1,
                                                   sweep_m2, sweep_m5,
                                                   sweep_complex):
        violations = 0
        total = 0
        for p, comp, rc in (sweep_m0, sweep_m1, sweep_m2, sweep_m5,
                            sweep_complex):
            for z in comp.zeros_plus:
                total += 1
                if abs(z.lam) > comp.radius_R * (1 + 1e-9):
                    violations += 1
        _report("7 radius bound |lambda| <= R", violations == 0,
                f"({total} eigenvalues checked, {violations} violations)")
