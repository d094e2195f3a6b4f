"""Winding numbers, Jensen bounds, zero location."""

import math

import numpy as np
import pytest

from eigenbound import potentials as pot
from eigenbound import zerocount as zc
from eigenbound.errors import CenterIsZero, NonConvergent, ZeroOnContour


def _depth_first_phase(fn, gamma, n0, limit):
    """The tracker's arc test applied depth first, one arc at a time in t order."""
    ts = list(np.linspace(0.0, 1.0, n0 + 1))
    vals = [complex(fn(gamma(t))) for t in ts]
    total, i, depth = 0.0, 0, {}
    while i < len(ts) - 1:
        v0, v1 = vals[i], vals[i + 1]
        tm = 0.5 * (ts[i] + ts[i + 1])
        vm = complex(fn(gamma(tm)))
        d1, d2 = np.angle(vm / v0), np.angle(v1 / vm)
        if abs(d1) < 0.5 * math.pi and abs(d2) < 0.5 * math.pi and \
                zc._sampled_enough(v0, vm, v1):
            total += d1 + d2
            i += 1
            continue
        d = depth.get(ts[i], 0)
        assert d < limit
        ts.insert(i + 1, tm)
        vals.insert(i + 1, vm)
        depth[ts[i]] = depth[tm] = d + 1
    return total


def _rectangle(box):
    x0, x1, y0, y1 = box
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]

    def gamma(t):
        s = (t % 1.0) * 4.0
        j = min(int(s), 3)
        return corners[j] + (s - j) * (corners[(j + 1) % 4] - corners[j])
    return gamma


class TestWinding:
    def test_simple_zero(self):
        c = zc.ContourSpec(center=0j, radius=2.0)
        assert zc.winding_number(lambda k: k - (0.5 + 0.5j), c) == 1

    def test_double_zero(self):
        c = zc.ContourSpec(center=0j, radius=2.0)
        assert zc.winding_number(lambda k: (k - (0.5 + 0.5j)) ** 2, c) == 2

    def test_constant(self):
        c = zc.ContourSpec(center=0j, radius=2.0)
        assert zc.winding_number(lambda k: 3.7 + 0.1j, c) == 0

    def test_zero_outside(self):
        c = zc.ContourSpec(center=0j, radius=2.0)
        assert zc.winding_number(lambda k: k - (5 + 5j), c) == 0

    def test_zero_on_contour_raises(self):
        c = zc.ContourSpec(center=0j, radius=1.0)
        with pytest.raises(ZeroOnContour):
            zc.winding_number(lambda k: k - 1.0, c)

    def test_high_multiplicity(self):
        c = zc.ContourSpec(center=0j, radius=1.5)
        assert zc.winding_number(lambda k: k ** 5, c) == 5

    def test_partition_consistency(self):
        # winding over a box equals the sum over a 2x2 partition of it
        f = lambda k: (k - (0.3 + 0.7j)) * (k - (-0.5 + 1.3j)) ** 2 * np.exp(k)
        box = (-1.0, 1.0, 0.2, 1.8)
        total = zc._winding_box(f, box)
        xm, ym = 0.1, 1.05   # deliberately off-center split
        parts = [(-1.0, xm, 0.2, ym), (xm, 1.0, 0.2, ym),
                 (-1.0, xm, ym, 1.8), (xm, 1.0, ym, 1.8)]
        assert total == sum(zc._winding_box(f, b) for b in parts) == 3

    def test_near_contour_loop_not_aliased(self):
        # a zero just off the contour bends the image through a tight loop;
        # the midpoint probes must keep the count exact
        c = zc.ContourSpec(center=0j, radius=1.0, n_samples_initial=16)
        for eps in (3e-2, 1e-2):
            assert zc.winding_number(lambda k: k - (1.0 + eps) * 1j, c) == 0
            assert zc.winding_number(lambda k: k - (1.0 - eps) * 1j, c) == 1

    def test_zero_pair_near_edge_not_aliased(self):
        # a pair of zeros 0.003 off an edge sampled 0.42 apart: its 2 pi
        # loop falls between samples, and both half steps of every arc
        # stay below pi/2, unless the sampling condition forces refinement
        f = lambda k: (k - (0.003 + 3.778j)) * (k - (0.003 + 3.780j))
        assert zc._winding_box(f, (0.0, 0.35, 0.125, 4.285), 10, 14) == 2
        assert zc._winding_box(f, (-0.356, 0.0, 0.125, 4.285), 10, 14) == 0

    def test_breadth_first_probes_each_point_once(self):
        # the sweeps probe exactly the points the depth-first loop probes,
        # each once, and sum the same phase steps in the same order
        f = lambda k: (k - (0.003 + 3.778j)) * (k - (0.003 + 3.780j))
        for box, w in (((0.0, 0.35, 0.125, 4.285), 2), ((-0.356, 0.0, 0.125, 4.285), 0)):
            calls, ref_calls = [], []
            gamma = _rectangle(box)
            total, _ = zc._phase_track(lambda k: calls.append(k) or f(k), gamma, 40, 14)
            ref = _depth_first_phase(lambda k: ref_calls.append(k) or f(k), gamma, 40, 14)
            assert len(calls) == len(set(calls)) == len(set(ref_calls))
            assert set(calls) == set(ref_calls)
            assert total == ref
            assert round(total / (2.0 * math.pi)) == w

    def test_batched_memo_calls_fn_once_per_sweep(self):
        batches = []
        fn = zc._Memo(lambda ks: batches.append(len(ks)) or ks - 0.5j, batched=True)
        c = zc.ContourSpec(center=0j, radius=1.0, n_samples_initial=16)
        assert zc.winding_number(fn, c) == 1
        assert batches[:2] == [17, 16]       # the initial samples, then every midpoint

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0)])
    def test_non_finite_sample_fails_fast(self, bad):
        calls = []

        def f(k):
            calls.append(k)
            return bad if k.real > 0.5 else k - 0.1j
        c = zc.ContourSpec(center=0j, radius=1.0, n_samples_initial=16)
        with pytest.raises(NonConvergent, match="non-finite value .* at contour sample k=1"):
            zc.winding_number(f, c)
        assert len(calls) == 17             # the initial samples only: no arc was refined


class TestJensen:
    def test_constant_function(self):
        jr = zc.jensen_bound(lambda z: 2.5 + 0j, 0j, 2.0, 1.0)
        assert jr.rhs == pytest.approx(0.0, abs=1e-12)
        assert jr.n_bound == pytest.approx(0.0, abs=1e-12)

    def test_classical_one_zero_identity(self):
        # fn = (z - a)/R0: mean of ln|fn| on |z| = rho is ln(rho/R0)
        a = 0.3 + 0.2j
        jr = zc.jensen_bound(lambda z: (z - a) / 5.0, 0j, 2.0, 0.8)
        assert jr.rhs == pytest.approx(math.log(2.0 / abs(a)), rel=1e-9)
        assert jr.n_bound >= 1.0
        assert jr.converged

    def test_center_zero_rejected(self):
        with pytest.raises(CenterIsZero):
            zc.jensen_bound(lambda z: z, 0j, 2.0, 1.0)

    def test_rho_ordering_rejected(self):
        with pytest.raises(ValueError):
            zc.jensen_bound(lambda z: z + 4, 0j, 1.0, 2.0)

    def test_bound_dominates_winding_polynomial(self):
        f = lambda z: (z - 0.2j - 0.1) * (z + 0.3 - 0.2j) / 10.0
        inner = 0.7
        jr = zc.jensen_bound(f, 0j, 2.5, inner)
        w = zc.winding_number(f, zc.ContourSpec(center=0j, radius=inner))
        assert w == 2
        assert jr.n_bound >= w


class TestLocateZeros:
    def test_two_simple_zeros(self):
        f = lambda k: (k - (1 + 2j)) * (k - (-1 + 1j))
        res = zc.locate_zeros(f, (-2, 2, 0.5, 3), 1e-3)
        assert res.winding == 2
        assert len(res.zeros) == 2
        assert abs(res.zeros[0].k - (-1 + 1j)) < 1e-8
        assert abs(res.zeros[1].k - (1 + 2j)) < 1e-8
        assert all(z.multiplicity == 1 for z in res.zeros)

    def test_entire_function_no_zeros(self):
        res = zc.locate_zeros(lambda k: np.exp(k), (-2, 2, 0.5, 3), 1e-3)
        assert res.winding == 0 and res.zeros == []

    def test_double_zero_cluster(self):
        f = lambda k: (k - (0.5 + 1.5j)) ** 2
        res = zc.locate_zeros(f, (-2, 2, 0.5, 3), 1e-3)
        assert res.winding == 2
        assert len(res.zeros) == 1
        z = res.zeros[0]
        assert z.multiplicity == 2
        assert abs(z.k - (0.5 + 1.5j)) < 2e-3

    def test_polished_residual_small(self):
        f = lambda k: (k - (0.4 + 1.1j)) * np.exp(0.3 * k) * 2.0
        res = zc.locate_zeros(f, (-2, 2, 0.5, 3), 1e-3)
        scale = abs(f(complex(0, 1.8)))
        assert abs(f(res.zeros[0].k)) < 1e-6 * scale

    def test_lambda_field(self):
        f = lambda k: k - (0.5 + 0.5j)
        res = zc.locate_zeros(f, (0, 1, 0.1, 1), 1e-3)
        z = res.zeros[0]
        assert z.lam == pytest.approx(z.k * z.k, rel=1e-12)

    def test_count_consistency_flag(self):
        f = lambda k: (k - (0.5 + 1.5j)) * (k - (0.50002 + 1.50002j))
        res = zc.locate_zeros(f, (-2, 2, 0.5, 3), 1e-4)
        assert res.resolution_flags["count_consistent"]
        assert res.total_multiplicity == 2


class TestSearchRegion:
    def test_region_covers_eigenvalue_momenta(self, bump_unit,
                                              bump_unit_functionals):
        # real V: -Delta+V is self-adjoint, so every eigenvalue lies in
        # [-||V||_inf, 0) and its momentum i sqrt|lambda| on the positive
        # imaginary axis below sqrt(||V||_inf)
        region = zc.default_search_region(bump_unit, bump_unit_functionals, 1.0)
        re0, re1, im0, im1 = region
        assert re0 < 0 < re1
        assert im1 >= math.sqrt(bump_unit_functionals.linf_norm)
        assert 0 < im0 <= 1.0 / 8.0
        # complex V: the momenta fill the numerical range |lambda| <= sqrt2 ||V||_inf
        p = pot.bump_potential(np.exp(1j * np.pi / 6), 1.0)
        fn = pot.measure_functionals(p, 1.0)
        re0, re1, im0, im1 = zc.default_search_region(p, fn, 1.0)
        kmax = math.sqrt(math.sqrt(2.0) * fn.linf_norm)
        assert re1 >= kmax and im1 >= kmax
        assert 0 < im0 <= 1.0 / 8.0
