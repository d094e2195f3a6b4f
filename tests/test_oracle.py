"""Radial partial-wave oracle: Jost values, thresholds, channel counting."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from eigenbound import oracle as orc
from eigenbound import potentials as pot
from eigenbound.errors import (ChannelTruncationUnsafe, NonConvergent, NonpositiveImK,
                               StiffIntegration)

# thresholds of the unit bump well -g*exp(1+1/(r^2-1)) from the pre-build
# zero-energy sweep of the asymptotic growing-component coefficient
# l*u + r*u' at the support edge (independent of the Jost machinery)
BUMP_G_1S = 6.327857
BUMP_G_1P = 26.701409
BUMP_G_2S = 49.753766
BUMP_G_1D = 56.914909

# eigenvalue momenta frozen from log-derivative matching at rtol 1e-12
KAPPA_BUMP3_G1 = 0.21135619          # bump radius 3, g = 1, single s state
KAPPA_BUMP1_G53 = (0.56700733, 5.43916314)   # two s states at g = 53
KAPPA_BUMP1_G53_P = 3.67246977       # p state at g = 53


def _jost_channel(p, l):
    prof = orc._radial_profile(p)
    return orc.RadialProblem(prof, l, orc.ode_range(p))


class TestJostValue:
    def test_free_operator_never_vanishes(self):
        z = pot.zero_potential()
        rp = _jost_channel(z, 0)
        for k in (0.5j, 1 + 1j, -2 + 0.3j, 3j):
            assert abs(orc.jost_like_value(rp, k)) > 1e-3

    def test_requires_upper_half_plane(self):
        rp = _jost_channel(pot.zero_potential(), 0)
        with pytest.raises(NonpositiveImK):
            orc.jost_like_value(rp, 1.0 - 0.1j)

    def test_zero_at_frozen_eigenvalue(self):
        p = pot.bump_potential(-1.0, 3.0)
        rp = _jost_channel(p, 0)
        f_at = abs(orc.jost_like_value(rp, 1j * KAPPA_BUMP3_G1))
        f_off = abs(orc.jost_like_value(rp, 1.1j * KAPPA_BUMP3_G1))
        assert f_at < 1e-5 * f_off

    def test_threshold_bracketing(self):
        # first s bound state of the unit bump appears at g = 6.3279
        below = pot.bump_potential(-BUMP_G_1S * 0.95, 1.0)
        above = pot.bump_potential(-BUMP_G_1S * 1.05, 1.0)
        assert orc.count_eigenvalues_radial(below, 4.0).total == 0
        assert orc.count_eigenvalues_radial(above, 4.0).total == 1

    def test_conjugation_symmetry_real_potential(self):
        p = pot.bump_potential(-8.0, 1.0)
        rp = _jost_channel(p, 0)
        for k in (1 + 0.8j, -0.5 + 1.2j, 2 + 0.1j):
            f1 = orc.jost_like_value(rp, k)
            f2 = orc.jost_like_value(rp, -k.conjugate())
            assert abs(f2) == pytest.approx(abs(f1), rel=1e-7)

    def test_riccati_hankel_l0_closed_form(self):
        for z in (1.5 + 0.5j, 3j, -2 + 1j):
            assert orc.riccati_hankel_plus(0, z) == \
                pytest.approx(-1j * np.exp(1j * z), rel=1e-14)

    def test_riccati_hankel_recurrence(self):
        # z h_l' identity via the Wronskian-free check h_l = P_l e^{iz}
        z = 2.0 + 0.7j
        h0 = orc.riccati_hankel_plus(0, z)
        h1 = orc.riccati_hankel_plus(1, z)
        # explicit l=1 form: -e^{iz}(1 + i/z)
        assert h1 == pytest.approx(-np.exp(1j * z) * (1 + 1j / z), rel=1e-13)
        assert h0 == pytest.approx(-1j * np.exp(1j * z), rel=1e-13)


def _solve_ivp_jost(rp, k, rtol=1e-10):
    """The Jost-like value from one scipy solve_ivp(DOP853) per k."""
    l, r_max = rp.l, rp.r_max
    z0 = k * r_max
    u0 = (1j) ** l * orc._hankel_poly(l, z0)
    du0 = (1j) ** l * k * (orc._hankel_poly(l - 1, z0) - (l / z0) * orc._hankel_poly(l, z0))

    def rhs(r, y):
        u = y[0] + 1j * y[1]
        upp = (l * (l + 1) / (r * r) + rp.profile(np.array([r]))[0] - k * k) * u
        return [y[2], y[3], upp.real, upp.imag]

    sol = solve_ivp(rhs, (r_max, orc._R_MIN), [u0.real, u0.imag, du0.real, du0.imag],
                    method="DOP853", rtol=rtol, atol=1e-40)
    assert sol.status == 0
    u = sol.y[0, -1] + 1j * sol.y[1, -1]
    up = sol.y[2, -1] + 1j * sol.y[3, -1]
    b = (u * (l + 1) * orc._R_MIN ** l - up * orc._R_MIN ** (l + 1)) / (2 * l + 1)
    return b * k ** l * np.exp(1j * k * r_max)


class TestBatch:
    # the m5 well and its oracle contour |k| <= (sqrt(2) 54.5)^{1/2}, Im k >= 5e-3
    M5 = pot.bump_potential(-54.5, 1.0)
    KMAX = math.sqrt(math.sqrt(2.0) * 54.5)
    # criterion 5c's well and the scalar calls of its s-wave bisection:
    # the bracket's ends and a midpoint
    FINE = pot.bump_potential(-10.0, 1.0)
    FINE_KS = np.array([0.5j, 0.8j, 1.2j])

    def _ks(self):
        rim = [self.KMAX * np.exp(1j * t)
               for t in (math.asin(5e-3 / self.KMAX), 1.0, math.pi / 2, 2.5)]
        axis = [1e-3 + 0.5j, 0.01 + 3.0j, 1e-3 + 1.01j * KAPPA_BUMP1_G53[1]]
        return np.array(rim + axis + [-self.KMAX + 5e-3j + 1.0, 2.0 + 0.3j])

    def test_array_equals_scalar_calls(self):
        ks = self._ks()
        for l in (0, 2):
            rp = _jost_channel(self.M5, l)
            batch = orc.jost_like_value(rp, ks.reshape(3, 3))
            assert batch.shape == (3, 3)
            one = np.array([orc.jost_like_value(rp, k) for k in ks])
            assert np.max(np.abs(batch.ravel() - one) / np.abs(one)) < 1e-12
        rp = _jost_channel(self.FINE, 0)
        batch = orc.jost_like_value(rp, self.FINE_KS)
        one = np.array([orc.jost_like_value(rp, k) for k in self.FINE_KS])
        assert np.max(np.abs(batch - one) / np.abs(one)) < 1e-12

    def test_agrees_with_solve_ivp(self):
        ks = self._ks()
        for l in range(4):
            rp = _jost_channel(self.M5, l)
            got = orc.jost_like_value(rp, ks)
            ref = np.array([_solve_ivp_jost(rp, k) for k in ks])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-7, l
        # next to the frozen s state of the radius-3 well, where |f| is small
        rp = _jost_channel(pot.bump_potential(-1.0, 3.0), 0)
        ks = np.array([1.01j, 0.99j, 1e-3 + 1.0j]) * KAPPA_BUMP3_G1
        got = orc.jost_like_value(rp, ks)
        ref = np.array([_solve_ivp_jost(rp, k) for k in ks])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-7
        # criterion 5c's scalar calls
        rp = _jost_channel(self.FINE, 0)
        got = np.array([orc.jost_like_value(rp, k) for k in self.FINE_KS])
        ref = np.array([_solve_ivp_jost(rp, k) for k in self.FINE_KS])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-7

    def test_no_step_crosses_the_support_edge(self):
        # compact wells are seeded at their support edge, where the outgoing
        # data are exact; a step from beyond the edge across the bump's
        # non-analytic onset can be accepted 1.3e-7 off here.  The
        # reference starts 2 further out: the normalized value does not
        # depend on the start radius.
        p = pot.bump_potential(-1.0, 3.0)
        k = 0.01 + 0.2j
        got = orc.jost_like_value(_jost_channel(p, 0), k)
        ref = _solve_ivp_jost(orc.RadialProblem(orc._radial_profile(p), 0, 5.0), k,
                              rtol=1e-13)
        assert abs(got - ref) / abs(ref) < 1e-8

    def test_guards_name_the_k(self):
        rp = _jost_channel(self.M5, 0)
        with pytest.raises(NonpositiveImK, match="k=-1"):
            orc.jost_like_value(rp, np.array([1j, -1.0 - 0.5j]))
        with pytest.raises(StiffIntegration, match="k=0"):
            orc.jost_like_value(rp, np.array([1j, 1000j]))

    def test_one_profile_call_per_step(self):
        # after the two calls that choose the first step, each step asks for
        # V at all of its radii at once: the 11 stage radii past r and r + h
        rp = _jost_channel(self.M5, 1)
        sizes = []

        def profile(r):
            sizes.append(np.size(r))
            return rp.profile(r)

        orc.jost_like_value(dataclasses.replace(rp, profile=profile), 0.5 + 1.0j)
        assert sizes[:2] == [1, 1] and len(sizes) > 10
        assert set(sizes[2:]) == {len(DOP853.B)}

    def test_tableau_is_scipys_to_the_last_bit(self):
        assert orc._A.tobytes() == DOP853.A.tobytes()
        assert orc._B.tobytes() == DOP853.B.tobytes()
        assert orc._C.tobytes() == DOP853.C.tobytes()
        assert orc._E53.tobytes() == np.array([DOP853.E5, DOP853.E3]).tobytes()
        assert orc._ERR_EXP == -1.0 / (DOP853.error_estimator_order + 1)

    def test_family_profile_matches_value_fn(self):
        p = pot.screened_coulomb_potential(-37.0, 1.0, 0.25, 0.05, center=(0.2, 0.0, 0.0))
        r = np.linspace(0.0, 6.0, 50)
        along = p.value_fn(np.asarray(p.center) + r[:, None] * np.array([1.0, 0.0, 0.0]))
        assert orc._radial_profile(p) is p.radial_profile
        assert np.allclose(orc._radial_profile(p)(r), along, rtol=1e-14, atol=0.0)


class TestCounting:
    def test_zero_potential(self):
        rc = orc.count_eigenvalues_radial(pot.zero_potential(), 4.0)
        assert rc.total == 0

    def test_five_state_composition(self):
        p = pot.bump_potential(-53.0, 1.0)
        rc = orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 53.0)
        assert rc.per_channel == {0: 2, 1: 1, 2: 0}
        assert rc.total == 5

    def test_channel_monotone_for_attractive_well(self):
        p = pot.bump_potential(-53.0, 1.0)
        rc = orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 53.0)
        counts = [rc.per_channel[l] for l in sorted(rc.per_channel)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_screened_two_s_states(self):
        p = pot.screened_coulomb_potential(-37.0, 1.0, 0.25, 0.05)
        rc = orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 35.0)
        assert rc.per_channel[0] == 2
        assert rc.total == 2

    def test_complex_coupling_count(self):
        p = pot.bump_potential(-1.0 * np.exp(1j * np.pi / 6), 3.0)
        rc = orc.count_eigenvalues_radial(p, 2.0)
        assert rc.total == 1

    def test_uncertified_phase_raises(self, monkeypatch):
        # a phase change 1 rad off every multiple of 2 pi is not a winding
        # number; it must not be rounded to one
        monkeypatch.setattr(orc, "_phase_track", lambda *a: (2.0 * math.pi + 1.0, 1.0))
        with pytest.raises(NonConvergent, match="channel l=0"):
            orc.count_eigenvalues_radial(pot.bump_potential(-1.0, 3.0), 2.0)

    def test_unsafe_truncation_raises(self):
        p = pot.bump_potential(-53.0, 1.0)
        with pytest.raises(ChannelTruncationUnsafe):
            orc.count_eigenvalues_radial(p, math.sqrt(2.0) * 53.0, l_max=1)

    def test_non_radial_rejected(self):
        base = pot.bump_potential(1.0, 1.0)
        skewed = pot.Potential(
            lambda pts: base.value_fn(pts) * (1.0 + 0.2 * np.atleast_2d(pts)[:, 0]),
            base.grad_fn, base.decay_class, base.truncation_radius,
            base.center, "skewed", {})
        with pytest.raises(ValueError):
            orc.count_eigenvalues_radial(skewed, 2.0)
