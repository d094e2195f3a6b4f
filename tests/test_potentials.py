"""Potential families, functional measurement, and decay validation."""

import math

import numpy as np
import pytest

from eigenbound import grids
from eigenbound import potentials as pot
from eigenbound.errors import DivergentWeightedNorm, HypothesisViolated

# frozen oracle values for the unit bump (v0=1, a=1), computed with a
# high-order 1-D radial quadrature at 30+ digits before the build
BUMP_L1 = 1.1990039070192139
BUMP_KATO = 2.5362243222551922
BUMP_L2SQ = 0.7101083148896928
BUMP_LINF = 1.0
BUMP_GRAD_LINF = 2.1703570857103387
BUMP_A1 = 1.235394937256106      # A(1) = sup |V| e^{|x|}
BUMP_B1 = 2.1142682556275828     # B(1) = int |V| e^{|x|}


def test_zero_potential_all_functionals_vanish():
    fn = pot.measure_functionals(pot.zero_potential(), 1.0)
    assert fn.l1_norm == 0.0
    assert fn.l2_norm_sq == 0.0
    assert fn.linf_norm == 0.0
    assert fn.grad_linf_norm == 0.0
    assert fn.kato_constant == 0.0
    assert fn.weighted_sup == 0.0
    assert fn.weighted_l1 == 0.0


def test_bump_functionals_match_radial_oracle(bump_unit_functionals):
    fn = bump_unit_functionals
    assert fn.l1_norm == pytest.approx(BUMP_L1, rel=1e-6)
    assert fn.l2_norm_sq == pytest.approx(BUMP_L2SQ, rel=1e-6)
    assert fn.linf_norm == pytest.approx(BUMP_LINF, rel=1e-6)
    assert fn.grad_linf_norm == pytest.approx(BUMP_GRAD_LINF, rel=1e-5)
    assert fn.weighted_sup == pytest.approx(BUMP_A1, rel=1e-6)
    assert fn.weighted_l1 == pytest.approx(BUMP_B1, rel=1e-6)
    assert fn.support_diameter == 2.0


def test_radial_kato_attained_at_center(bump_unit_functionals):
    # for radial |V| the Kato sup sits at the origin: 4 pi int r |V| dr
    assert bump_unit_functionals.kato_constant == pytest.approx(BUMP_KATO, rel=1e-5)


def test_kato_translation_covariant():
    p0 = pot.bump_potential(1.0, 1.0)
    p1 = pot.bump_potential(1.0, 1.0, center=(0.7, -0.4, 1.1))
    f0 = pot.measure_functionals(p0, 1.0)
    f1 = pot.measure_functionals(p1, 1.0)
    assert f1.kato_constant == pytest.approx(f0.kato_constant, rel=1e-5)


def test_scaling_linearity():
    p1 = pot.bump_potential(1.0, 1.0)
    p3 = pot.bump_potential(3.0, 1.0)
    f1 = pot.measure_functionals(p1, 1.0)
    f3 = pot.measure_functionals(p3, 1.0)
    for attr in ("l1_norm", "linf_norm", "kato_constant", "weighted_sup",
                 "weighted_l1"):
        assert getattr(f3, attr) == pytest.approx(3.0 * getattr(f1, attr), rel=1e-8)
    assert f3.l2_norm_sq == pytest.approx(9.0 * f1.l2_norm_sq, rel=1e-8)


def test_weighted_l1_monotone_in_eps(mollified_exp):
    vals = [pot.measure_functionals(mollified_exp, e).weighted_l1
            for e in (0.2, 0.4, 0.6)]
    assert vals[0] < vals[1] < vals[2]


def test_weighted_norms_dominate_unweighted(bump_unit_functionals,
                                            mollified_exp_functionals):
    for fn in (bump_unit_functionals, mollified_exp_functionals):
        assert fn.weighted_sup >= fn.linf_norm * (1 - 1e-12)
        assert fn.weighted_l1 >= fn.l1_norm * (1 - 1e-9)


def test_divergent_weighted_norm_rejected(mollified_exp):
    with pytest.raises(DivergentWeightedNorm):
        pot.measure_functionals(mollified_exp, 1.0)   # weight rate == decay rate
    with pytest.raises(DivergentWeightedNorm):
        pot.measure_functionals(mollified_exp, 1.3)


@pytest.mark.parametrize("eps", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("p", [
    pot.bump_potential(-3.0, 1.0), pot.gaussian_potential(-2.0, 0.7),
    pot.screened_coulomb_potential(-37.0, 1.0, 0.25, 0.05),
    pot.tabulated_potential(np.linspace(0.0, 2.0, 9),
                            [1.0, 0.8, 0.3, -0.2, -0.5, -0.4, -0.2, -0.05, 0.0])],
    ids=["bump", "gaussian", "screened", "tabulated-sign-change"])
def test_radial_weighted_l1_matches_quad(p, eps):
    # scipy's adaptive quad on the same peak-scaled integrand, peak as breakpoint
    from scipy import integrate
    profile, r_hi = p.radial_profile, p.truncation_radius
    log_g = lambda r: (math.log(4.0 * math.pi * r * r * abs(profile(np.array([r]))[0]))
                       + eps * r if r > 0 and profile(np.array([r]))[0] != 0 else -math.inf)
    r = np.linspace(0.0, r_hi, 4097)
    lg = [log_g(x) for x in r]
    i = int(np.argmax(lg))
    val = integrate.quad(lambda x: math.exp(log_g(x) - lg[i]), 0.0, r_hi, points=[r[i]],
                         limit=200, epsabs=0.0, epsrel=1e-12)[0]
    b, err = pot._radial_weighted_l1(profile, eps, r_hi)
    assert b == pytest.approx(math.exp(lg[i]) * val, rel=1e-11)
    assert 0.0 <= err <= 1e-10


def test_compact_support_vanishes_outside(bump_unit):
    dirs, _ = grids.angular_rule(26)
    for r in (1.0, 1.2, 5.0):
        assert np.all(bump_unit.value_fn(r * dirs) == 0.0)
        assert np.all(bump_unit.grad_fn(r * dirs) == 0.0)


def test_gradient_consistent_with_values():
    h = 1e-5
    for p in (pot.bump_potential(1.0 + 0.5j, 1.3),
              pot.mollified_exponential_potential(0.7, 1.2),
              pot.gaussian_potential(0.9, 0.8),
              pot.screened_coulomb_potential(1.1, 1.0)):
        pts = grids.ball_sample(0.8 * p.truncation_radius, 40, p.center, seed=3)
        grad = p.grad_fn(pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (p.value_fn(pts + e) - p.value_fn(pts - e)) / (2 * h)
            scale = np.maximum(np.abs(grad[:, axis]), 1e-8)
            mask = np.abs(p.value_fn(pts)) > 1e-7
            assert np.all(np.abs(fd - grad[:, axis])[mask] / scale[mask] < 1e-5)


def test_decay_hypothesis_mollified_exponential():
    p = pot.mollified_exponential_potential(0.5, 1.0)
    rep = pot.validate_decay_hypothesis(p)
    assert rep.passed
    assert rep.max_value_ratio <= 1 + 1e-9
    assert rep.max_grad_ratio <= 1 + 1e-9


def test_decay_hypothesis_underdeclared_amp_violates():
    good = pot.mollified_exponential_potential(0.5, 1.0)
    bad = pot.Potential(good.value_fn, good.grad_fn,
                        pot.ExponentialDecay(1.0, 0.25),   # half the true peak
                        good.truncation_radius, good.center, good.family,
                        good.params)
    with pytest.raises(HypothesisViolated):
        pot.validate_decay_hypothesis(bad)


def test_decay_hypothesis_compact_under_valid_envelope():
    bump = pot.bump_potential(1.0, 1.0)
    # sup |V| = 1, sup |grad V| ~ 2.171: amp must cover both V and grad/eps
    declared = pot.Potential(bump.value_fn, bump.grad_fn,
                             pot.ExponentialDecay(1.0, 3.0 * math.e),
                             bump.truncation_radius, bump.center,
                             bump.family, bump.params)
    rep = pot.validate_decay_hypothesis(declared)
    assert rep.passed


def test_screened_and_gaussian_envelopes_self_consistent():
    for p in (pot.screened_coulomb_potential(2.0, 1.0),
              pot.gaussian_potential(1.5, 1.1)):
        rep = pot.validate_decay_hypothesis(p)
        assert rep.passed


def test_tabulated_profile_roundtrip():
    r = np.linspace(0.0, 2.0, 400)
    vals = (1.0 - 0.5j) * np.exp(-3.0 * r * r)
    p = pot.tabulated_potential(r, vals)
    pts = np.array([[0.3, 0.2, -0.1], [0.0, 0.0, 0.9]])
    rr = np.linalg.norm(pts, axis=1)
    expect = (1.0 - 0.5j) * np.exp(-3.0 * rr * rr)
    assert np.allclose(p.value_fn(pts), expect, rtol=1e-6, atol=1e-8)
    assert p.is_compact and p.truncation_radius == 2.0


def test_quadrature_error_estimate_reported(bump_unit_functionals):
    assert 0.0 <= bump_unit_functionals.quadrature_error_estimate < 1e-6
