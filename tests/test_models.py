import math

import numpy as np
import pytest
from scipy.stats import norm

from spoc import (
    AssumptionViolationError,
    KappaProfile,
    SummaryStats,
    build_f_from_kappa,
    builtin_model,
    curie_weiss_weak_interaction_check,
)
from spoc.models import INTERACTION_MOMENT, NOISE_MEASURE_DEPENDENT, NOISE_MEASURE_FREE


# -- builtin evaluation --------------------------------------------------------


def test_ou_evaluation_example():
    m = builtin_model("mean_field_ou")
    view = SummaryStats(mean=np.array([1.0]), raw_second_moment=1.0)
    x = np.array([1.0])
    b, s = m.drift(0.0, x, view), m.diffusion(0.0, x, view)
    assert b[0] == -3.0
    assert float(s) == 1.0
    assert m.interaction_form == INTERACTION_MOMENT
    assert m.noise_form == NOISE_MEASURE_DEPENDENT
    assert m.dim == 1


def test_curie_weiss_zero_at_origin():
    m = builtin_model("curie_weiss", {"beta": 1.0, "K": 0.5, "sigma": 1.3})
    view = SummaryStats(mean=np.array([0.0]), raw_second_moment=0.0)
    x = np.array([0.0])
    b, s = m.drift(0.0, x, view), m.diffusion(0.0, x, view)
    assert b[0] == 0.0
    assert float(s) == 1.3
    assert m.noise_form == NOISE_MEASURE_FREE


def test_curie_weiss_drift_formula():
    m = builtin_model("curie_weiss", {"beta": 2.0, "K": -0.5, "sigma": 1.0})
    view = SummaryStats(mean=np.array([0.3]), raw_second_moment=1.0)
    b = m.drift(0.0, np.array([1.5]), view)
    assert b[0] == pytest.approx(-2.0 * (1.5**3 - 1.5) + 2.0 * (-0.5) * 0.3, rel=1e-14)


def test_repulsive3d_at_mean_is_damping_only():
    m = builtin_model("repulsive3d")
    x = np.array([0.4, -0.2, 1.0])
    view = SummaryStats(mean=x.copy(), raw_second_moment=float(x @ x))
    b, s = m.drift(0.0, x, view), m.diffusion(0.0, x, view)
    assert np.allclose(b, -0.1 * x, atol=0)
    assert float(s) == 1.0


def test_repulsive3d_force_direction_and_magnitude():
    m = builtin_model("repulsive3d", {"alpha": 0.1, "beta": 0.1, "sigma": 1.0})
    mean = np.zeros(3)
    x = np.array([2.0, 0.0, 0.0])
    view = SummaryStats(mean=mean, raw_second_moment=0.0)
    b = m.drift(0.0, x, view)
    force = b + 0.1 * x
    assert np.allclose(force, [1.0 / (0.1 + 4.0), 0.0, 0.0], rtol=1e-14)
    # continuity toward the singular point: force magnitude stays bounded
    xs = np.array([[1e-3, 0, 0], [1e-6, 0, 0], [1e-9, 0, 0]])
    bs = m.drift(0.0, xs, view)
    mags = np.linalg.norm(bs + 0.1 * xs, axis=1)
    assert np.all(mags <= 1.0 / 0.1 + 1e-9)


def test_builtin_param_validation():
    with pytest.raises(ValueError):
        builtin_model("nope")
    with pytest.raises(ValueError):
        builtin_model("curie_weiss", {"gamma": 1.0})
    with pytest.raises(ValueError):
        builtin_model("curie_weiss", {"sigma": -1.0})
    with pytest.raises(ValueError):
        builtin_model("mean_field_ou", {"beta": 1.0})
    with pytest.raises(ValueError):
        builtin_model("curie_weiss", {"beta": True, "K": False})  # a bool is no number


def test_builtin_drift_lipschitz_diagnostic():
    # randomized finite-difference ratios stay bounded on a compact box
    rng = np.random.default_rng(17)
    for name, box_l in (("mean_field_ou", 3.0), ("curie_weiss", 2.0)):
        m = builtin_model(name)
        view = SummaryStats(mean=np.array([0.2]), raw_second_moment=1.0)
        x = rng.uniform(-box_l, box_l, size=(200, 1))
        y = x + rng.uniform(-0.1, 0.1, size=(200, 1))
        bx = m.drift(0.0, x, view)
        by = m.drift(0.0, y, view)
        ratio = np.abs(bx - by) / np.maximum(np.abs(x - y), 1e-12)
        assert np.max(ratio) < 50.0


# -- kappa profiles and the concave transform -----------------------------------


def test_kappa_validation():
    with pytest.raises(AssumptionViolationError):
        KappaProfile(fn=lambda r: -np.asarray(r), kappa_inf=-1.0)  # decreasing
    with pytest.raises(AssumptionViolationError):
        KappaProfile.constant(-1.0)
    with pytest.raises(AssumptionViolationError):
        # r*kappa(r) must vanish at 0+
        KappaProfile(fn=lambda r: 1.0 - 1.0 / np.asarray(r), kappa_inf=1.0)


def test_build_f_requires_positive_kappa_inf():
    prof = KappaProfile(fn=lambda r: np.full_like(np.asarray(r, float), 2.0),
                        kappa_inf=2.0, truncation=None)
    build_f_from_kappa(prof, r_max=2.0, n_grid=11)  # fine
    with pytest.raises(AssumptionViolationError):
        bad = KappaProfile(fn=lambda r: np.full_like(np.asarray(r, float), -0.5),
                           kappa_inf=-0.5)
        build_f_from_kappa(bad, r_max=2.0, n_grid=11)


def test_constant_kappa_closed_form():
    for c in (0.5, 1.0, 2.0):
        prof = build_f_from_kappa(KappaProfile.constant(c), r_max=5.0, n_grid=41)
        assert prof.f_prime_0 == pytest.approx(1.0 / c, rel=1e-9)
        pos = prof.grid > 0
        ratio = prof.f[pos] / prof.grid[pos]
        assert np.all(ratio >= 1.0 / c - 1e-9)
        assert np.all(ratio <= prof.f_prime_0 + 1e-9)


def test_f_battery_invariants():
    battery = [KappaProfile.constant(1.0)]
    battery += [KappaProfile.curie_weiss(b) for b in (0.5, 1.0, 2.0)]
    battery += [KappaProfile.curie_weiss(1.0, truncation=2.5)]
    for kappa in battery:
        prof = build_f_from_kappa(kappa, r_max=8.0, n_grid=81)
        prof.validate(kappa)  # raises on any violated invariant
        kv = kappa.evaluate(prof.grid)
        resid = np.abs(2 * prof.f_double_prime - prof.grid * kv * prof.f_prime + prof.grid)
        assert np.all(resid <= 1e-6 * (1.0 + prof.grid))
        assert np.all(prof.f_double_prime <= 1e-10)


def test_curie_weiss_f_prime0_vs_closed_form():
    for beta in (0.5, 1.0, 2.0):
        prof = build_f_from_kappa(KappaProfile.curie_weiss(beta), r_max=6.0, n_grid=25)
        closed = math.sqrt(2 * math.pi * beta * math.exp(beta)) * norm.cdf(math.sqrt(beta)) / beta
        assert prof.f_prime_0 == pytest.approx(closed, rel=1e-6)


def test_truncation_reduces_to_quadratic_when_binding_everywhere():
    # kappa already above the cap: G is the pure quadratic lambda r^2/2
    kappa = KappaProfile(
        fn=lambda r: np.full_like(np.asarray(r, float), 5.0),
        kappa_inf=5.0,
        truncation=1.0,
    )
    prof = build_f_from_kappa(kappa, r_max=4.0, n_grid=21)
    ref = build_f_from_kappa(KappaProfile.constant(1.0), r_max=4.0, n_grid=21)
    assert np.allclose(prof.f_prime, ref.f_prime, rtol=1e-9)


# -- weak interaction -----------------------------------------------------------


def test_weak_interaction_beta1_computed_not_hardcoded():
    res = curie_weiss_weak_interaction_check(1.0, 0.5)
    expected_rhs = math.sqrt(2 * math.pi * math.e) * norm.cdf(1.0)
    assert res.rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert res.rhs_quadrature == pytest.approx(expected_rhs, rel=1e-6)
    assert res.satisfied == (2.0 > expected_rhs)
    assert res.lhs == 2.0
    assert res.eta == 0.5


def test_weak_interaction_zero_and_negative_k():
    assert curie_weiss_weak_interaction_check(1.0, 0.0).satisfied
    res = curie_weiss_weak_interaction_check(1.0, -0.7)
    assert res.satisfied
    assert res.eta == pytest.approx(0.7)


def test_weak_interaction_small_beta_small_k_satisfied():
    res = curie_weiss_weak_interaction_check(0.5, 0.1)
    assert res.lhs == 10.0
    assert res.satisfied == (10.0 > res.rhs)
    assert res.satisfied  # rhs(0.5) ~ 2.29 < 10
