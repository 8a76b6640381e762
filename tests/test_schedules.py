import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoc import (
    InvalidScheduleError,
    NumericsError,
    SingularScheduleError,
    UpdateSchedule,
    alpha_value,
    decay_product,
    recursive_bound_probe,
    schedule_diagnostics,
    theta_sequence,
    weight_sequence,
)
from spoc.schedules import REGIME_ALPHA_GAMMA, REGIME_PRODUCT_FAST, measure_weights


# -- construction and alpha_value --------------------------------------------


def test_alpha_closed_forms():
    assert alpha_value(UpdateSchedule.harmonic(100), 4) == 0.25
    assert alpha_value(UpdateSchedule.power_law(0.5, 100), 9) == pytest.approx(1 / 3, abs=1e-15)
    assert alpha_value(UpdateSchedule.geometric(0.5, 100), 3) == 0.25
    assert alpha_value(UpdateSchedule.explicit([1.0, 0.5, 0.5]), 3) == 0.5


def test_alpha_one_is_exact():
    for s in (UpdateSchedule.harmonic(10), UpdateSchedule.power_law(0.3, 10),
              UpdateSchedule.geometric(0.9, 10), UpdateSchedule.explicit([1.0, 0.25])):
        assert alpha_value(s, 1) == 1.0


@pytest.mark.parametrize("sched", [
    UpdateSchedule.harmonic(5000),
    UpdateSchedule.power_law(0.1, 5000),
    UpdateSchedule.geometric(0.9, 1000),
    UpdateSchedule.explicit(np.linspace(1.0, 0.01, 500) ** 1.7),
], ids=["harmonic", "power_law", "geometric", "explicit"])
def test_alpha_matches_alphas_bit_for_bit(sched):
    N = sched.max_n
    assert np.array_equal([sched.alpha(n) for n in range(1, N + 1)], sched.alphas(N))


def test_power_law_rounding_to_one_is_a_unit_tail():
    # 2^-r rounds to 1 for r = 1e-17, so every alpha_n = 1 resets the measure
    s = UpdateSchedule.power_law(1e-17, 5)
    assert s.has_unit_tail()
    assert np.array_equal(measure_weights(s, 5)(5), [0.0, 0.0, 0.0, 0.0, 1.0])


def test_alpha_domain_errors():
    s = UpdateSchedule.explicit([1.0, 0.5])
    with pytest.raises(InvalidScheduleError):
        alpha_value(s, 0)
    with pytest.raises(InvalidScheduleError):
        alpha_value(s, 3)


def test_explicit_validation_rejections():
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.explicit([0.9, 0.5])  # alpha_1 != 1
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.explicit([1.0, 0.5, 0.6])  # increasing
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.explicit([1.0, 0.0])  # not strictly positive
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.power_law(1.5)
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.geometric(1.0)
    with pytest.raises(InvalidScheduleError):
        UpdateSchedule.geometric(0.5, max_n=5000)  # underflows to 0


def test_schedule_dict_round_trip():
    for s in (UpdateSchedule.harmonic(50), UpdateSchedule.power_law(0.7, 50),
              UpdateSchedule.geometric(0.8, 50), UpdateSchedule.explicit([1.0, 0.5, 0.25])):
        assert UpdateSchedule.from_dict(s.to_dict()) == s


# -- theta ---------------------------------------------------------------------


def test_theta_harmonic_closed_form():
    # theta_n = 1/n for uniform weights, checked against direct sum w_i = 1
    th = theta_sequence(UpdateSchedule.harmonic(10), 5)
    assert np.allclose(th, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], rtol=0, atol=1e-15)


def test_theta_single_particle():
    assert theta_sequence(UpdateSchedule.explicit([1.0]), 1).tolist() == [1.0]


def test_theta_harmonic_identity_large_n():
    n = 10**6
    th = theta_sequence(UpdateSchedule.harmonic(n), n)
    assert np.max(np.abs(th * np.arange(1, n + 1) - 1.0)) <= 1e-12


def test_theta_geometric_plateau():
    # tail-constant surrogate: for alpha -> a*, theta* = a*^2 / (1 - (1-a*)^2)
    th = theta_sequence(UpdateSchedule.geometric(0.5, 100), 100)
    assert th[-1] > 0.1
    assert abs(th[60] - th[-1]) < 1e-12  # plateaued
    a_tail = 0.5**59
    surrogate = a_tail / (2.0 - a_tail)  # fixed point a^2/(1-(1-a)^2) simplified
    assert surrogate < th[-1]  # the plateau dominates the tail surrogate


def test_theta_matches_direct_weight_sums():
    for s in (UpdateSchedule.power_law(0.5, 400), UpdateSchedule.geometric(0.7, 80),
              UpdateSchedule.explicit([1.0, 0.8, 0.5, 0.5, 0.3, 0.2])):
        n = min(s.max_n, 300)
        w = weight_sequence(s, n)
        direct = np.cumsum(w**2) / np.cumsum(w) ** 2
        assert np.allclose(theta_sequence(s, n), direct, rtol=1e-10)


def test_theta_in_unit_interval():
    th = theta_sequence(UpdateSchedule.power_law(0.3, 2000), 2000)
    assert np.all(th > 0) and np.all(th <= 1.0)


# -- weights --------------------------------------------------------------------


def test_weights_harmonic_all_ones():
    w = weight_sequence(UpdateSchedule.harmonic(10), 4)
    assert np.allclose(w, 1.0, rtol=1e-12)


def test_weights_power_law_two_terms():
    w = weight_sequence(UpdateSchedule.power_law(0.5, 10), 2)
    a2 = 2**-0.5
    assert w[0] == 1.0
    assert w[1] == pytest.approx(a2 / (1 - a2), rel=1e-14)


def test_weights_single():
    assert weight_sequence(UpdateSchedule.geometric(0.9, 10), 1).tolist() == [1.0]


def test_weight_reconstruction_invariant():
    for s in (UpdateSchedule.harmonic(5000), UpdateSchedule.power_law(0.4, 5000),
              UpdateSchedule.geometric(0.6, 100)):
        n = min(s.max_n, 2000)
        w = weight_sequence(s, n)
        rec = w / np.cumsum(w)
        assert np.max(np.abs(rec - s.alphas(n)) / s.alphas(n)) <= 1e-12


def test_weights_singular_schedule_rejected():
    s = UpdateSchedule.explicit([1.0, 1.0, 0.5])  # legal for simulation
    with pytest.raises(SingularScheduleError):
        weight_sequence(s, 3)


def test_weights_overflow_guard():
    with pytest.raises(NumericsError):
        weight_sequence(UpdateSchedule.power_law(0.5, 10**6), 200_000)


# -- decay product ---------------------------------------------------------------


def test_decay_product_hand_values():
    h = UpdateSchedule.harmonic(10)
    assert decay_product(h, 0.5, 2) == pytest.approx(0.375, rel=1e-12)
    # guard skips i=1,2 where delta*alpha_i >= 1
    assert decay_product(h, 2.0, 3) == pytest.approx(1 / 3, rel=1e-12)


def test_decay_product_harmonic_slope():
    # prod(1 - delta/i) ~ C n^{-delta} by log-sum comparison with the harmonic series
    ns = [2**k for k in range(10, 15)]
    vals = [decay_product(UpdateSchedule.harmonic(ns[-1]), 0.5, n) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope - (-0.5)) <= 0.02


def test_decay_product_monotone():
    s = UpdateSchedule.power_law(0.5, 500)
    vals = [decay_product(s, 0.8, n) for n in range(1, 500, 25)]
    assert np.all(np.diff(vals) <= 0)
    deltas = np.linspace(0.05, 0.95, 10)
    in_delta = [decay_product(s, d, 300) for d in deltas]
    assert np.all(np.diff(in_delta) <= 0)
    assert all(0.0 < v <= 1.0 for v in vals)


# -- diagnostics -----------------------------------------------------------------


def test_diagnostics_power_law():
    d = schedule_diagnostics(UpdateSchedule.power_law(0.5, 10**4), gamma=0.5, window=100)
    assert d.abar_est == pytest.approx(0.0, abs=0.01)
    assert d.regime == REGIME_ALPHA_GAMMA
    assert d.aunder_est <= d.abar_est


def test_diagnostics_harmonic():
    d = schedule_diagnostics(UpdateSchedule.harmonic(10**4), gamma=0.5, window=100)
    assert d.abar_est == pytest.approx(1.0, abs=1e-3)
    assert d.aunder_est == pytest.approx(1.0, abs=1e-3)
    assert d.regime == REGIME_ALPHA_GAMMA


def test_diagnostics_geometric_fast_product():
    d = schedule_diagnostics(UpdateSchedule.geometric(0.5, 200), gamma=0.5, window=20)
    assert d.alpha_inf_est < 1e-30
    assert d.abar_est > 2.0
    assert d.regime == REGIME_PRODUCT_FAST


def test_diagnostics_window_invariance():
    # truncating max_n keeps the regime as long as the window stays in the tail
    d1 = schedule_diagnostics(UpdateSchedule.harmonic(10**5), gamma=0.5, window=50)
    d2 = schedule_diagnostics(UpdateSchedule.harmonic(10**4), gamma=0.5, window=50)
    assert d1.regime == d2.regime


# -- recursive bound probe --------------------------------------------------------


def test_probe_borderline_log_growth():
    # alpha_n = beta_n = 1/n with eps = 1 on the guarded tail (start at 1/2):
    # n*s_n - ln n stays bounded, the sharp borderline behavior s_n ~ ln(n)/n
    n_hi = 10**5
    seq = 1.0 / np.arange(2, n_hi + 2)
    probe = recursive_bound_probe(seq, seq, eps=1.0, s0=1.0)
    ns = np.arange(2, n_hi + 2)
    ratio = probe.s * ns / np.log(ns)
    window = ratio[(ns >= 10**3) & (ns <= 10**5)]
    assert window.max() / window.min() < 1.25
    assert 0.5 < window.min() and window.max() < 2.0


def test_probe_dominated_case_bounded_by_b():
    # beta_{n+1}/alpha_n -> 1/2 < 1: s_n <= C B_n
    n_hi = 10**5
    alpha = 1.0 / np.arange(1, n_hi + 1)
    beta = alpha / 2.0
    probe = recursive_bound_probe(alpha, beta, eps=0.5, s0=1.0)
    assert np.isfinite(probe.ratio_to_B).all()
    assert probe.ratio_to_B.max() < 50.0


def test_probe_zero_drive():
    probe = recursive_bound_probe([0.5, 0.4, 0.3], [0.5, 0.4, 0.3], eps=1.0, s0=0.0, b0=0.0)
    assert np.all(probe.s == 0.0)


def test_probe_feasibility_errors():
    with pytest.raises(InvalidScheduleError):
        recursive_bound_probe([1.0, 0.5], [0.5, 0.5], eps=1.0, s0=0.0)
    with pytest.raises(InvalidScheduleError):
        recursive_bound_probe([0.5], [0.5, 0.5], eps=1.0, s0=0.0)


# -- property-based invariants ------------------------------------------------------


@st.composite
def explicit_schedules(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    decrements = draw(
        st.lists(st.floats(0.0, 0.3, allow_nan=False), min_size=n - 1, max_size=n - 1)
    )
    vals = [1.0]
    for d in decrements:
        vals.append(max(vals[-1] * (1.0 - d), 1e-6))
    return UpdateSchedule.explicit(vals)


@given(explicit_schedules())
@settings(max_examples=60, deadline=None)
def test_property_theta_and_weight_consistency(sched):
    n = len(sched.values)
    th = theta_sequence(sched, n)
    assert np.all(th > 0.0) and np.all(th <= 1.0 + 1e-15)
    if not sched.has_unit_tail():
        w = weight_sequence(sched, n)
        # theta_k = sum w_i^2 / (sum w_i)^2 over i <= k is scale-free; scaling
        # each prefix by its largest weight keeps w_i^2 from overflowing
        direct = np.array([np.sum(v**2) / np.sum(v) ** 2
                           for v in (w[:k] / w[:k].max() for k in range(1, n + 1))])
        assert np.allclose(th, direct, rtol=1e-10)
        rec = w / np.cumsum(w)
        assert np.allclose(rec, sched.alphas(n), rtol=1e-12)
