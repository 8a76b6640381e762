import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import linregress, norm

from spoc import (
    DimensionMismatchError,
    InitialCondition,
    MeasureSizeError,
    SimConfig,
    UpdateSchedule,
    WeightedEmpirical,
    builtin_model,
    convergence_study,
    density_histogram,
    iid_convergence_study,
    kn_second_moment_study,
    path_projection_tk,
    path_space_w2,
    rate_fit,
    reference_run,
    spoc_run,
)
from spoc.rng import replication_stream


# -- rate fits ------------------------------------------------------------------


def test_rate_fit_exact_power_law():
    ns = np.array([10, 20, 40, 80, 160])
    fit = rate_fit(ns, 3.0 / ns)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_noisy_sqrt_law():
    rng = np.random.default_rng(2)
    ns = np.array([2**k for k in range(4, 12)])
    errs = 2.0 / np.sqrt(ns) * np.exp(rng.normal(0, 0.05, size=ns.size))
    fit = rate_fit(ns, errs)
    assert abs(fit.slope - (-0.5)) <= 0.1
    assert fit.stderr < 0.1


def test_rate_fit_constant_series():
    fit = rate_fit([10, 100, 1000], [2.0, 2.0, 2.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_rate_fit_scale_invariance():
    ns = [8, 16, 32, 64]
    errs = [0.5, 0.27, 0.125, 0.07]
    f1 = rate_fit(ns, errs)
    f2 = rate_fit(ns, [7.3 * e for e in errs])
    assert f1.slope == pytest.approx(f2.slope, abs=1e-12)
    assert f2.intercept != f1.intercept


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        rate_fit([1, 2], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate_fit([1, 2, 3], [1.0, -0.5, 0.2])
    with pytest.raises(ValueError):
        rate_fit([5, 5, 5], [1.0, 0.5, 0.2])


def _assert_fit_is_linregress(ns, errs):
    fit = rate_fit(ns, errs)
    res = linregress(np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(errs, dtype=float)))
    got = np.array([fit.slope, fit.intercept, fit.stderr, fit.r_squared])
    want = np.array([res.slope, res.intercept, res.stderr, res.rvalue**2])
    assert got.tobytes() == want.tobytes(), (got, want)


_FITS = st.integers(3, 12).flatmap(lambda k: st.tuples(
    st.lists(st.integers(1, 10**7), min_size=k, max_size=k, unique=True),
    st.lists(st.floats(1e-300, 1e300), min_size=k, max_size=k),
))


@given(_FITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rate_fit_is_linregress_bit_for_bit(points):
    _assert_fit_is_linregress(*points)


@pytest.mark.parametrize("ns, errs", [
    ([10, 100, 1000], [2.0, 2.0, 2.0]),
    ([1, 2, 4, 8, 16], [16.0, 8.0, 4.0, 2.0, 1.0]),
    ([3, 9, 27, 81], [0.5 / 3, 0.5 / 9, 0.5 / 27, 0.5 / 81]),
], ids=["constant", "collinear", "collinear_inexact"])
def test_rate_fit_is_linregress_on_degenerate_series(ns, errs):
    _assert_fit_is_linregress(ns, errs)


# -- iid studies ------------------------------------------------------------------


def test_iid_unsquared_w2_rate_near_half():
    # for the uniform-weight schedule, E[W_2] to N(0,1) decays ~ n^{-1/2};
    # (the squared distance itself decays ~ 1/n up to log-log factors in 1-d)
    ns = [2**k for k in range(7, 13)]
    table, fit = iid_convergence_study(
        UpdateSchedule.harmonic(10**5), ns, replications=20, seed=77, squared=False
    )
    assert -0.65 <= fit.slope <= -0.35


def test_iid_squared_w2_within_theory_envelope():
    # Monte-Carlo error of the weighted empirical measure is controlled by
    # theta_n^{1/2}; the squared distance must decay at least that fast
    ns = [2**k for k in range(7, 13)]
    table, fit = iid_convergence_study(
        UpdateSchedule.harmonic(10**5), ns, replications=20, seed=78, squared=True
    )
    assert fit.slope <= -0.35  # bound direction only
    est = np.asarray(table.estimates())
    envelope = est[0] * np.sqrt(ns[0]) / np.sqrt(ns)
    assert np.all(est <= envelope * 1.5)


def test_iid_default_quantile_is_the_standard_normal():
    args = (UpdateSchedule.harmonic(10**4), [64, 256, 1024], 3, 11)
    default, _ = iid_convergence_study(*args)
    explicit, _ = iid_convergence_study(*args, quantile_fn=norm.ppf)
    assert default.per_replication.tobytes() == explicit.per_replication.tobytes()
    # the default is ndtri, the function that norm.ppf calls: equal on the 4096-node grid
    u = (np.arange(4096) + 0.5) / 4096
    assert ndtri(u).tobytes() == norm.ppf(u).tobytes()


def test_iid_geometric_plateau():
    # slowly-plateauing theta: the squared distance stops improving
    sched = UpdateSchedule.geometric(0.9, 800)
    table, fit = iid_convergence_study(sched, [50, 200, 800], replications=40,
                                       seed=5, squared=True)
    est = table.estimates()
    assert est[-1] > 0.02  # plateau bounded away from zero
    assert fit.slope > -0.35  # visibly not decaying at the alpha-rate


def test_kn_second_moment_matches_theta():
    sched = UpdateSchedule.geometric(0.9, 800)
    out = kn_second_moment_study(sched, [50, 200, 800], replications=2000, seed=11)
    for est, se, th in zip(out["estimate"], out["stderr"], out["theta"]):
        assert abs(est - th) <= 3.0 * se
    # plateau bounded away from zero; value frozen from a 60-digit
    # direct weight-sum computation of sum(w^2)/(sum w)^2
    assert out["theta"][-1] == pytest.approx(0.027066692675387223, rel=1e-12)
    assert out["theta"][-1] > 0.025


def test_kn_second_moment_harmonic():
    out = kn_second_moment_study(UpdateSchedule.harmonic(1000), [10, 100, 1000],
                                 replications=3000, seed=13)
    for est, se, n in zip(out["estimate"], out["stderr"], (10, 100, 1000)):
        assert abs(est - 1.0 / n) <= 3.0 * se


# -- SDE-mode studies -----------------------------------------------------------------


def _study_config(**kw):
    base = dict(
        model=builtin_model("mean_field_ou"),
        schedule=UpdateSchedule.harmonic(10**6),
        initial=InitialCondition.point(1.0),
        T=1.0, M=30, N=4000, seed=303, replications=8,
        measure_backend="summary_only",
    )
    base.update(kw)
    return SimConfig(**base)


def test_convergence_study_mean_error_decreases():
    cfg = _study_config()
    table, fit = convergence_study(cfg, [125, 1000, 4000], "mean_abs_err")
    est = table.estimates()
    assert est[-1] < est[0]
    assert fit.slope < -0.2
    # signed error is within 3 CI half-widths of zero at the largest milestone
    run_err = table.per_replication[:, -1]
    assert run_err.mean() <= 3.0 * (table.rows[-1].ci_half_width + 1e-12) + 0.02


def test_convergence_study_second_moment_error():
    cfg = _study_config()
    table, _ = convergence_study(cfg, [125, 1000, 4000], "second_moment_err")
    assert table.estimates()[-1] < table.estimates()[0]


def test_convergence_study_w2_metric_and_classical():
    cfg = _study_config(N=1000, replications=4)
    ref = reference_run(cfg.model, cfg, n_ref=4000)
    t_seq, _ = convergence_study(cfg, [100, 1000], "w2_to_reference", reference=ref)
    t_cls, _ = convergence_study(cfg, [100, 1000], "w2_to_reference", reference=ref,
                                 algorithm="classical_poc")
    assert t_seq.rows[-1].estimate < t_seq.rows[0].estimate
    assert [r.n for r in t_seq.rows] == [r.n for r in t_cls.rows]
    # matched budgets: the two methods land in the same error band
    assert t_cls.rows[-1].estimate < 3 * t_seq.rows[-1].estimate + 0.05


def test_convergence_study_with_surrogate_reference():
    # models without a closed moment system fall back to a classical surrogate;
    # reference moments must be indexable at any grid position
    cfg = _study_config(model=builtin_model("curie_weiss"), N=400, replications=3)
    table, fit = convergence_study(cfg, [50, 150, 400], "mean_abs_err")
    assert len(table.rows) == 3
    assert all(np.isfinite(r.estimate) for r in table.rows)
    t2, _ = convergence_study(cfg, [50, 150, 400], "second_moment_err")
    assert t2.rows[-1].estimate < 1.0


def test_convergence_table_csv(tmp_path):
    cfg = _study_config(N=500, replications=3)
    table, _ = convergence_study(cfg, [50, 200, 500], "mean_abs_err")
    path = tmp_path / "rates.csv"
    table.to_csv(path)
    text = path.read_text().strip().split("\n")
    assert text[0] == "n,err,ci_lo,ci_hi"
    assert len(text) == 4


# -- densities ---------------------------------------------------------------------------


def test_density_dirac_single_bin():
    curve = density_histogram(WeightedEmpirical.dirac(0.0), 10, range=(-1.0, 1.0))
    assert curve.density.max() == pytest.approx(5.0)
    assert int(np.argmax(curve.density)) == 5
    assert np.count_nonzero(curve.density) == 1


def test_density_uniform_grid():
    xs = (np.arange(10000) + 0.5) / 10000
    curve = density_histogram(WeightedEmpirical(xs, np.ones(xs.size)), 20, range=(0.0, 1.0))
    assert np.allclose(curve.density, 1.0, atol=0.05)
    # integrates to one
    assert float(np.sum(curve.density * np.diff(curve.edges))) == pytest.approx(1.0)


def test_density_gaussian_sample_sup_norm():
    rng = np.random.default_rng(40)
    xs = rng.normal(0.0, 2.0 / 3.0, size=10**5)
    curve = density_histogram(WeightedEmpirical(xs, np.ones(xs.size)), 40, range=(-2.0, 2.0))
    ref = norm.pdf(curve.centers, 0.0, 2.0 / 3.0)
    assert np.max(np.abs(curve.density - ref)) < 0.1


def test_density_rejects_multid():
    mu = WeightedEmpirical(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        density_histogram(mu, 10)


# -- path projection -----------------------------------------------------------------------


def test_projection_identity_on_linear_paths():
    times = np.linspace(0.0, 1.0, 33)
    path = 2.0 * times - 0.5
    for k in (1, 2, 4, 8, 32):
        proj = path_projection_tk(path, k, times)
        assert np.allclose(proj, path, atol=1e-12)


def test_projection_full_grid_identity():
    rng = np.random.default_rng(50)
    path = rng.standard_normal((21, 3))
    proj = path_projection_tk(path, 20, np.linspace(0, 1, 21))
    assert np.allclose(proj, path, atol=0)


def test_projection_preserves_node_values():
    rng = np.random.default_rng(51)
    path = rng.standard_normal(33)
    proj = path_projection_tk(path, 4, np.linspace(0, 1, 33))
    assert np.allclose(proj[::8], path[::8], atol=0)


def test_projection_divisibility_and_nearest():
    path = np.zeros(11)
    with pytest.raises(ValueError):
        path_projection_tk(path, 3)
    out = path_projection_tk(path, 3, allow_nearest=True)
    assert out.shape == path.shape
    with pytest.raises(ValueError):
        path_projection_tk(path, 0)


def test_projection_brownian_modulus_rate():
    # RMS L2 distance between a Brownian path and its k-grid projection ~ k^{-1/2}
    m = 1024
    times = np.linspace(0.0, 1.0, m + 1)
    gen = replication_stream(900, 0)
    ks = [8, 16, 32, 64, 128]
    rms = np.zeros(len(ks))
    reps = 40
    for _ in range(reps):
        path = np.concatenate([[0.0], np.cumsum(gen.standard_normal(m))]) / np.sqrt(m)
        for j, k in enumerate(ks):
            proj = path_projection_tk(path, k, times)
            rms[j] += np.trapezoid((path - proj) ** 2, times) / reps
    slope = np.polyfit(np.log(ks), np.log(np.sqrt(rms)), 1)[0]
    assert abs(slope - (-0.5)) < 0.1


# -- path-space distances ---------------------------------------------------------------------


def test_path_space_identical_sets_zero():
    rng = np.random.default_rng(60)
    paths = rng.standard_normal((16, 11, 2))
    times = np.linspace(0, 1, 11)
    assert path_space_w2(paths, paths.copy(), times) == 0.0


def test_path_space_constant_paths_match_point_case():
    times = np.linspace(0.0, 1.0, 7)
    a = np.stack([np.full(7, 0.0), np.full(7, 2.0)])
    b = np.stack([np.full(7, 1.0), np.full(7, 3.0)])
    # brute force over the 2 assignments
    paired = 0.5 * (1.0 + 1.0)
    crossed = 0.5 * (1.0 + 9.0)
    assert path_space_w2(a, b, times) == pytest.approx(min(paired, crossed) ** 0.5, rel=1e-12)


def test_path_space_upper_bounds_identity_pairing():
    rng = np.random.default_rng(61)
    times = np.linspace(0, 1, 9)
    a = rng.standard_normal((24, 9))
    b = a + 0.1 * rng.standard_normal((24, 9))
    w2 = path_space_w2(a, b, times)
    dtv = np.diff(times)
    trap = np.concatenate([[dtv[0] / 2], (dtv[:-1] + dtv[1:]) / 2, [dtv[-1] / 2]])
    ident = np.sqrt(np.mean(np.einsum("m,im->i", trap, (a - b) ** 2)))
    assert w2 <= ident + 1e-12


def test_path_space_input_validation():
    times = np.linspace(0, 1, 5)
    with pytest.raises(DimensionMismatchError):
        path_space_w2(np.zeros((3, 5)), np.zeros((4, 5)), times)
    with pytest.raises(MeasureSizeError):
        path_space_w2(np.zeros((600, 5)), np.zeros((600, 5)), times)


def test_path_space_spoc_vs_reference_shrinks():
    # desk-scale trend check over a doubling of the particle count
    model = builtin_model("mean_field_ou")
    cfg = SimConfig(
        model=model, schedule=UpdateSchedule.harmonic(10**4),
        initial=InitialCondition.point(1.0), T=1.0, M=20, N=64, seed=71,
        replications=3, milestones=(64,), store_paths=True,
        measure_backend="full_atoms",
    )
    run = spoc_run(cfg)
    ref = reference_run(model, cfg, n_ref=64, store_paths=True)
    times = cfg.times()
    small = np.mean([
        path_space_w2(run.paths[r, :16], ref.paths[:16], times) ** 2 for r in range(3)
    ])
    large = np.mean([
        path_space_w2(run.paths[r, :64], ref.paths[:64], times) ** 2 for r in range(3)
    ])
    assert large < small
