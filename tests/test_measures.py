import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from spoc import (
    DimensionMismatchError,
    GroundCost,
    MeasureSizeError,
    SlicedReference,
    SummaryStats,
    UpdateSchedule,
    WeightedEmpirical,
    combine_kn,
    combine_kn_running,
    gaussian_w2_1d,
    moment,
    sliced_w2,
    update,
    w2_quantile_grid,
    wasserstein_1d,
    wasserstein_exact,
    weight_sequence,
)
from spoc.measures import PRUNE_EPS, _coupling_cost, _sorted_cdfs
from spoc.schedules import measure_weights

RNG = np.random.default_rng(12345)


def random_measure(n, dim=1, rng=RNG):
    return WeightedEmpirical(rng.standard_normal((n, dim)), rng.random(n) + 0.05)


def uniform(points):
    """Equal weights 1/k on the k points."""
    return WeightedEmpirical(points, np.full(len(points), 1.0 / len(points)))


# -- construction and update ---------------------------------------------------


def test_construction_normalizes_and_prunes():
    mu = WeightedEmpirical([0.0, 1.0, 2.0], [2.0, 2.0, 1e-18])
    assert mu.n_atoms == 2
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        WeightedEmpirical([0.0], [-1.0])
    with pytest.raises(DimensionMismatchError):
        WeightedEmpirical([[0.0, 1.0]], [0.5, 0.5])


def test_update_alpha_one_is_dirac():
    mu = update(WeightedEmpirical.dirac(0.0), 1.0, 1.0)
    assert mu.n_atoms == 1
    assert mu.atoms[0, 0] == 1.0
    assert mu.weights[0] == 1.0


def test_update_half():
    mu = update(WeightedEmpirical.dirac(0.0), 1.0, 0.5)
    assert np.allclose(np.sort(mu.atoms[:, 0]), [0.0, 1.0])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_update_harmonic_recovers_uniform():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(200)
    mu = WeightedEmpirical.dirac(xs[0])
    for n in range(2, 201):
        mu = update(mu, xs[n - 1], 1.0 / n)
    assert np.allclose(mu.weights, 1.0 / 200, atol=1e-14)
    assert np.allclose(np.sort(mu.atoms[:, 0]), np.sort(xs), atol=0)


def test_update_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        update(WeightedEmpirical.dirac([0.0, 0.0]), 1.0, 0.5)


@pytest.mark.parametrize("sched", [
    UpdateSchedule.harmonic(200),
    UpdateSchedule.power_law(0.6, 200),
    UpdateSchedule.geometric(0.7, 60),
    UpdateSchedule.explicit([1.0, 1.0, 1.0] + list(np.linspace(0.5, 0.05, 40))),
], ids=["harmonic", "power_law", "geometric", "unit_tail"])
def test_update_fold_matches_measure_weights(sched):
    # the fold of the paper's definition, one atom at a time, against the
    # closed-form snapshot weights that the drivers use
    N = sched.max_n
    atoms = np.random.default_rng(N).standard_normal((N, 2))
    alphas = sched.alphas(N)
    weights = measure_weights(sched, N)
    mu = WeightedEmpirical.dirac(atoms[0])
    for k in range(1, N + 1):
        if k > 1:
            mu = update(mu, atoms[k - 1], alphas[k - 1])
        snap = WeightedEmpirical(atoms[:k], weights(k))
        assert np.array_equal(mu.atoms, snap.atoms), k
        assert np.max(np.abs(mu.weights - snap.weights) / snap.weights) <= 1e-12, k


# -- K_n ------------------------------------------------------------------------


def test_kn_constant_fixed_point():
    assert combine_kn(np.full(100, 2.5), UpdateSchedule.harmonic(200)) == 2.5


def test_kn_harmonic_is_arithmetic_mean():
    xs = np.random.default_rng(3).standard_normal(500)
    s = combine_kn(xs, UpdateSchedule.harmonic(600))
    assert s == pytest.approx(xs.mean(), rel=1e-12)


def test_kn_geometric_matches_direct_weights():
    sched = UpdateSchedule.geometric(0.6, 40)
    xs = np.random.default_rng(4).standard_normal(30)
    w = weight_sequence(sched, 30)
    direct = float(w @ xs / w.sum())
    assert combine_kn(xs, sched) == pytest.approx(direct, rel=1e-12)
    running = combine_kn_running(xs, sched)
    assert running[-1] == pytest.approx(direct, rel=1e-12)
    assert running[0] == xs[0]


def test_kn_vector_values():
    xs = np.random.default_rng(5).standard_normal((50, 3))
    s = combine_kn(xs, UpdateSchedule.harmonic(60))
    assert np.allclose(s, xs.mean(axis=0), rtol=1e-12)


# -- moments ----------------------------------------------------------------------


def test_moment_examples():
    assert moment(WeightedEmpirical.dirac(3.0), 2) == 9.0
    mu = WeightedEmpirical([-1.0, 1.0], [0.5, 0.5])
    assert moment(mu, 1) == 0.0


def test_moment_matches_brute_force():
    mu = random_measure(20, dim=3)
    norms = np.sqrt((mu.atoms**2).sum(axis=1))
    for p in (2, 3, 4):
        assert moment(mu, p) == pytest.approx(float(mu.weights @ norms**p), rel=1e-12)


def test_summary_stats_cauchy_schwarz():
    mu = random_measure(50, dim=2)
    s = SummaryStats(mean=moment(mu, 1), raw_second_moment=moment(mu, 2))
    assert s.raw_second_moment >= float(s.mean @ s.mean) - 1e-12
    with pytest.raises(ValueError):
        SummaryStats(mean=np.array([2.0]), raw_second_moment=1.0)


# -- 1-d Wasserstein ----------------------------------------------------------------


def test_w2_diracs():
    assert wasserstein_1d(WeightedEmpirical.dirac(0.0), WeightedEmpirical.dirac(1.0), 2) == 1.0


def test_w2_two_point_brute_force():
    # only two couplings exist; the monotone one is optimal
    mu = WeightedEmpirical([0.0, 2.0], [0.5, 0.5])
    nu = WeightedEmpirical([1.0, 3.0], [0.5, 0.5])
    paired = 0.5 * (1.0 + 1.0)
    crossed = 0.5 * (9.0 + 1.0)
    assert wasserstein_1d(mu, nu, 2) == pytest.approx(min(paired, crossed) ** 0.5, rel=1e-14)


def test_w2_gaussian_samples_approach_closed_form():
    rng = np.random.default_rng(42)
    n = 10**4
    mu = uniform(rng.standard_normal(n))
    nu = uniform(rng.standard_normal(n) + 1.0)
    assert abs(wasserstein_1d(mu, nu, 2) - gaussian_w2_1d(0, 1, 1, 1)) < 0.05


def test_w2_unequal_weights_vs_resampled_uniform():
    # a weighted measure equals its atom-duplicated uniform version
    mu = WeightedEmpirical([0.0, 1.0], [0.25, 0.75])
    mu_dup = uniform([0.0, 1.0, 1.0, 1.0])
    nu = random_measure(7)
    assert wasserstein_1d(mu, nu, 2) == pytest.approx(wasserstein_1d(mu_dup, nu, 2), rel=1e-12)


def test_w1d_symmetry_identity_triangle():
    for _ in range(25):
        a, b, c = random_measure(9), random_measure(13), random_measure(5)
        dab = wasserstein_1d(a, b, 2)
        assert wasserstein_1d(b, a, 2) == pytest.approx(dab, rel=1e-12)
        assert wasserstein_1d(a, a, 2) == 0.0
        assert dab <= wasserstein_1d(a, c, 2) + wasserstein_1d(c, b, 2) + 1e-9


def test_gaussian_w2_closed_forms():
    assert gaussian_w2_1d(0, 1, 0, 1) == 0.0
    assert gaussian_w2_1d(0, 1, 1, 1) == 1.0
    assert gaussian_w2_1d(0, 2 / 3, 0, 1 / 3) == pytest.approx(1 / 3, rel=1e-15)


# -- exact transport -----------------------------------------------------------------


def test_exact_self_distance_zero():
    mu = random_measure(12, dim=2)
    assert wasserstein_exact(mu, mu, GroundCost.power(2.0)) <= 1e-12


def test_exact_matches_quantile_coupling_1d():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = random_measure(int(rng.integers(2, 50)), rng=rng)
        nu = random_measure(int(rng.integers(2, 50)), rng=rng)
        cost = wasserstein_exact(mu, nu, GroundCost.power(2.0))
        assert cost**0.5 == pytest.approx(wasserstein_1d(mu, nu, 2.0), rel=1e-9)


def test_exact_concave_two_atom_polytope():
    # 2x2 transport polytope has two vertices; enumerate both
    rng = np.random.default_rng(11)
    for _ in range(20):
        xa, xb = rng.standard_normal(2), rng.standard_normal(2)
        wa = rng.random(2) + 0.1
        wb = rng.random(2) + 0.1
        mu = WeightedEmpirical(xa, wa)
        nu = WeightedEmpirical(xb, wb)
        got = wasserstein_exact(mu, nu, GroundCost.concave(np.sqrt))
        c = np.sqrt(np.abs(mu.atoms[:, :1] - nu.atoms[:, 0][None, :]))
        a, b = mu.weights, nu.weights
        t_lo = max(0.0, a[0] + b[0] - 1.0)
        t_hi = min(a[0], b[0])
        best = np.inf
        for t in (t_lo, t_hi):
            plan = np.array([[t, a[0] - t], [b[0] - t, 1.0 - a[0] - b[0] + t]])
            best = min(best, float((plan * c).sum()))
        assert got == pytest.approx(best, abs=1e-12)


def test_exact_concave_example_points():
    mu = WeightedEmpirical([0.0, 1.0], [0.5, 0.5])
    nu = WeightedEmpirical([0.1, 0.9], [0.5, 0.5])
    got = wasserstein_exact(mu, nu, GroundCost.concave(np.sqrt))
    assert got == pytest.approx(np.sqrt(0.1), rel=1e-12)  # monotone pairing optimal here


def test_exact_size_cap():
    mu = random_measure(40)
    nu = random_measure(40)
    with pytest.raises(MeasureSizeError, match="sliced_w2"):
        wasserstein_exact(mu, nu, max_cost_entries=100)


def test_exact_symmetry_and_triangle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, b, c = (random_measure(6, dim=2, rng=rng) for _ in range(3))
        dab = wasserstein_exact(a, b) ** 0.5
        dba = wasserstein_exact(b, a) ** 0.5
        assert dab == pytest.approx(dba, rel=1e-9)
        dac = wasserstein_exact(a, c) ** 0.5
        dcb = wasserstein_exact(c, b) ** 0.5
        assert dab <= dac + dcb + 1e-9


# -- sliced -----------------------------------------------------------------------


def test_sliced_self_zero():
    mu = random_measure(30, dim=3)
    assert sliced_w2(mu, mu, 16, seed=5) == 0.0


def test_sliced_dim1_equals_exact():
    mu, nu = random_measure(15), random_measure(9)
    w = wasserstein_1d(mu, nu, 2)
    for seed in (1, 2, 3):
        assert sliced_w2(mu, nu, 8, seed=seed) == pytest.approx(w, rel=1e-12)


def test_sliced_translation_scaling():
    # translated identical clouds: squared sliced distance = mean <t,u>^2 -> |t|^2/3
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((40, 3))
    t = np.array([1.0, -2.0, 0.5])
    mu = uniform(pts)
    nu = uniform(pts + t)
    est = sliced_w2(mu, nu, 2000, seed=99) ** 2
    target = float(t @ t) / 3.0
    # Monte-Carlo oracle over fresh directions
    u = rng.standard_normal((10**5, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    mc = float(np.mean((u @ t) ** 2))
    assert abs(mc - target) < 0.01 * target
    assert abs(est - target) < 0.1 * target


def test_sliced_deterministic_given_seed():
    mu, nu = random_measure(20, dim=2), random_measure(25, dim=2)
    assert sliced_w2(mu, nu, 32, seed=7) == sliced_w2(mu, nu, 32, seed=7)
    assert sliced_w2(mu, nu, 32, seed=7) != sliced_w2(mu, nu, 32, seed=8)


def test_sliced_reference_equals_plain_call():
    # equal (harmonic) weights, 600 against 6000 atoms: some cumulative levels
    # of the two sides coincide and are merged into one cut level
    rng = np.random.default_rng(31)
    mu = uniform(rng.standard_normal((600, 3)))
    nu = uniform(1.2 * rng.standard_normal((6000, 3)))
    for seed in (3, 4):
        ref = SlicedReference(nu, 64, seed)
        assert sliced_w2(mu, ref, 64, seed) == sliced_w2(mu, nu, 64, seed)
    with pytest.raises(ValueError, match="seed"):
        sliced_w2(mu, ref, 64, seed + 1)
    with pytest.raises(ValueError, match="projections"):
        sliced_w2(mu, ref, 32, seed)
    with pytest.raises(DimensionMismatchError):
        sliced_w2(random_measure(5, dim=2), ref, 64, seed)


def test_sorted_cdfs_equal_per_column_sorts():
    rng = np.random.default_rng(8)
    points = rng.integers(-4, 4, (300, 16)).astype(float)  # many ties
    weights = rng.random(300) + 0.01
    atoms, cum = _sorted_cdfs(points, weights)
    for j in range(16):
        order = np.argsort(points[:, j], kind="stable")
        assert np.array_equal(atoms[j], points[order, j])
        assert np.array_equal(cum[j], np.cumsum(weights[order]))


@pytest.mark.parametrize("k", [1, 2, 500])
def test_sorted_cdfs_is_the_stable_order_on_tied_and_untied_rows(k):
    # one call mixes rows without ties, which keep the fast sort, and rows
    # with ties, which are sorted again
    rng = np.random.default_rng(k)
    draws = rng.standard_normal(k)
    signed_zeros = np.where(rng.random(k) < 0.5, 0.0, -0.0)
    signed_zeros[rng.random(k) < 0.2] = 1.0
    rounded = np.round(rng.standard_normal(k), 1)
    columns = [draws, rounded, signed_zeros, np.full(k, 2.5), rng.standard_normal(k),
               rounded, draws, np.full(k, -0.0), signed_zeros]
    points = np.column_stack(columns)
    weights = rng.random(k) + 0.01
    atoms, cum = _sorted_cdfs(points, weights)
    assert atoms.shape == cum.shape == (len(columns), k)
    for j, column in enumerate(columns):
        order = np.argsort(column, kind="stable")
        assert np.array_equal(atoms[j], column[order])
        assert np.array_equal(np.signbit(atoms[j]), np.signbit(column[order]))
        assert np.array_equal(cum[j], np.cumsum(weights[order]))


def _searched_coupling_cost(xa, ca, xb, cb, p):
    """The coupling cost with each side's quantile index found by searchsorted."""
    levels = np.union1d(ca[:-1], cb[:-1])
    edges = np.concatenate([[0.0], levels[(levels > 0.0) & (levels < 1.0)], [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    qa = xa[np.minimum(np.searchsorted(ca, mid, side="left"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mid, side="left"), xb.size - 1)]
    return float(np.sum(np.diff(edges) * np.abs(qa - qb) ** p))


@pytest.mark.parametrize("sizes, kinds", [
    ((600, 6000), ("equal", "equal")),     # midpoints that round onto a level
    ((1, 1), ("equal", "equal")),
    ((1, 7), ("random", "random")),
    ((40, 25), ("near_prune", "random")),
    ((30, 90), ("integer", "unnormalised")),
])
def test_coupling_cost_equals_searched_indices(sizes, kinds):
    rng = np.random.default_rng(sum(sizes))

    def weights(n, kind):
        return {"equal": np.full(n, 1.0 / n), "random": rng.random(n) + 0.01,
                "near_prune": np.where(rng.random(n) < 0.5, 3e-15, rng.random(n)),
                "integer": rng.integers(1, 4, n).astype(float),
                "unnormalised": np.full(n, 7.3)}[kind]

    sides = []
    for n, kind in zip(sizes, kinds):
        mu = WeightedEmpirical(rng.integers(-3, 3, n).astype(float), weights(n, kind))
        (x,), (c,) = _sorted_cdfs(mu.atoms, mu.weights)
        sides += [x, c]
    for p in (1.0, 2.0, 3.0):
        assert _coupling_cost(*sides, p) == _searched_coupling_cost(*sides, p)


_NEAR_PRUNE = PRUNE_EPS * (1.0 + 1e-6)


@st.composite
def _coupling_side(draw, n=None, weight_kind=None):
    """Sorted atoms and running weight sums of a measure with small integer
    atoms (tied atoms) and weights that are uniform, integer, random, or mixed
    with ones just above PRUNE_EPS (whose sums stall on equal levels and reach
    1 before the last atom)."""
    n = n or draw(st.integers(1, 40))
    kind = weight_kind or draw(st.sampled_from(["uniform", "integer", "random", "near_prune"]))
    if kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif kind == "integer":
        w = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    else:
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        if kind == "near_prune":
            tiny = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            w[np.array(tiny)] = _NEAR_PRUNE
    atoms = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    mu = WeightedEmpirical(atoms, w)
    (x,), (c,) = _sorted_cdfs(mu.atoms, mu.weights)
    return x, c


@st.composite
def _coupling_pairs(draw):
    """Both sides of a coupling, drawn to meet every branch of the merge: levels
    shared by both sides (uniform weights, n dividing N), one-ulp neighbouring
    levels (where a midpoint rounds onto its left edge), equal levels on one
    side, levels that round to 1 or above, single atoms and tiny weights."""
    kind = draw(st.sampled_from(["shared", "ulp", "independent"]))
    if kind == "shared":
        n = draw(st.integers(1, 30))
        a = draw(_coupling_side(n, "uniform"))
        b = draw(_coupling_side(n * draw(st.sampled_from([1, 2, 3, 10])), "uniform"))
    elif kind == "ulp":
        a = draw(_coupling_side())
        # b's levels: a's, each moved by at most one ulp, then some of b's own
        steps = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=a[1].size,
                                       max_size=a[1].size)))
        levels = np.nextafter(a[1], a[1] + steps)
        extra = draw(st.lists(st.floats(1e-3, 1.0), max_size=5))
        cb = np.sort(np.concatenate([levels, extra]))
        xb = np.sort(np.array(draw(st.lists(st.integers(-3, 3), min_size=cb.size,
                                            max_size=cb.size)), dtype=float))
        b = (xb, cb)
    else:
        a, b = draw(_coupling_side()), draw(_coupling_side())
    return (*a, *b) if draw(st.booleans()) else (*b, *a)


@given(_coupling_pairs())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_coupling_cost_property_equals_searched_indices(sides):
    for p in (1.0, 2.0, 3.0):
        assert _coupling_cost(*sides, p) == _searched_coupling_cost(*sides, p)


@given(st.sampled_from([10, 30, 60, 120]), st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_sliced_w2_of_a_harmonic_snapshot_equals_searched_indices(n, seed):
    # the rate study's shape: a harmonic snapshot of n atoms in 3-d against a
    # uniform reference of 10n atoms, 64 projections
    rng = np.random.default_rng(seed)
    snap = WeightedEmpirical(rng.standard_normal((n, 3)),
                             measure_weights(UpdateSchedule.harmonic(), n)(n))
    ref = SlicedReference(uniform(rng.standard_normal((10 * n, 3))), 64, seed)
    atoms, cum = _sorted_cdfs(snap.atoms @ ref.directions.T, snap.weights)
    total = 0.0
    for j in range(64):
        total += _searched_coupling_cost(atoms[j], cum[j], ref.atoms[j], ref.cum_weights[j], 2.0)
    assert sliced_w2(snap, ref, 64, seed) == float(np.sqrt(total / 64))


# -- quantile-grid oracle ------------------------------------------------------------


def test_quantile_grid_dirac_vs_gaussian():
    # W2(delta_0, N(0,1))^2 = 1; the grid estimator converges to it
    mu = WeightedEmpirical.dirac(0.0)
    est = w2_quantile_grid(mu, norm.ppf, 4096)
    assert est**2 == pytest.approx(1.0, rel=5e-3)


def test_quantile_grid_matches_w1d_on_atoms():
    # against a discrete quantile function the estimator ~ exact atom distance
    mu = random_measure(64)
    nu = uniform(np.random.default_rng(31).standard_normal(512))
    order = np.argsort(nu.atoms[:, 0])
    xs, cw = nu.atoms[order, 0], np.cumsum(nu.weights[order])

    def q(u):
        return xs[np.minimum(np.searchsorted(cw, u), xs.size - 1)]

    est = w2_quantile_grid(mu, q, 8192)
    assert est == pytest.approx(wasserstein_1d(mu, nu, 2), rel=2e-2)


@pytest.mark.parametrize("n_nodes", [0, -3])
def test_quantile_grid_rejects_no_nodes(n_nodes):
    with pytest.raises(ValueError, match="n_nodes"):
        w2_quantile_grid(random_measure(8), norm.ppf, n_nodes)


# -- serialization ------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    mu = random_measure(17, dim=3)
    path = tmp_path / "m.csv"
    mu.to_csv(path)
    back = WeightedEmpirical.from_csv(path)
    assert np.allclose(back.atoms, mu.atoms, atol=1e-15)
    assert np.allclose(back.weights, mu.weights, atol=1e-15)
