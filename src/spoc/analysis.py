"""Convergence-rate studies, reference comparisons, densities, and path-space
Wasserstein machinery.

Milestone errors from one sequential run equal those from separate shorter
runs (same seeds), so a study is one long run per replication.  Confidence
intervals are 90% normal-approximation bands over independent replications.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, MeasureSizeError
from .measures import (
    SlicedReference,
    WeightedEmpirical,
    combine_kn_running,
    sliced_w2,
    w2_quantile_grid,
    wasserstein_1d,
)
from .schedules import UpdateSchedule, measure_weights, theta_sequence
from .simulate import (
    ReferenceSolution,
    SimConfig,
    check_milestones,
    classical_poc_run,
    reference_run,
    spoc_run,
)
from .rng import BlockStream, replication_stream

Z_90 = 1.6448536269514722  # two-sided 90% normal quantile

METRIC_W2 = "w2_to_reference"
METRIC_MEAN = "mean_abs_err"
METRIC_SECOND = "second_moment_err"
METRICS = (METRIC_W2, METRIC_MEAN, METRIC_SECOND)

SLICED_PROJECTIONS = 64
PATH_ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(err) against ln(n)."""

    slope: float
    intercept: float
    stderr: float
    r_squared: float
    ns: tuple[int, ...]
    errs: tuple[float, ...]


def rate_fit(ns: Sequence[int], errs: Sequence[float]) -> RateFit:
    """OLS fit on (ln n, ln err) of >= 3 strictly positive points at two or more
    distinct n, by the arithmetic of scipy's linregress in its order (same bits)."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.size < 3 or ns.min() == ns.max():
        raise ValueError("need at least 3 points at two or more distinct n for a rate fit")
    if np.any(ns <= 0.0) or np.any(errs <= 0.0):
        raise ValueError("rate_fit needs strictly positive inputs")
    x, y = np.log(ns), np.log(errs)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    return RateFit(
        slope=float(slope),
        intercept=float(y.mean() - slope * x.mean()),
        stderr=float(np.sqrt((1 - r**2) * ssym / ssxm / (ns.size - 2))),
        r_squared=float(r**2),
        ns=tuple(int(n) for n in ns),
        errs=tuple(float(e) for e in errs),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    estimate: float
    ci_half_width: float
    replications: int


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-milestone error estimates with 90% confidence half-widths."""

    metric: str
    rows: tuple[ConvergenceRow, ...]
    per_replication: np.ndarray  # (R, len(rows)) raw metric samples

    def ns(self) -> list[int]:
        return [r.n for r in self.rows]

    def estimates(self) -> list[float]:
        return [r.estimate for r in self.rows]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "err", "ci_lo", "ci_hi"])
            for r in self.rows:
                writer.writerow(
                    [r.n, repr(r.estimate), repr(r.estimate - r.ci_half_width),
                     repr(r.estimate + r.ci_half_width)]
                )


def _table_from_samples(metric: str, ns: Sequence[int], samples: np.ndarray) -> ConvergenceTable:
    R = samples.shape[0]
    est = samples.mean(axis=0)
    if R > 1:
        half = Z_90 * samples.std(axis=0, ddof=1) / np.sqrt(R)
    else:
        half = np.zeros_like(est)
    rows = tuple(
        ConvergenceRow(n=int(n), estimate=float(e), ci_half_width=float(h), replications=R)
        for n, e, h in zip(ns, est, half)
    )
    return ConvergenceTable(metric=metric, rows=rows, per_replication=samples)


def _table_fit(table: ConvergenceTable) -> "RateFit | None":
    """The rate fit of a table's milestone means, or None for fewer than 3
    milestones or when a mean error is not positive (it has no logarithm)."""
    means = table.per_replication.mean(axis=0)
    if means.size < 3 or not (means > 0.0).all():
        return None
    return rate_fit(table.ns(), means)


def _w2_samples(snapshots, ref_sample: WeightedEmpirical, seed: int) -> list[float]:
    """W_2 of each snapshot to the reference sample: exact in 1-d, else sliced
    with the seed.  The snapshots share the seed, so the reference side of
    sliced_w2 is prepared once for all of them and freed on return."""
    if ref_sample.dim == 1:
        return [wasserstein_1d(snap, ref_sample, 2.0) for snap in snapshots]
    ref = SlicedReference(ref_sample, SLICED_PROJECTIONS, seed)
    return [sliced_w2(snap, ref, SLICED_PROJECTIONS, seed) for snap in snapshots]


def convergence_study(
    config: SimConfig,
    milestones: Sequence[int],
    metric: str,
    reference: ReferenceSolution | None = None,
    algorithm: str = "spoc",
    workers: int = 1,
) -> tuple[ConvergenceTable, "RateFit | None"]:
    """Milestone errors against a reference, averaged over replications.

    Sequential runs exploit the anytime property (one long run yields every
    milestone); classical runs are recomputed per milestone, which is the whole
    point of the comparison.  Metrics, all at the terminal checkpoint:
    w2_to_reference (W_2 between the milestone snapshot and the reference
    sample measure; callers square it when tabulating squared distances),
    mean_abs_err, second_moment_err.  The fit is None for < 3 milestones or
    when a milestone's mean error is not positive.  A sequential study asks the
    schedule for its largest milestone before the reference is built.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}", key="metric")
    if algorithm not in ("spoc", "classical_poc"):
        raise ConfigError(f"unknown algorithm {algorithm!r} for studies", key="algorithm")
    milestones = tuple(int(n) for n in milestones)
    if algorithm == "spoc":
        config.schedule.alphas(max(milestones))
    if reference is None:
        reference = reference_run(config.model, config)
    term_idx = config.checkpoint_indices[-1]
    ref_mean = reference.mean[term_idx]
    ref_second = float(reference.second[term_idx])
    ref_sample = reference.samples.get(term_idx)
    if metric == METRIC_W2 and ref_sample is None:
        raise ValueError("reference has no sample measure at the terminal checkpoint")

    R = config.replications
    samples = np.zeros((R, len(milestones)))
    backend = "full_atoms" if metric == METRIC_W2 else config.measure_backend
    if algorithm == "spoc":
        cfg = replace(config, N=max(milestones), milestones=milestones, measure_backend=backend)
        runs = repeat(spoc_run(cfg, workers=workers))
    else:  # one run per milestone, each made when its milestone is reached
        runs = (classical_poc_run(replace(config, N=n, milestones=(n,), measure_backend=backend),
                                  workers=workers) for n in milestones)
    for l, (n, run) in enumerate(zip(milestones, runs)):
        i = run.milestone_index(n)
        if metric == METRIC_W2:
            snaps = (run.snapshots[(r, n, term_idx)] for r in range(R))
            samples[:, l] = _w2_samples(snaps, ref_sample, seed=config.seed + l)
        elif metric == METRIC_MEAN:
            samples[:, l] = [np.linalg.norm(run.mean_traj[r, i, -1] - ref_mean) for r in range(R)]
        else:
            samples[:, l] = np.abs(run.second_traj[:, i, -1] - ref_second)

    table = _table_from_samples(metric, milestones, samples)
    return table, _table_fit(table)


def iid_convergence_study(
    schedule: UpdateSchedule,
    milestones: Sequence[int],
    replications: int,
    seed: int,
    quantile_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    n_nodes: int = 4096,
    squared: bool = True,
) -> tuple[ConvergenceTable, "RateFit | None"]:
    """Schedule-weighted empirical measure of direct i.i.d. draws, no dynamics.

    Per replication, n i.i.d. standard draws are folded in with the schedule;
    the metric is W_2 (squared by default) to the reference law via
    quantile-grid integration on n_nodes levels.  quantile_fn is the reference
    law's quantile function; None means the standard normal's (ndtri).
    ConfigError names key "milestones" or "replications" for a bad count.
    """
    milestones = check_milestones(milestones)
    if replications < 1:
        raise ConfigError("need replications >= 1", key="replications")
    if quantile_fn is None:
        from scipy.special import ndtri

        quantile_fn = ndtri

    n_max = max(milestones)
    samples = np.zeros((replications, len(milestones)))
    weights = measure_weights(schedule, n_max)
    for r in range(replications):
        draws = BlockStream(replication_stream(seed, r), 1).take(n_max)[:, 0]
        for l, n in enumerate(milestones):
            w = weights(n)
            mu = WeightedEmpirical(draws[:n], w)
            d = w2_quantile_grid(mu, quantile_fn, n_nodes)
            samples[r, l] = d * d if squared else d
    metric = "w2_sq_to_reference" if squared else "w2_to_reference"
    table = _table_from_samples(metric, milestones, samples)
    return table, _table_fit(table)


def kn_second_moment_study(
    schedule: UpdateSchedule,
    milestones: Sequence[int],
    replications: int,
    seed: int,
) -> dict:
    """Second moment of the schedule-weighted running mean of i.i.d. N(0,1) draws.

    E[xi_n^2] equals theta_n exactly, so slowly-plateauing schedules expose the
    non-convergence of the weighted empirical measure.  Returns per-milestone
    estimates, their Monte-Carlo standard errors, and the theta_n oracle.
    """
    milestones = tuple(int(n) for n in milestones)
    n_max = max(milestones)
    idx = np.asarray(milestones) - 1
    sq = np.zeros((replications, len(milestones)))
    for r in range(replications):
        draws = BlockStream(replication_stream(seed, r), 1).take(n_max)[:, 0]
        xi = combine_kn_running(draws, schedule)
        sq[r] = xi[idx] ** 2
    theta = theta_sequence(schedule, n_max)[idx]
    return {
        "milestones": milestones,
        "estimate": sq.mean(axis=0),
        "stderr": sq.std(axis=0, ddof=1) / np.sqrt(replications),
        "theta": theta,
        "samples": sq,
    }


@dataclass(frozen=True)
class DensityCurve:
    edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "density"])
            for lo, hi, d in zip(self.edges[:-1], self.edges[1:], self.density):
                writer.writerow([repr(float(lo)), repr(float(hi)), repr(float(d))])


def check_density_range(range: tuple[float, float]) -> tuple[float, float]:
    """A histogram range (lo, hi), checked before any measure is made:
    ConfigError names key "range" unless lo < hi, both finite."""
    lo, hi = range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigError(f"range [{lo}, {hi}] needs finite lo < hi", key="range")
    return lo, hi


def density_histogram(
    mu: WeightedEmpirical, bins: int, range: tuple[float, float] | None = None
) -> DensityCurve:
    """Weighted histogram normalized to integrate to 1; deterministic bin edges.

    Without a range the bins span the atoms.  A given range must pass
    check_density_range and hold positive weight, else ConfigError names key
    "range".
    """
    if mu.dim != 1:
        raise DimensionMismatchError("density_histogram requires dim = 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    x = mu.atoms[:, 0]
    if range is None:
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            hi = lo + 1.0
    else:
        lo, hi = check_density_range(range)
        if not mu.weights[(x >= lo) & (x <= hi)].sum() > 0.0:
            raise ConfigError(f"range [{lo}, {hi}] holds no weight of the measure", key="range")
    density, edges = np.histogram(x, bins=bins, range=(lo, hi), weights=mu.weights,
                                  density=True)
    return DensityCurve(edges=edges, density=density)


def path_projection_tk(path: np.ndarray, k: int, times: np.ndarray | None = None,
                       allow_nearest: bool = False) -> np.ndarray:
    """Piecewise-linear projection of a grid path onto the k-cell time grid.

    Node values are preserved exactly; values between projection nodes are
    linear in time.  k must divide the stored resolution unless allow_nearest
    is set, in which case projection nodes snap to the nearest grid node.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = np.asarray(path, dtype=float)
    squeeze = p.ndim == 1
    if squeeze:
        p = p[:, None]
    m = p.shape[0] - 1
    if times is None:
        times = np.linspace(0.0, 1.0, m + 1)
    if m % k != 0 and not allow_nearest:
        raise ValueError(f"k={k} does not divide the grid resolution {m}; "
                         "pass allow_nearest=True to snap nodes")
    node_idx = np.rint(np.arange(k + 1) * (m / k)).astype(int)
    out = np.empty_like(p)
    for d in range(p.shape[1]):
        out[:, d] = np.interp(times, times[node_idx], p[node_idx, d])
    return out[:, 0] if squeeze else out


def path_space_w2(paths_a: np.ndarray, paths_b: np.ndarray,
                  times: np.ndarray) -> float:
    """Exact W_2 between two equal-weight empirical path measures.

    Ground cost between paths is the trapezoidal time integral of the squared
    pointwise distance; the transport problem over equal-count equal-weight
    atom sets is a min-cost assignment.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(paths_a, dtype=float)
    b = np.asarray(paths_b, dtype=float)
    if a.ndim == 2:
        a = a[:, :, None]
    if b.ndim == 2:
        b = b[:, :, None]
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError("path sets must have equal counts")
    if a.shape[1:] != b.shape[1:]:
        raise DimensionMismatchError("path grids/dimensions must agree")
    n = a.shape[0]
    if n > PATH_ASSIGNMENT_CAP:
        raise MeasureSizeError(f"assignment solver capped at {PATH_ASSIGNMENT_CAP} paths")
    times = np.asarray(times, dtype=float)
    dtv = np.diff(times)
    trap = np.concatenate([[dtv[0] / 2], (dtv[:-1] + dtv[1:]) / 2, [dtv[-1] / 2]])
    cost = np.empty((n, n))
    block = max(1, int(2**22 // max(b.size, 1)))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = a[i0:i1, None, :, :] - b[None, :, :, :]
        cost[i0:i1] = np.einsum("m,ijm->ij", trap, np.sum(diff**2, axis=3))
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum() / n))
