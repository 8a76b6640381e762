"""Weighted empirical measures, the recursive update, and Wasserstein distances.

The measure mu_n = mu_{n-1} + alpha_n (delta_x - mu_{n-1}) is a weighted sum of
point masses; atoms and weights are kept explicit.  Distances: exact 1-d W_p via
the quantile (monotone) coupling on merged CDFs, exact discrete transport in any
dimension (min-cost LP on the bipartite atom graph, convex |x-y|^p or concave
f(|x-y|) ground costs), and a sliced estimator for large multi-d instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, MeasureSizeError, NumericsError
from .schedules import UpdateSchedule

PRUNE_EPS = 1e-15           # weights below this are pruned and the mass renormalized


def _canonical_atoms(atoms) -> np.ndarray:
    a = np.asarray(atoms, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise DimensionMismatchError("atoms must be a (k,) or (k, dim) array")
    return a


@dataclass(frozen=True)
class WeightedEmpirical:
    """Atoms + normalized positive weights; immutable after construction.

    Zero / tiny weights (< PRUNE_EPS) are pruned and the remaining mass is
    renormalized, so sum(weights) == 1 up to float rounding.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a = _canonical_atoms(self.atoms)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if a.shape[0] != w.shape[0] or w.shape[0] < 1:
            raise DimensionMismatchError("need len(atoms) == len(weights) >= 1")
        # array methods, not np.any / np.all: every snapshot access runs these
        if (w < 0.0).any():
            raise ValueError("weights must be non-negative")
        if not (np.isfinite(a).all() and np.isfinite(w).all()):
            raise ValueError("atoms and weights must be finite")
        keep = w > PRUNE_EPS
        if not keep.all():
            if not keep.any():
                raise ValueError("all weights vanish after pruning")
            a, w = a[keep], w[keep]
        w = w / w.sum()
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @classmethod
    def dirac(cls, x) -> "WeightedEmpirical":
        a = _canonical_atoms(x)
        if a.shape[0] != 1:
            a = a.reshape(1, -1)
        return cls(atoms=a, weights=np.ones(1))

    @classmethod
    def from_points(cls, points, weights=None) -> "WeightedEmpirical":
        a = _canonical_atoms(points)
        if weights is None:
            weights = np.full(a.shape[0], 1.0 / a.shape[0])
        return cls(atoms=a, weights=weights)

    def update(self, x, alpha: float) -> "WeightedEmpirical":
        return update(self, x, alpha)

    # -- serialization -----------------------------------------------------

    def to_csv(self, path) -> None:
        header = ",".join([f"x{i}" for i in range(self.dim)] + ["weight"])
        data = np.column_stack([self.atoms, self.weights])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path) -> "WeightedEmpirical":
        """A measure read back from to_csv.  It passes the checks of a new
        measure, but weights that are already normalised are kept as stored:
        their sum is 1 only up to rounding, so dividing by it again would move
        some of them by an ulp."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        m = cls(atoms=data[:, :-1], weights=data[:, -1])
        w = data[:, -1].copy()
        if w.shape == m.weights.shape and abs(w.sum() - 1.0) <= w.size * np.finfo(float).eps:
            w.setflags(write=False)
            object.__setattr__(m, "weights", w)
        return m


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient statistics for moment-interaction models: mean vector and
    raw second moment E|X|^2."""

    mean: np.ndarray
    raw_second_moment: float

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "mean", m)
        # Cauchy-Schwarz: E|X|^2 >= |EX|^2, allow float slack
        if self.raw_second_moment < float(m @ m) * (1.0 - 1e-12) - 1e-12:
            raise ValueError("raw_second_moment below |mean|^2 violates Cauchy-Schwarz")


class MeasureAccumulator:
    """Mutable running measure for long update streams.

    Same semantics as iterating WeightedEmpirical.update; weights are pruned
    every 64 updates and defensively renormalized every 1000 updates so
    sum(weights) = 1 survives >= 1e6 steps.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._cap = 1024
        self._atoms = np.empty((self._cap, dim))
        self._w = np.empty(self._cap)
        self._k = 0
        self._count = 0
        self.pruned_mass = 0.0

    def _grow(self):
        self._cap *= 2
        atoms = np.empty((self._cap, self.dim))
        w = np.empty(self._cap)
        atoms[: self._k] = self._atoms[: self._k]
        w[: self._k] = self._w[: self._k]
        self._atoms, self._w = atoms, w

    def update(self, x, alpha: float) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        self._count += 1
        if alpha == 1.0:
            self._k = 0
        else:
            self._w[: self._k] *= 1.0 - alpha
        if self._k == self._cap:
            self._grow()
        self._atoms[self._k] = x
        self._w[self._k] = alpha
        self._k += 1
        if self._count % 64 == 0:
            keep = self._w[: self._k] > PRUNE_EPS
            kept = int(keep.sum())
            if kept < self._k:
                self.pruned_mass += float(self._w[: self._k][~keep].sum())
                self._atoms[:kept] = self._atoms[: self._k][keep]
                self._w[:kept] = self._w[: self._k][keep]
                self._k = kept
        if self._count % 1000 == 0:
            self._w[: self._k] /= self._w[: self._k].sum()

    @property
    def weight_sum(self) -> float:
        return float(self._w[: self._k].sum())

    def snapshot(self) -> WeightedEmpirical:
        return WeightedEmpirical(self._atoms[: self._k].copy(), self._w[: self._k].copy())


def update(mu: WeightedEmpirical, x, alpha: float) -> WeightedEmpirical:
    """mu + alpha*(delta_x - mu): scale existing weights by (1-alpha), append x
    with weight alpha.  alpha = 1 returns exactly delta_x."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    xa = _canonical_atoms(x).reshape(1, -1)
    if xa.shape[1] != mu.dim:
        raise DimensionMismatchError(f"point dim {xa.shape[1]} != measure dim {mu.dim}")
    if alpha == 1.0:
        return WeightedEmpirical.dirac(xa)
    atoms = np.vstack([mu.atoms, xa])
    weights = np.concatenate([mu.weights * (1.0 - alpha), [alpha]])
    return WeightedEmpirical(atoms, weights)


def combine_kn(values: Sequence, schedule: UpdateSchedule):
    """Weighted average s_n of the values under the schedule:
    s_1 = x_1, s_n = s_{n-1} + alpha_n (x_n - s_{n-1})."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    s = combine_kn_running(vals, schedule)[-1]
    return float(s) if vals.ndim == 1 else s


def combine_kn_running(values: Sequence, schedule: UpdateSchedule) -> np.ndarray:
    """All partial weighted averages s_1..s_n (row per step for vector values)."""
    vals = np.asarray(values, dtype=float)
    n = vals.shape[0]
    a = schedule.alphas(n)
    out = np.empty_like(vals)
    s = vals[0].copy() if vals.ndim > 1 else float(vals[0])
    out[0] = s
    for i in range(1, n):
        # alpha = 1 resets the average to the new value exactly
        s = vals[i] if a[i] == 1.0 else s + a[i] * (vals[i] - s)
        out[i] = s
    return out


def moment(mu: WeightedEmpirical, p: int):
    """Weighted raw moment.  p = 1 returns the mean (component-wise; scalar in 1-d);
    p >= 2 returns E|X|^p with the Euclidean norm."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        m = mu.weights @ mu.atoms
        return float(m[0]) if mu.dim == 1 else m
    norms = np.sqrt(np.sum(mu.atoms**2, axis=1))
    return float(mu.weights @ norms**p)


def summary_stats(mu: WeightedEmpirical) -> SummaryStats:
    """Mean vector and raw second moment E|X|^2; moment(mu, p) gives E|X|^p."""
    mean = mu.weights @ mu.atoms
    norms = np.sqrt(np.sum(mu.atoms**2, axis=1))
    second = float(mu.weights @ norms**2)
    return SummaryStats(mean=mean, raw_second_moment=second)


# -- distances --------------------------------------------------------------


def _quantile_coupling_cost(xa, wa, xb, wb, p: float) -> float:
    """Monotone-coupling transport cost sum(seg * |qa - qb|^p) on the merged CDFs.

    Segment representatives are level midpoints, so ties at the cut levels are
    immaterial; sorting is stable with ties broken by atom index.
    """
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    levels = np.union1d(ca[:-1], cb[:-1])
    edges = np.concatenate([[0.0], levels[(levels > 0.0) & (levels < 1.0)], [1.0]])
    seg = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    qa = xa[np.minimum(np.searchsorted(ca, mid, side="left"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mid, side="left"), xb.size - 1)]
    return float(np.sum(seg * np.abs(qa - qb) ** p))


def wasserstein_1d(mu: WeightedEmpirical, nu: WeightedEmpirical, p: float = 2.0) -> float:
    """Exact W_p between 1-d weighted empirical measures via the quantile coupling."""
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatchError("wasserstein_1d requires dim = 1 measures")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    cost = _quantile_coupling_cost(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights, p)
    return cost ** (1.0 / p)


def gaussian_w2_1d(m1: float, s1: float, m2: float, s2: float) -> float:
    """Closed-form W_2 between N(m1, s1^2) and N(m2, s2^2)."""
    if s1 < 0.0 or s2 < 0.0:
        raise ValueError("standard deviations must be >= 0")
    return float(np.hypot(m1 - m2, s1 - s2))


@dataclass(frozen=True)
class GroundCost:
    """Ground-cost descriptor: |x-y|^p ("power", cost returned unrooted) or a
    concave f applied to the Euclidean distance ("concave")."""

    kind: str
    p: float = 2.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("power", "concave"):
            raise ValueError("cost kind must be 'power' or 'concave'")
        if self.kind == "power" and self.p < 1.0:
            raise ValueError("power cost requires p >= 1")
        if self.kind == "concave" and self.fn is None:
            raise ValueError("concave cost requires fn")

    @classmethod
    def power(cls, p: float = 2.0) -> "GroundCost":
        return cls(kind="power", p=float(p))

    @classmethod
    def concave(cls, fn: Callable) -> "GroundCost":
        return cls(kind="concave", fn=fn)

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        from scipy.spatial.distance import cdist

        r = cdist(a, b)
        if self.kind == "power":
            return r**self.p
        return np.asarray(self.fn(r), dtype=float)


def wasserstein_exact(
    mu: WeightedEmpirical,
    nu: WeightedEmpirical,
    cost: GroundCost | None = None,
    max_cost_entries: int = 4_000_000,
) -> float:
    """Exact optimal transport cost between two atom measures.

    Min-cost flow on the bipartite atom graph, solved by the HiGHS dual simplex
    (vertex-exact basic solutions).  For a power cost |x-y|^p this returns the
    cost itself; callers take the p-th root.  Deterministic.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    if mu.dim != nu.dim:
        raise DimensionMismatchError("measures must share a dimension")
    cost = cost or GroundCost.power(2.0)
    na, nb = mu.n_atoms, nu.n_atoms
    if na * nb > max_cost_entries:
        raise MeasureSizeError(
            f"{na} x {nb} cost entries exceed the cap {max_cost_entries}; "
            "use sliced_w2 for instances of this size"
        )
    C = cost.matrix(mu.atoms, nu.atoms)
    # marginal constraints: row sums = mu.weights, column sums = nu.weights
    rows = np.repeat(np.arange(na), nb)
    cols_cells = np.arange(na * nb)
    col_rows = na + np.tile(np.arange(nb), na)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * na * nb),
            (np.concatenate([rows, col_rows]), np.concatenate([cols_cells, cols_cells])),
        ),
        shape=(na + nb, na * nb),
    ).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(C.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise NumericsError(f"transport LP failed: {res.message}")
    return float(res.fun)


def sliced_w2(
    mu: WeightedEmpirical, nu: WeightedEmpirical, n_projections: int, seed: int
) -> float:
    """Sliced W_2: root-mean of squared 1-d W_2 over seeded random unit directions.

    Deterministic given the seed; in dimension 1 this equals wasserstein_1d
    because projections only flip signs.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError("measures must share a dimension")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    gen = np.random.default_rng(seed)
    dirs = gen.standard_normal((n_projections, mu.dim))
    norms = np.sqrt(np.sum(dirs**2, axis=1))
    while np.any(norms < 1e-12):  # essentially unreachable; keeps directions unit
        bad = norms < 1e-12
        dirs[bad] = gen.standard_normal((int(bad.sum()), mu.dim))
        norms = np.sqrt(np.sum(dirs**2, axis=1))
    dirs /= norms[:, None]
    pa = mu.atoms @ dirs.T
    pb = nu.atoms @ dirs.T
    total = 0.0
    for j in range(n_projections):
        total += _quantile_coupling_cost(pa[:, j], mu.weights, pb[:, j], nu.weights, 2.0)
    return float(np.sqrt(total / n_projections))


def w2_quantile_grid(
    mu: WeightedEmpirical, quantile_fn: Callable[[np.ndarray], np.ndarray], n_nodes: int = 4096
) -> float:
    """W_2 between a 1-d atom measure and a law given by its quantile function,
    by the midpoint rule on n_nodes uniform levels (the rate-study oracle)."""
    if mu.dim != 1:
        raise DimensionMismatchError("w2_quantile_grid requires dim = 1")
    u = (np.arange(n_nodes) + 0.5) / n_nodes
    order = np.argsort(mu.atoms[:, 0], kind="stable")
    xs = mu.atoms[order, 0]
    cw = np.cumsum(mu.weights[order])
    q_emp = xs[np.minimum(np.searchsorted(cw, u, side="left"), xs.size - 1)]
    q_ref = np.asarray(quantile_fn(u), dtype=float)
    return float(np.sqrt(np.mean((q_emp - q_ref) ** 2)))
