"""Weighted empirical measures, the recursive update, and Wasserstein distances.

The measure mu_n = mu_{n-1} + alpha_n (delta_x - mu_{n-1}) is a weighted sum of
point masses; atoms and weights are kept explicit.  Distances: exact 1-d W_p via
the quantile (monotone) coupling on merged CDFs, exact discrete transport in any
dimension (min-cost LP on the bipartite atom graph, convex |x-y|^p or concave
f(|x-y|) ground costs), and a sliced estimator for large multi-d instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, MeasureSizeError, NumericsError
from .schedules import UpdateSchedule

PRUNE_EPS = 1e-15           # weights below this are pruned and the mass renormalized
_EPS = float(np.finfo(float).eps)


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


def update(mu: WeightedEmpirical, x, alpha: float) -> WeightedEmpirical:
    """mu + alpha*(delta_x - mu): scale existing weights by (1-alpha), append x
    with weight alpha.  alpha = 1 returns exactly delta_x.  This is the fold as
    defined; runs take snapshot weights from schedules.measure_weights instead."""
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


# -- distances --------------------------------------------------------------


def _sorted_cdfs(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sort step of the quantile coupling, for every column of points (k, P)
    at once: row j of the first (P, k) result is column j sorted, row j of the
    second the running sum of the weights in that order.

    Every row is sorted with numpy's default (unstable, faster) argsort.  Its
    order differs from the stable order only inside runs of equal values, so
    the rows whose sorted values hold equal neighbours (-0.0 == 0.0 counts)
    are sorted again, together, with the stable kind.  The result is the
    stable order, ties broken by atom index, and so are the running sums:
    one call over all columns equals the per-column stable sorts bit for bit.
    A row with any tie pays for both sorts, so a call whose rows all hold ties
    is slower than the stable sort alone: on a 2-core x86-64 VM, 64 rows of
    6000 draws rounded to 0.01 take about 41 ms against 30 ms, and 64 constant
    rows about 13 ms against 7 ms.  No study draws such rows.
    """
    cols = points.T
    order = np.argsort(cols, axis=1)
    xs = np.take_along_axis(cols, order, axis=1)
    tied = (xs[:, 1:] == xs[:, :-1]).any(axis=1)
    if tied.any():
        sub = cols[tied]
        order[tied] = sub_order = np.argsort(sub, axis=1, kind="stable")
        xs[tied] = np.take_along_axis(sub, sub_order, axis=1)
    cum = weights[order]
    np.cumsum(cum, axis=1, out=cum)
    return xs, cum


def _coupling_cost(xa, ca, xb, cb, p: float) -> float:
    """Monotone-coupling transport cost sum(seg * |qa - qb|^p) on the merged CDFs,
    from sorted atoms xa, xb and their cumulative weights ca, cb (running sums
    of positive weights: every level is positive and each list is sorted).

    The segments are cut at the distinct values of ca[:-1] and cb[:-1] below 1
    and bounded by 0 and 1.  seg is a segment's length, and qa, qb are each
    side's quantile at its midpoint: x[i] for i the number of that side's
    levels below the midpoint, min(searchsorted(c, mid, "left"), c.size - 1).
    As every level is an edge, that is the number at or below the segment's
    left edge, except where the midpoint rounds onto that edge (the segment is
    one float long): there it is the previous segment's.

    The arrays are built in merged order with one search and no sort.  Each
    a-level is placed among the b-levels.  An a-level equal to a b-level is
    no edge of its own but raises qa from that edge on, as a stable merge that
    keeps the last of equal levels counts it.  The b-levels, and qb with them,
    fill the remaining edges through one mask, and qa is one run of x[i] per
    index i.  Equal levels within one side leave empty segments, which are
    dropped.  So the segment array is that of the stable merge of both sides,
    element for element, and its sum, over the same array, is the same float.
    """
    na = int(ca[:-1].searchsorted(1.0))
    nb = int(cb[:-1].searchsorted(1.0))
    la, lb = ca[:na], cb[:nb]
    ka = lb.searchsorted(la)                    # b-levels below each a-level
    free = (cb[ka] != la) | (ka == nb)          # not equal to a b-level
    kf = ka[free]
    n_seg = nb + kf.size + 1
    at_a = kf + np.arange(1, kf.size + 1)       # segments whose left edge is a free a-level
    at_b = np.ones(n_seg, dtype=bool)           # ... is a b-level
    at_b[0] = False
    at_b[at_a] = False
    edges = np.empty(n_seg + 1)
    edges[0], edges[-1] = 0.0, 1.0
    left, right = edges[:-1], edges[1:]
    left[at_b] = lb
    left[at_a] = la[free]
    qb = np.empty(n_seg)
    qb[0] = xb[0]
    qb[at_b] = xb[1 : nb + 1]
    qb[at_a] = xb[kf]
    # a-level i is the left edge of segment starts[i + 1]; from there on qa is xa[i + 1]
    starts = np.concatenate(([0], ka + free.cumsum() - free + 1, [n_seg]))
    qa = xa[: na + 1].repeat(starts[1:] - starts[:-1])
    seg = right - left
    # only a segment one float long (at most eps below 1) has its midpoint on
    # its left edge, and only equal levels on one side give an empty one
    short = np.flatnonzero(seg <= _EPS)
    if short.size and not seg[short].all():
        keep = seg != 0.0
        seg, qa, qb, left, right = seg[keep], qa[keep], qb[keep], left[keep], right[keep]
        short = np.flatnonzero(seg <= _EPS)
    short = short[0.5 * (left[short] + right[short]) == left[short]]
    before = np.maximum(short - 1, 0)
    qa[short] = qa[before]
    qb[short] = qb[before]
    qa -= qb
    np.abs(qa, out=qa)
    qa **= p
    qa *= seg
    return float(qa.sum())


def wasserstein_1d(mu: WeightedEmpirical, nu: WeightedEmpirical, p: float = 2.0) -> float:
    """Exact W_p between 1-d weighted empirical measures via the quantile coupling."""
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatchError("wasserstein_1d requires dim = 1 measures")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    (xa,), (ca,) = _sorted_cdfs(mu.atoms, mu.weights)
    (xb,), (cb,) = _sorted_cdfs(nu.atoms, nu.weights)
    return _coupling_cost(xa, ca, xb, cb, p) ** (1.0 / p)


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


@dataclass(frozen=True, eq=False)
class SlicedReference:
    """The reference side of sliced_w2, prepared once for many calls.

    Holds the seed's unit directions and, per direction, the sorted projected
    atoms of nu (rows of `atoms`) and their cumulative weights (rows of
    `cum_weights`).  Build one when several measures are compared with one
    reference under one seed, as the replications of a convergence-study
    milestone are; sliced_w2(mu, ref, n_projections, seed) then equals
    sliced_w2(mu, nu, n_projections, seed) bit for bit.
    """

    nu: WeightedEmpirical
    n_projections: int
    seed: int
    directions: np.ndarray = field(init=False, repr=False)
    atoms: np.ndarray = field(init=False, repr=False)
    cum_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_projections < 1:
            raise ValueError("n_projections must be >= 1")
        gen = np.random.default_rng(self.seed)
        dirs = gen.standard_normal((self.n_projections, self.nu.dim))
        norms = np.sqrt(np.sum(dirs**2, axis=1))
        while np.any(norms < 1e-12):  # essentially unreachable; keeps directions unit
            bad = norms < 1e-12
            dirs[bad] = gen.standard_normal((int(bad.sum()), self.nu.dim))
            norms = np.sqrt(np.sum(dirs**2, axis=1))
        dirs /= norms[:, None]
        atoms, cum = _sorted_cdfs(self.nu.atoms @ dirs.T, self.nu.weights)
        for name, value in (("directions", dirs), ("atoms", atoms), ("cum_weights", cum)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def sliced_w2(
    mu: WeightedEmpirical, nu: WeightedEmpirical | SlicedReference, n_projections: int,
    seed: int,
) -> float:
    """Sliced W_2: root-mean of squared 1-d W_2 over seeded random unit directions.

    Deterministic given the seed; in dimension 1 this equals wasserstein_1d
    because projections only flip signs.  nu may be a SlicedReference prepared
    with the same n_projections and seed (else ValueError); the result is the
    same bits as for its plain measure, without re-projecting and re-sorting it.
    """
    ref = nu if isinstance(nu, SlicedReference) else SlicedReference(nu, n_projections, seed)
    if (ref.n_projections, ref.seed) != (n_projections, seed):
        raise ValueError(
            f"reference prepared for {ref.n_projections} projections and seed {ref.seed}, "
            f"not {n_projections} and {seed}"
        )
    if mu.dim != ref.nu.dim:
        raise DimensionMismatchError("measures must share a dimension")
    atoms, cum = _sorted_cdfs(mu.atoms @ ref.directions.T, mu.weights)
    total = 0.0
    for j in range(n_projections):
        total += _coupling_cost(atoms[j], cum[j], ref.atoms[j], ref.cum_weights[j], 2.0)
    return float(np.sqrt(total / n_projections))


def w2_quantile_grid(
    mu: WeightedEmpirical, quantile_fn: Callable[[np.ndarray], np.ndarray], n_nodes: int = 4096
) -> float:
    """W_2 between a 1-d atom measure and a law given by its quantile function,
    by the midpoint rule on n_nodes uniform levels (the rate-study oracle)."""
    if mu.dim != 1:
        raise DimensionMismatchError("w2_quantile_grid requires dim = 1")
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    u = (np.arange(n_nodes) + 0.5) / n_nodes
    (xs,), (cw,) = _sorted_cdfs(mu.atoms, mu.weights)
    q_emp = xs[np.minimum(np.searchsorted(cw, u, side="left"), xs.size - 1)]
    q_ref = np.asarray(quantile_fn(u), dtype=float)
    return float(np.sqrt(np.mean((q_emp - q_ref) ** 2)))
