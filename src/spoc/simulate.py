"""Time-discretized particle-system drivers.

Three algorithms over a shared Euler-Maruyama core:

* sequential runs (`spoc_run`): particle n is simulated against the frozen
  measures of particles 1..n-1 and then folded in with rate alpha_n -- adding
  particles never touches existing ones, so milestone snapshots from one long
  run are bit-identical to shorter runs.  Moment-interaction models step one
  anti-diagonal of (particle, grid time) cells per vectorised call;
* batch runs (`batch_spoc_run`): whole batches simulated against the previous
  frozen measure and folded in with the batch empirical average;
* classical mean-field runs (`classical_poc_run`): all N particles advance
  simultaneously against the current empirical measure.

Noise comes from one counter-based stream per (seed, replication), consumed in
global particle order (see rng.py); replications are simulated in lockstep as a
vector axis and may be split across worker processes without changing any bit
of the output.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import time
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BlowUpError, ConfigError, DimensionMismatchError, RunFormatError
from .measures import SummaryStats, WeightedEmpirical
from .models import (
    INTERACTION_FULL,
    INTERACTION_MOMENT,
    NOISE_ADDITIVE_PLUS_FREE,
    ModelSpec,
)
from .rng import BlockStream, block_width, replication_stream, split_blocks
from .schedules import UpdateSchedule, measure_weights

BLOWUP_LIMIT = 1e8
GRID_TOL = 1e-9
# seed offset separating reference/oracle streams from test-run streams
REFERENCE_SEED_XOR = 0x5EED0F5E7
# RK4 steps per grid step of the moment-closure reference curves
_RK4_SUBSTEPS = 10
ALGO_SPOC = "spoc"
ALGO_BATCH = "batch_spoc"
ALGO_CLASSICAL = "classical_poc"

# measure view handed to moment-interaction evaluators (fields broadcast over x)
MomentView = namedtuple("MomentView", ["mean", "raw_second_moment"])

# measure view handed to full-measure evaluators
AtomView = namedtuple("AtomView", ["atoms", "weights"])

RUN_SCHEMA = "spoc-run-v2"
INITIAL_KINDS = ("point", "gaussian")
MEASURE_BACKENDS = ("full_atoms", "summary_only")
_PATHS_MAGIC = b"SPOCPATH"
_ATOMS_MAGIC = b"SPOCATOM"


@dataclass(frozen=True)
class InitialCondition:
    """Initial law mu_0: a deterministic point or an isotropic Gaussian."""

    kind: str
    value: tuple[float, ...] | None = None
    mean: tuple[float, ...] | None = None
    std: float = 1.0

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {self.kind!r}", key="initial.kind")
        if self.kind == "point" and self.value is None:
            raise ConfigError("point initial requires a value", key="initial.value")
        if self.kind == "gaussian" and self.std < 0.0:
            raise ConfigError("gaussian initial requires std >= 0", key="initial.std")

    @classmethod
    def point(cls, x) -> "InitialCondition":
        return cls(kind="point", value=tuple(np.atleast_1d(np.asarray(x, dtype=float))))

    @classmethod
    def gaussian(cls, mean=0.0, std=1.0) -> "InitialCondition":
        return cls(
            kind="gaussian",
            mean=tuple(np.atleast_1d(np.asarray(mean, dtype=float))),
            std=float(std),
        )

    @property
    def needs_noise(self) -> bool:
        return self.kind == "gaussian"

    def mean_vector(self, dim: int) -> np.ndarray:
        base = self.value if self.kind == "point" else self.mean
        m = np.asarray(base if base is not None else 0.0, dtype=float)
        return np.broadcast_to(np.atleast_1d(m), (dim,)).astype(float)

    def second_moment(self, dim: int) -> float:
        m = self.mean_vector(dim)
        extra = 0.0 if self.kind == "point" else dim * self.std**2
        return float(m @ m) + extra

    def from_block(self, z: np.ndarray, dim: int) -> np.ndarray:
        """Map a (..., draws) block of standard normals to initial positions;
        point initials consume no draws (zero-width block)."""
        if self.kind == "point":
            return np.broadcast_to(self.mean_vector(dim), z.shape[:-1] + (dim,)).copy()
        return self.mean_vector(dim) + self.std * z

    def to_dict(self) -> dict:
        if self.kind == "point":
            return {"kind": "point", "value": list(self.value)}
        return {"kind": "gaussian", "mean": list(self.mean or (0.0,)), "std": self.std}

    @classmethod
    def from_dict(cls, d: dict) -> "InitialCondition":
        if d.get("kind") == "point" and d.get("value") is not None:
            return cls.point(d["value"])
        if d.get("kind") == "gaussian":
            return cls.gaussian(d.get("mean", 0.0), d.get("std", 1.0))
        return cls(kind=d.get("kind"))  # names the unknown kind or the missing value


@dataclass(frozen=True)
class SimConfig:
    """Full description of a particle run.

    checkpoints are grid times to snapshot (default: terminal time only), and
    checkpoint_indices their grid indices; milestones are particle counts at
    which the running measure is recorded.
    """

    model: ModelSpec
    schedule: UpdateSchedule
    initial: InitialCondition
    T: float
    M: int
    N: int
    seed: int
    batch_sizes: tuple[int, ...] | None = None
    replications: int = 1
    checkpoints: tuple[float, ...] | None = None
    milestones: tuple[int, ...] | None = None
    measure_backend: str | None = None
    store_paths: bool = False
    checkpoint_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ConfigError("need a finite T > 0", key="T")
        if self.M < 1:
            raise ConfigError("need M >= 1", key="M")
        if self.N < 1:
            raise ConfigError("need N >= 1", key="N")
        if self.replications < 1:
            raise ConfigError("need replications >= 1", key="replications")
        if self.batch_sizes is not None:
            sizes = tuple(int(b) for b in self.batch_sizes)
            if any(b < 1 for b in sizes):
                raise ConfigError("batch sizes must be positive", key="batch_sizes")
            if sum(sizes) != self.N:
                raise ConfigError("batch_sizes must sum to N", key="batch_sizes")
            object.__setattr__(self, "batch_sizes", sizes)
        backend = self.measure_backend
        if backend is None:
            backend = (
                "summary_only"
                if self.model.interaction_form == INTERACTION_MOMENT and not self.store_paths
                else "full_atoms"
            )
            object.__setattr__(self, "measure_backend", backend)
        if self.measure_backend not in MEASURE_BACKENDS:
            raise ConfigError(
                f"unknown measure_backend {self.measure_backend!r}", key="measure_backend"
            )
        if (
            self.model.interaction_form == INTERACTION_FULL
            and self.measure_backend == "summary_only"
        ):
            raise ConfigError(
                "full-measure interaction needs the full_atoms backend", key="measure_backend"
            )
        key = "value" if self.initial.kind == "point" else "mean"
        base = getattr(self.initial, key)
        if base is not None and len(base) not in (1, self.model.dim):
            raise ConfigError(f"initial {key} needs 1 or {self.model.dim} components",
                              key=f"initial.{key}")
        # resolve checkpoint times against the grid
        cps = self.checkpoints if self.checkpoints is not None else (self.T,)
        idx = []
        for c in cps:
            j = int(round(c / self.dt))
            if not (0 <= j <= self.M) or abs(j * self.dt - c) > GRID_TOL * max(1.0, self.T):
                raise ConfigError(f"checkpoint {c} is not a grid time", key="checkpoints")
            idx.append(j)
        if len(set(idx)) != len(idx):
            raise ConfigError("duplicate checkpoints", key="checkpoints")
        object.__setattr__(self, "checkpoints", tuple(float(j * self.dt) for j in idx))
        object.__setattr__(self, "checkpoint_indices", tuple(idx))
        ms = self.milestones if self.milestones is not None else (self.N,)
        ms = tuple(int(n) for n in ms)
        if any(n < 1 or n > self.N for n in ms) or sorted(set(ms)) != list(ms):
            raise ConfigError(
                "milestones must be strictly increasing particle counts <= N", key="milestones"
            )
        object.__setattr__(self, "milestones", ms)
        # schedule must cover N particles
        self.schedule.alphas(self.N)

    @property
    def dt(self) -> float:
        return self.T / self.M

    def times(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.dt

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "schedule": self.schedule.to_dict(),
            "initial": self.initial.to_dict(),
            "T": self.T,
            "M": self.M,
            "N": self.N,
            "seed": self.seed,
            "batch_sizes": list(self.batch_sizes) if self.batch_sizes else None,
            "replications": self.replications,
            "checkpoints": list(self.checkpoints),
            "milestones": list(self.milestones),
            "measure_backend": self.measure_backend,
            "store_paths": self.store_paths,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Inverse of to_dict; a schedule without max_n covers N particles."""
        return cls(
            model=ModelSpec.from_dict(d["model"]),
            schedule=UpdateSchedule.from_dict({"max_n": max(int(d["N"]), 1), **d["schedule"]}),
            initial=InitialCondition.from_dict(d["initial"]),
            T=float(d["T"]),
            M=int(d["M"]),
            N=int(d["N"]),
            seed=int(d["seed"]),
            batch_sizes=tuple(d["batch_sizes"]) if d.get("batch_sizes") else None,
            replications=int(d.get("replications", 1)),
            checkpoints=tuple(d["checkpoints"]) if d.get("checkpoints") else None,
            milestones=tuple(d["milestones"]) if d.get("milestones") else None,
            measure_backend=d.get("measure_backend"),
            store_paths=bool(d.get("store_paths", False)),
        )


@dataclass
class RunResult:
    """Per-replication milestone trajectories and snapshots of one run.

    mean_traj has shape (R, len(milestones), len(checkpoints), dim) and
    second_traj (R, len(milestones), len(checkpoints)); snapshots is a
    read-only RunSnapshots mapping from (replication, milestone_n, grid_index)
    to a measure snapshot, built on access; paths, when stored, is
    (R, N, M+1, dim).  wall_time_s is None for a run read back by load_run.
    """

    config: SimConfig
    algorithm: str
    versions: dict
    milestones: tuple[int, ...]
    mean_traj: np.ndarray
    second_traj: np.ndarray
    snapshots: RunSnapshots
    paths: np.ndarray | None
    wall_time_s: float | None
    n_steps: int

    def milestone_index(self, n: int) -> int:
        return self.milestones.index(n)


@cache
def _scipy_version() -> str:
    # from the package metadata: importing scipy for its version alone would
    # cost a run that never calls it about a second, and each metadata read ~5 ms
    from importlib import metadata

    return metadata.version("scipy")


def _versions() -> dict:
    return {"spoc": __version__, "numpy": np.__version__, "scipy": _scipy_version()}


def _recursive_update(state: np.ndarray, x, alpha) -> None:
    """state <- state + alpha*(x - state), in place; alpha = 1 assigns exactly.
    alpha is a scalar or an array that broadcasts against state.

    Every driver funnels measure updates through here so that degenerate cases
    (batch size 1, milestone reruns) are bit-identical.
    """
    state[...] = np.where(alpha == 1.0, x, state + alpha * (x - state))


def _apply_diffusion(sig, dw: np.ndarray) -> np.ndarray:
    """Apply a diffusion output to noise increments dw of shape (..., dim).

    A trailing (dim, dim) square (constant matrix or one per sample) is applied
    as a matrix; anything else is a scalar field sigma * identity and must
    broadcast against the leading axes of dw.
    """
    sig = np.asarray(sig)
    dim = dw.shape[-1]
    if sig.ndim == 0:
        return sig * dw
    if sig.shape[-2:] == (dim, dim) and sig.ndim in (2, dw.ndim + 1):
        return np.einsum("...ij,...j->...i", sig, dw)
    if sig.ndim == dw.ndim - 1:
        return sig[..., None] * dw
    if sig.ndim == dw.ndim:
        return sig * dw
    raise DimensionMismatchError(f"diffusion output shape {sig.shape} does not fit increments")


def _em_step(model: ModelSpec, t, x: np.ndarray, view, dw: np.ndarray, db, dt: float):
    """One Euler-Maruyama step x + b dt + sigma dW against a measure view; t is
    a float or an array that broadcasts against x[..., :1].

    db holds the measure-free dB increments of the additive-plus-free noise
    form, or is None.  Every driver steps through here, so the floating-point
    order is fixed in one place: the dB term is a separate, last addition.
    """
    b = model.drift(t, x, view)
    s = model.diffusion(t, x, view)
    x = x + np.asarray(b) * dt + _apply_diffusion(s, dw)
    if db is not None:
        x = x + model.additive_amplitude * db
    return x


def _check_finite_path(block: np.ndarray, step0: int, particle0: int, rep_ids) -> None:
    """block: (steps, R, particles, dim), starting at grid step step0 and at
    1-based particle particle0.  Raises BlowUpError for the first bad cell in
    (step, replication, particle) order."""
    if np.abs(block).max() <= BLOWUP_LIMIT:  # a NaN maximum fails this too
        return
    ok = np.isfinite(block).all(axis=3) & (np.abs(block).max(axis=3) <= BLOWUP_LIMIT)
    m, r, p = (int(i) for i in np.argwhere(~ok)[0])
    raise BlowUpError(
        f"particle {particle0 + p} left the stable region at step {step0 + m} "
        f"(replication {rep_ids[r]}): |x| > {BLOWUP_LIMIT:g} or non-finite",
        particle=particle0 + p,
        step=step0 + m,
        replication=rep_ids[r],
    )


def _milestone_weights(config: SimConfig, algorithm: str, milestones) -> list[np.ndarray]:
    """Raw atom weights of each milestone's snapshot measure (see
    schedules.measure_weights); classical runs weigh 1/N."""
    if algorithm == ALGO_CLASSICAL:
        return [np.full(n, 1.0 / n) for n in milestones]
    weights = measure_weights(config.schedule, config.N, config.batch_sizes)
    ks = np.searchsorted(np.cumsum(config.batch_sizes or (1,) * config.N), milestones) + 1
    return [weights(k) for k in ks]  # k batches hold the first n atoms


class RunSnapshots(Mapping):
    """Read-only mapping (replication, milestone n, grid index) -> snapshot.

    A full_atoms run keeps one atom store, atoms_cp of shape (R, N, n_cp, dim),
    and one raw weight vector per milestone: snapshot (r, n, m) is the
    WeightedEmpirical of the first n atoms of replication r at checkpoint m.
    A summary run's snapshots are the SummaryStats of its milestone moments.
    Each access builds a new immutable measure.
    """

    def __init__(self, config: SimConfig, algorithm: str, milestones, mean_traj, second_traj,
                 atoms_cp=None):
        self.atoms_cp = atoms_cp
        if atoms_cp is not None:
            self._weights = _milestone_weights(config, algorithm, milestones)
        self._mean, self._second = mean_traj, second_traj
        self._pos = {
            (r, n, int(mi)): (r, l, c)
            for l, n in enumerate(milestones)
            for r in range(mean_traj.shape[0])
            for c, mi in enumerate(config.checkpoint_indices)
        }

    def __getitem__(self, key):
        r, l, c = self._pos[key]
        if self.atoms_cp is None:
            return SummaryStats(mean=self._mean[r, l, c].copy(),
                                raw_second_moment=float(self._second[r, l, c]))
        w = self._weights[l]
        return WeightedEmpirical(self.atoms_cp[r, : w.size, c].copy(), w.copy())

    def __iter__(self):
        return iter(self._pos)

    def __len__(self) -> int:
        return len(self._pos)


def _chunk_reps(replications: int, workers: int):
    chunks = np.array_split(np.arange(replications), max(1, min(workers, replications)))
    return [c.tolist() for c in chunks]


def _merge_chunks(parts: list[dict]) -> dict:
    """Join chunk outputs along the replication axis; _chunk_reps yields
    contiguous, increasing ranges, so concatenation restores 0..R-1."""
    merged = {k: None if v is None else np.concatenate([p[k] for p in parts])
              for k, v in parts[0].items() if k != "n_steps"}
    merged["n_steps"] = sum(p["n_steps"] for p in parts)
    return merged


# -- core drivers ------------------------------------------------------------


def _wavefront_chunk(config: SimConfig, rep_ids: list[int], ref_moments=None) -> dict:
    """Simulate one replication chunk of a sequential run of a moment-interaction
    model, one anti-diagonal of (particle, grid time) cells at a time.

    Cell (k, j) steps particle k from t_j to t_{j+1} against mu_{k-1}(t_j),
    then folds x_k(t_j) into mu(t_j).  It reads only x_k(t_j) and
    mu_{k-1}(t_j), which absorbed x_{k-1}(t_j) on the previous anti-diagonal,
    so all cells with k + j = w are independent (Lamport's hyperplane method).
    Wave w steps its lanes in one _em_step call and then, after that wave's
    reads, folds each lane's input state.  A run takes N + M waves instead of
    N*M particle steps; every cell does the same elementwise arithmetic as a
    particle-by-particle loop, so the bits are the same.  Replications evolve
    in lockstep along a vector axis, so chunking is bit-neutral.

    When ref_moments is given (coupled runs), each particle has a companion
    driven by the reference moment curves with the same increments, stepped
    by a second _em_step call per wave.
    """
    model, init = config.model, config.initial
    dim, M, N, dt = model.dim, config.M, config.N, config.dt
    Rc = len(rep_ids)
    times = config.times()[:, None, None]  # broadcasts against x[..., :1]
    alphas = config.schedule.alphas(N)
    cp_idx = np.asarray(config.checkpoint_indices, dtype=int)
    n_cp = cp_idx.size
    milestones = config.milestones
    milestone_set = {n: l for l, n in enumerate(milestones)}
    full_atoms = config.measure_backend == "full_atoms"
    dual = model.noise_form == NOISE_ADDITIVE_PLUS_FREE
    coupled = ref_moments is not None

    width = block_width(dim, M, init.needs_noise, dual)
    streams = [BlockStream(replication_stream(config.seed, r), width) for r in rep_ids]

    # Row w % S of xs is wave w's anti-diagonal x_{w-j}(t_j), j = 0..M, so the
    # path of particle k is xs[(k + j) % S, j].  Row w % S2 of dws holds the
    # increments of the cells (w - j, j).  Noise is taken S particles at a time.
    S, S2 = M + 1, 2 * (M + 1)
    steps, cols = np.arange(M), np.arange(M + 1)
    prows = (np.arange(S)[:, None] + cols) % S  # rows of xs on particle k's path
    xs = np.empty((S, M + 1, Rc, dim))
    dws = np.empty((S2, M, Rc, dim))
    dbs = np.empty_like(dws) if dual else None

    mean = np.zeros((M + 1, Rc, dim))
    second = np.zeros((M + 1, Rc))
    atoms_cp = np.zeros((Rc, N, n_cp, dim)) if full_atoms else None
    paths = np.zeros((Rc, N, M + 1, dim)) if config.store_paths else None

    mean_traj = np.zeros((Rc, len(milestones), n_cp, dim))
    second_traj = np.zeros((Rc, len(milestones), n_cp))
    # mu_n(t_j) is complete once particle n folds at t_j, on wave n - 1 + j
    captures = {}
    for l, n in enumerate(milestones):
        for ci, mi in enumerate(cp_idx):
            captures.setdefault(n - 1 + int(mi), []).append((l, ci, mi))
    if coupled:
        ys = np.empty_like(xs)
        ref_mean = ref_moments[0][:, None, :]  # (M+1, 1, dim)
        ref_second = ref_moments[1][:, None]  # (M+1, 1)
        gap_kn = np.zeros((Rc, len(milestones)))
        gap_last = np.zeros((Rc, len(milestones)))
        kn_gap_state = np.zeros(Rc)
        trap_w = np.full((M + 1, 1), dt)
        trap_w[0] = trap_w[-1] = 0.5 * dt

    # overflow on a diverging path is caught by the finite check at completion
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(N + M):
            cur, nxt = w % S, (w + 1) % S
            if w < N:  # particle index w (0-based) enters at t_0
                if cur == 0:
                    c = min(S, N - w)
                    rows = (w + np.arange(c)[:, None] + steps) % S2
                    blocks = np.stack([s.take(c) for s in streams])  # (Rc, c, width)
                    z0, dw, db = split_blocks(blocks, dim, M, init.needs_noise, dual, dt)
                    dws[rows, steps] = dw.transpose(1, 2, 0, 3)
                    if dual:
                        dbs[rows, steps] = db.transpose(1, 2, 0, 3)
                    x0s = init.from_block(z0, dim)
                at = (cols, cols) if w == 0 else (cur, 0)  # the first particle stays put
                xs[at] = x0s[:, cur]
                if coupled:
                    ys[at] = x0s[:, cur]

            # lanes j in [lo, hi] hold particles k = w - j; all but j = M and
            # the frozen first particle (j = w) step
            lo, hi = max(0, w - N + 1), min(w, M)
            if hi > lo:
                t, dw = times[lo:hi], dws[w % S2, lo:hi]
                db = dbs[w % S2, lo:hi] if dual else None
                view = MomentView(mean[lo:hi], second[lo:hi])
                xs[nxt, lo + 1 : hi + 1] = _em_step(model, t, xs[cur, lo:hi], view, dw, db, dt)
                if coupled:
                    view = MomentView(ref_mean[lo:hi], ref_second[lo:hi])
                    ys[nxt, lo + 1 : hi + 1] = _em_step(model, t, ys[cur, lo:hi], view,
                                                        dw, db, dt)

            # fold the lanes' input states, lane j with the rate of particle w - j
            x = xs[cur, lo : hi + 1]
            a = alphas[w - hi : w - lo + 1][::-1, None]
            _recursive_update(mean[lo : hi + 1], x, a[..., None])
            _recursive_update(second[lo : hi + 1], (x**2).sum(axis=2), a)
            for l, ci, mi in captures.get(w, ()):
                mean_traj[:, l, ci] = mean[mi]
                second_traj[:, l, ci] = second[mi]

            k = w - M  # particle index k (0-based) has its whole path now
            if k < 0:
                continue
            prow = prows[k % S]
            xp = xs[prow, cols]  # (M+1, Rc, dim)
            if k > 0:
                _check_finite_path(xp[:, :, None], 0, k + 1, rep_ids)
            if coupled:
                diff = xp - ys[prow, cols]
                # a running sum over the grid: its bits do not depend on the chunk size
                gap = np.cumsum(trap_w * np.sum(diff**2, axis=2), axis=0)[-1] / config.T
                _recursive_update(kn_gap_state, gap, alphas[k])
            if full_atoms:
                atoms_cp[:, k] = xp[cp_idx].transpose(1, 0, 2)
            if paths is not None:
                paths[:, k] = xp.transpose(1, 0, 2)
            l = milestone_set.get(k + 1)
            if coupled and l is not None:
                gap_kn[:, l] = kn_gap_state
                gap_last[:, l] = gap

    return {
        "mean_traj": mean_traj,
        "second_traj": second_traj,
        "atoms_cp": atoms_cp,
        "paths": paths,
        "gap_kn": gap_kn if coupled else None,
        "gap_last": gap_last if coupled else None,
        "n_steps": M * (N - 1) * Rc,
    }


def _sequential_chunk(config: SimConfig, rep_ids: list[int]) -> dict:
    """Simulate one replication chunk of a batch run, or of a sequential run of
    a full-measure model (batches of one particle).

    Replications evolve in lockstep along a leading vector axis; all
    per-replication arithmetic is elementwise, so chunking is bit-neutral.
    """
    model, init = config.model, config.initial
    dim, M, N, dt = model.dim, config.M, config.N, config.dt
    Rc = len(rep_ids)
    times = config.times()
    alphas = config.schedule.alphas(N)
    cp_idx = np.asarray(config.checkpoint_indices, dtype=int)
    n_cp = cp_idx.size
    milestones = config.milestones
    milestone_set = {n: l for l, n in enumerate(milestones)}
    full_atoms = config.measure_backend == "full_atoms"
    moment_only = model.interaction_form == INTERACTION_MOMENT
    dual = model.noise_form == NOISE_ADDITIVE_PLUS_FREE

    batches = config.batch_sizes or (1,) * N
    starts = [0, *np.cumsum(batches).tolist()]
    if config.batch_sizes is not None:
        bad = [n for n in milestones if n not in set(starts)]
        if bad:
            raise ConfigError(
                f"milestones {bad} do not align with batch boundaries", key="milestones"
            )

    width = block_width(dim, M, init.needs_noise, dual)
    streams = [BlockStream(replication_stream(config.seed, r), width) for r in rep_ids]

    mean = np.zeros((M + 1, Rc, dim))
    second = np.zeros((M + 1, Rc))
    atoms_cp = np.zeros((Rc, N, n_cp, dim)) if full_atoms else None
    # full-measure steps read the grid paths of all earlier particles
    grid = None
    if config.store_paths or not moment_only:
        grid = np.zeros((Rc, N, M + 1, dim))
    weights = None if moment_only else measure_weights(config.schedule, N, config.batch_sizes)

    mean_traj = np.zeros((Rc, len(milestones), n_cp, dim))
    second_traj = np.zeros((Rc, len(milestones), n_cp))
    n_steps = 0

    for k, size in enumerate(batches):
        alpha = alphas[k]
        blocks = np.stack([s.take(size) for s in streams])  # (Rc, size, width)
        z0, dw, db = split_blocks(blocks, dim, M, init.needs_noise, dual, dt)
        x0 = init.from_block(z0, dim)  # (Rc, size, dim)
        if k == 0:  # the first batch stays at its initial value
            bpath = np.broadcast_to(x0.mean(axis=1)[None], (M + 1, Rc, dim)).copy()
            xs_full = np.broadcast_to(x0[None], (M + 1, Rc, size, dim))
        else:
            xs_full = np.empty((M + 1, Rc, size, dim))
            x = x0
            xs_full[0] = x
            if not moment_only:
                # frozen per-particle weights of mu^{n-1}, constant over the path
                n_prev = starts[k]
                wv = weights(k)
                wv = wv / wv.sum()
            # overflow on a diverging path is caught by the finite check below
            with np.errstate(over="ignore", invalid="ignore"):
                for m in range(1, M + 1):
                    t_prev = times[m - 1]
                    if moment_only:
                        view = MomentView(mean[m - 1][:, None, :], second[m - 1][:, None])
                        x = _em_step(model, t_prev, x, view, dw[:, :, m - 1],
                                     db[:, :, m - 1] if dual else None, dt)
                    else:
                        # full-measure interaction: frozen atom list per replication
                        xn = np.empty_like(x)
                        for ri in range(Rc):
                            view = AtomView(grid[ri, :n_prev, m - 1, :], wv)
                            xn[ri] = _em_step(model, t_prev, x[ri], view, dw[ri, :, m - 1],
                                              db[ri, :, m - 1] if dual else None, dt)
                        x = xn
                    xs_full[m] = x
            n_steps += M * size * Rc
            _check_finite_path(xs_full, 0, starts[k] + 1, rep_ids)
            bpath = xs_full.mean(axis=2)  # batch empirical average per grid time

        _recursive_update(mean, bpath, alpha)
        _recursive_update(second, np.sum(bpath**2, axis=2), alpha)

        end = starts[k + 1]
        if full_atoms:
            atoms_cp[:, starts[k] : end] = xs_full[cp_idx].transpose(1, 2, 0, 3)
        if grid is not None:
            grid[:, starts[k] : end] = xs_full.transpose(1, 2, 0, 3)

        if end in milestone_set:
            l = milestone_set[end]
            mean_traj[:, l] = mean[cp_idx].transpose(1, 0, 2)
            second_traj[:, l] = second[cp_idx].transpose(1, 0)

    return {
        "mean_traj": mean_traj,
        "second_traj": second_traj,
        "atoms_cp": atoms_cp,
        "paths": grid if config.store_paths else None,
        "n_steps": n_steps,
    }


def _classical_chunk(config: SimConfig, rep_ids: list[int]) -> dict:
    """All-particles-simultaneous mean-field run for one replication chunk.

    Noise is consumed step-major (x0 for all particles, then one increment per
    particle per step) -- classical runs have no anytime property to preserve,
    and this keeps memory at one step's increments instead of the whole table.
    """
    model, init = config.model, config.initial
    dim, M, N, dt = model.dim, config.M, config.N, config.dt
    Rc = len(rep_ids)
    times = config.times()
    sqdt = np.sqrt(dt)
    cp_idx = np.asarray(config.checkpoint_indices, dtype=int)
    moment_only = model.interaction_form == INTERACTION_MOMENT
    dual = model.noise_form == NOISE_ADDITIVE_PLUS_FREE
    full_atoms = config.measure_backend == "full_atoms"

    gens = [replication_stream(config.seed, r) for r in rep_ids]
    if init.needs_noise:
        z0 = np.stack([g.standard_normal((N, dim)) for g in gens])
    else:
        z0 = np.empty((Rc, N, 0))
    x = init.from_block(z0, dim)  # (Rc, N, dim)

    atoms_cp = np.zeros((Rc, N, len(cp_idx), dim)) if full_atoms else None
    cp_at = {int(mi): ci for ci, mi in enumerate(cp_idx)} if full_atoms else {}
    mean_t = np.zeros((M + 1, Rc, dim))
    second_t = np.zeros((M + 1, Rc))

    def empirical(xs):
        return xs.mean(axis=1), np.mean(np.sum(xs**2, axis=-1), axis=1)

    mean_t[0], second_t[0] = empirical(x)
    if 0 in cp_at:
        atoms_cp[:, :, cp_at[0]] = x
    for m in range(1, M + 1):
        em, es = mean_t[m - 1], second_t[m - 1]
        dw = np.stack([g.standard_normal((N, dim)) for g in gens]) * sqdt
        db = np.stack([g.standard_normal((N, dim)) for g in gens]) * sqdt if dual else None
        if moment_only:
            view = MomentView(em[:, None, :], es[:, None])
            x = _em_step(model, times[m - 1], x, view, dw, db, dt)
        else:
            xn = np.empty_like(x)
            w = np.full(N, 1.0 / N)
            for ri in range(Rc):
                xn[ri] = _em_step(model, times[m - 1], x[ri], AtomView(x[ri], w), dw[ri],
                                  db[ri] if dual else None, dt)
            x = xn
        _check_finite_path(x[None], m, 1, rep_ids)
        mean_t[m], second_t[m] = empirical(x)
        if m in cp_at:
            atoms_cp[:, :, cp_at[m]] = x

    mean_traj = mean_t[cp_idx].transpose(1, 0, 2)[:, None, :, :]
    second_traj = second_t[cp_idx].transpose(1, 0)[:, None, :]
    return {
        "mean_traj": mean_traj,
        "second_traj": second_traj,
        "atoms_cp": atoms_cp,
        "paths": None,
        # full-grid empirical moments, used by surrogate reference solutions
        "mean_grid": mean_t.transpose(1, 0, 2),
        "second_grid": second_t.transpose(1, 0),
        "n_steps": N * M * Rc,
    }


def _scan_order(config: SimConfig, algorithm: str, err: Exception) -> tuple:
    """Sort key of a chunk's error: other errors come first, then blow-ups in
    the order the driver's finite checks meet cells (classical runs step by
    step, the others batch by batch, a sequential batch being one particle)."""
    if not isinstance(err, BlowUpError):
        return ()
    if algorithm == ALGO_CLASSICAL:
        return err.step, err.replication, err.particle
    batch = int(np.searchsorted(np.cumsum(config.batch_sizes or (1,) * config.N), err.particle))
    return batch, err.step, err.replication, err.particle


def _execute(config: SimConfig, algorithm: str, workers: int = 1,
             ref_moments=None) -> tuple[RunResult, dict]:
    """Run the replication chunks, in this process or on workers, and merge them.

    Returns the result and the merged chunk outputs, which also hold the
    coupled gaps (gap_kn, gap_last) and the classical full-grid moments
    (mean_grid, second_grid).  When chunks blow up, the one raised is the
    earliest in the driver's scan order, as with a single chunk.
    """
    t0 = time.perf_counter()
    if algorithm == ALGO_CLASSICAL:
        run_chunk = partial(_classical_chunk, config)
    elif config.batch_sizes is None and config.model.interaction_form == INTERACTION_MOMENT:
        run_chunk = partial(_wavefront_chunk, config, ref_moments=ref_moments)
    else:
        run_chunk = partial(_sequential_chunk, config)
    chunks = _chunk_reps(config.replications, workers)
    if len(chunks) == 1:
        parts = [run_chunk(chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only workers > 1 pay for it

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(run_chunk, c) for c in chunks]
        errors = [f.exception() for f in futures if f.exception() is not None]
        if errors:
            raise min(errors, key=partial(_scan_order, config, algorithm))
        parts = [f.result() for f in futures]
    merged = _merge_chunks(parts)
    milestones = config.milestones if algorithm != ALGO_CLASSICAL else (config.N,)
    result = RunResult(
        config=config,
        algorithm=algorithm,
        versions=_versions(),
        milestones=milestones,
        mean_traj=merged["mean_traj"],
        second_traj=merged["second_traj"],
        snapshots=RunSnapshots(config, algorithm, milestones, merged["mean_traj"],
                               merged["second_traj"], merged["atoms_cp"]),
        paths=merged["paths"],
        wall_time_s=time.perf_counter() - t0,
        n_steps=merged["n_steps"],
    )
    return result, merged


def spoc_run(config: SimConfig, workers: int = 1) -> RunResult:
    """Sequential run: particle 1 is frozen at its initial value; particle n >= 2
    is Euler-driven against the frozen grid measures of particles 1..n-1 and
    folded in with rate alpha_n at every grid time."""
    if config.batch_sizes is not None:
        raise ConfigError("spoc_run takes no batch_sizes; use batch_spoc_run", key="batch_sizes")
    return _execute(config, ALGO_SPOC, workers)[0]


def batch_spoc_run(config: SimConfig, workers: int = 1) -> RunResult:
    """Batch run: batch k (size N_k) is simulated against the frozen measure of
    batches 1..k-1, then folded in with the batch empirical average at rate
    alpha_k.  All-ones batches reproduce spoc_run bit for bit.

    Drift and diffusion both evaluate the previous frozen measure, keeping the
    batch step consistent with the particle-by-particle recursion.
    """
    if config.batch_sizes is None:
        raise ConfigError("batch_spoc_run requires batch_sizes", key="batch_sizes")
    return _execute(config, ALGO_BATCH, workers)[0]


def classical_poc_run(config: SimConfig, workers: int = 1) -> RunResult:
    """Classical mean-field run: all N particles advance simultaneously against
    the current empirical measure (the one-shot baseline; changing N means
    recomputing the whole system)."""
    cfg = config if config.batch_sizes is None else replace(config, batch_sizes=None)
    return _execute(cfg, ALGO_CLASSICAL, workers)[0]


# -- reference solutions ------------------------------------------------------


@dataclass
class ReferenceSolution:
    """Oracle for the limiting law: closed moment curves (when the model has a
    moment ODE) plus decoupled sample paths, or a flagged classical surrogate."""

    kind: str
    mean: np.ndarray
    second: np.ndarray
    fine_times: np.ndarray | None
    fine_mean: np.ndarray | None
    fine_second: np.ndarray | None
    samples: dict
    paths: np.ndarray | None
    n_ref: int
    clamp_count: int = 0


def _rk4_moments(model: ModelSpec, mean0: np.ndarray, second0: float, T: float, n_steps: int):
    """Classic RK4 on the closed moment system; clamps transient second < 0 at 0.
    A diverging system runs on to inf/nan quietly: the decoupled paths that
    read the curves report it as a blow-up."""
    h = T / n_steps
    means = np.empty((n_steps + 1, mean0.size))
    seconds = np.empty(n_steps + 1)
    means[0], seconds[0] = mean0, second0
    clamps = 0
    m, s = mean0.astype(float), float(second0)
    ode = model.moment_ode
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i * h
            k1m, k1s = ode(t, m, s)
            k2m, k2s = ode(t + h / 2, m + h / 2 * k1m, s + h / 2 * k1s)
            k3m, k3s = ode(t + h / 2, m + h / 2 * k2m, s + h / 2 * k2s)
            k4m, k4s = ode(t + h, m + h * k3m, s + h * k3s)
            m = m + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
            s = s + h / 6 * (k1s + 2 * k2s + 2 * k3s + k4s)
            if s < 0.0:
                s = 0.0
                clamps += 1
            means[i + 1], seconds[i + 1] = m, s
    return means, seconds, clamps


def _moment_reference(config: SimConfig):
    """RK4 moment curves of config's model from its initial law at step
    dt/_RK4_SUBSTEPS: (grid mean, grid second, fine mean, fine second, clamps)."""
    fine_mean, fine_second, clamps = _rk4_moments(
        config.model,
        config.initial.mean_vector(config.model.dim),
        config.initial.second_moment(config.model.dim),
        config.T,
        config.M * _RK4_SUBSTEPS,
    )
    grid = slice(None, None, _RK4_SUBSTEPS)
    return fine_mean[grid], fine_second[grid], fine_mean, fine_second, clamps


def reference_run(
    model: ModelSpec,
    config: SimConfig,
    n_ref: int | None = None,
    store_paths: bool = False,
) -> ReferenceSolution:
    """Oracle run of model for the limiting McKean-Vlasov law, on config's
    grid and initial law (config.model is not read).

    Models with a closed moment system: RK4 at step dt/10 for the moment
    curves, then n_ref decoupled Euler paths fed by those curves (samples per
    checkpoint).  Other models: a classical surrogate at n_ref >= 10*N,
    flagged as such; it has no paths, so store_paths raises ConfigError.  The
    stream seed is config.seed ^ REFERENCE_SEED_XOR, so oracles stay
    seed-disjoint from test runs.  A diverging reference raises BlowUpError,
    its message prefixed with the reference kind.
    """
    closed = model.moment_ode is not None
    if store_paths and not closed:
        raise ConfigError(
            f"model {model.name!r} has no moment ODE, and its classical surrogate "
            "reference stores no paths", key="store_paths"
        )
    if n_ref is None:
        n_ref = config.N if closed else 10 * config.N
    ref_cfg = replace(
        config,
        model=model,
        N=n_ref,
        seed=config.seed ^ REFERENCE_SEED_XOR,
        replications=1,
        milestones=None,
        batch_sizes=None,
        store_paths=store_paths,
        measure_backend="full_atoms",
    )
    kind = "moment_closure" if closed else "surrogate_classical"
    try:
        if closed:
            mean, second, fine_mean, fine_second, clamps = _moment_reference(ref_cfg)
            fine_times = np.arange(fine_mean.shape[0]) * (config.dt / _RK4_SUBSTEPS)
            samples, paths = _decoupled_samples(ref_cfg, mean, second)
        else:  # full-grid moments, indexable by grid position; classical runs store no paths
            run, merged = _execute(ref_cfg, ALGO_CLASSICAL)
            mean, second = merged["mean_grid"][0], merged["second_grid"][0]
            samples = {mi: run.snapshots[(0, n_ref, mi)] for mi in config.checkpoint_indices}
            fine_times = fine_mean = fine_second = paths = None
            clamps = 0
    except BlowUpError as exc:
        raise BlowUpError(f"{kind.replace('_', '-')} reference: {exc}", particle=exc.particle,
                          step=exc.step, replication=exc.replication) from None
    return ReferenceSolution(
        kind=kind,
        mean=mean,
        second=second,
        fine_times=fine_times,
        fine_mean=fine_mean,
        fine_second=fine_second,
        samples=samples,
        paths=paths,
        n_ref=n_ref,
        clamp_count=clamps,
    )


def _decoupled_samples(config: SimConfig, ref_mean, ref_second):
    """config.N independent Euler paths of config's model whose coefficients
    read the reference moment curves (the decoupled stand-in for i.i.d. copies
    of the limit law): (samples per checkpoint, paths or None)."""
    dim, M, N, dt = config.model.dim, config.M, config.N, config.dt
    times = config.times()
    dual = config.model.noise_form == NOISE_ADDITIVE_PLUS_FREE
    init_draws = config.initial.needs_noise
    blocks = BlockStream(replication_stream(config.seed, 0),
                         block_width(dim, M, init_draws, dual)).take(N)
    z0, dw, db = split_blocks(blocks, dim, M, init_draws, dual, dt)
    x = config.initial.from_block(z0, dim)
    paths = np.zeros((N, M + 1, dim)) if config.store_paths else None
    if paths is not None:
        paths[:, 0] = x
    keep = {}
    if 0 in config.checkpoint_indices:
        keep[0] = x.copy()
    for m in range(1, M + 1):
        view = MomentView(ref_mean[m - 1], ref_second[m - 1])
        x = _em_step(config.model, times[m - 1], x, view, dw[:, m - 1],
                     db[:, m - 1] if dual else None, dt)
        _check_finite_path(x[None, None], m, 1, [0])
        if paths is not None:
            paths[:, m] = x
        if m in config.checkpoint_indices:
            keep[m] = x.copy()
    w = np.full(N, 1.0 / N)
    samples = {mi: WeightedEmpirical(pts, w.copy()) for mi, pts in keep.items()}
    return samples, paths


@dataclass
class CoupledRunResult:
    """Sequential run plus the synchronous-coupling gap diagnostics.

    gap_kn[r, l] is the schedule-weighted running average K_n of the
    time-averaged squared gap (1/T) int |X^i - Y^i|^2 dt at milestone l;
    gap_at_milestone[r, l] is the gap of the milestone particle itself.
    """

    run: RunResult
    gap_kn: np.ndarray
    gap_at_milestone: np.ndarray


def coupled_spoc_run(config: SimConfig, workers: int = 1) -> CoupledRunResult:
    """Sequential run with a synchronously-coupled companion per particle.

    The companion Y^n consumes the identical Brownian increments but its
    coefficients read the reference moment curves (closed moment ODE); by
    construction Y^1 = X^1 (both frozen), so the gap at n = 1 is exactly zero.
    """
    if config.model.moment_ode is None:
        raise ConfigError(
            "coupled runs need a model with a closed moment system", key="model"
        )
    if config.model.interaction_form != INTERACTION_MOMENT:
        raise ConfigError("coupled runs need a moment-interaction model", key="model")
    if config.batch_sizes is not None:
        raise ConfigError("coupled runs are particle-by-particle", key="batch_sizes")
    ref = _moment_reference(config)[:2]
    result, merged = _execute(config, ALGO_SPOC, workers, ref_moments=ref)
    return CoupledRunResult(
        run=result, gap_kn=merged["gap_kn"], gap_at_milestone=merged["gap_last"]
    )


# -- persistence --------------------------------------------------------------


def _write_manifest(out: Path, manifest: dict) -> None:
    """Replace manifest.json in one step, so that a reader never sees half of it."""
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, out / "manifest.json")


def _read_array(path, magic: bytes, what: str) -> np.ndarray:
    """A 4-d float64 array stored behind an 8-byte magic, a format version and its shape."""
    raw = Path(path).read_bytes()
    if raw[: len(magic)] != magic:
        raise ValueError(f"not a {what} file")
    off = len(magic)
    version, *shape = struct.unpack_from("<I4Q", raw, off)
    if version != 1:
        raise ValueError(f"unsupported {what} version {version}")
    off += struct.calcsize("<I4Q")
    return np.frombuffer(raw, dtype=float, offset=off).reshape(shape).copy()


def save_run(result: RunResult, out_dir) -> None:
    """Persist a run in schema spoc-run-v2: manifest.json, summary.csv, and
    atoms.bin (the (R, N, n_cp, dim) atom store of a full_atoms run) and
    paths.bin when the run has them.  Snapshot weights are not stored; the
    manifest is replaced in one step, and says complete only at the end.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": RUN_SCHEMA,
        "algorithm": result.algorithm,
        "config": result.config.to_dict(),
        "versions": result.versions,
        "milestones": list(result.milestones),
        "checkpoint_times": list(result.config.checkpoints),
        "replications": result.config.replications,
        "n_steps": result.n_steps,
        "complete": False,
    }
    _write_manifest(out, manifest)
    # per-snapshot CSVs of a spoc-run-v1 run in the same directory
    shutil.rmtree(out / "snapshots", ignore_errors=True)

    header = ["replication", "milestone_n", "time"]
    dim = result.config.model.dim
    header += [f"mean_{i}" for i in range(dim)] + ["raw_second_moment"]
    lines = [",".join(header)]
    for r in range(result.config.replications):
        for l, n in enumerate(result.milestones):
            for c, t in enumerate(result.config.checkpoints):
                row = [str(r), str(n), repr(float(t))]
                row += [repr(float(v)) for v in result.mean_traj[r, l, c]]
                row += [repr(float(result.second_traj[r, l, c]))]
                lines.append(",".join(row))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    for name, magic, arr in (("atoms.bin", _ATOMS_MAGIC, result.snapshots.atoms_cp),
                             ("paths.bin", _PATHS_MAGIC, result.paths)):
        if arr is not None:
            with open(out / name, "wb") as fh:
                fh.write(magic)
                fh.write(struct.pack("<I4Q", 1, *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype=float).tobytes())
        else:  # left by an earlier run in the same directory
            (out / name).unlink(missing_ok=True)

    manifest["complete"] = True
    _write_manifest(out, manifest)


def load_paths(path) -> np.ndarray:
    return _read_array(path, _PATHS_MAGIC, "path-array")


def load_run(out_dir) -> RunResult:
    """Reload a run saved by save_run (builtin models only); any schema other
    than spoc-run-v2 raises RunFormatError.  Summary precision is repr-exact,
    and the snapshot view over atoms.bin recomputes the weights from the
    config, so every snapshot equals the saved run's bit for bit.
    """
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != RUN_SCHEMA:
        raise RunFormatError(
            f"{out} holds a run of schema {schema!r}; this version reads {RUN_SCHEMA!r} "
            "only, so rerun it"
        )
    config = SimConfig.from_dict(manifest["config"])
    algorithm = manifest["algorithm"]
    milestones = tuple(manifest["milestones"])
    shape = (manifest["replications"], len(milestones), len(config.checkpoints))
    dim = config.model.dim
    # save_run writes one row per (replication, milestone, checkpoint), in order
    table = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1, ndmin=2)
    mean_traj = table[:, 3 : 3 + dim].reshape(shape + (dim,))
    second_traj = table[:, 3 + dim].reshape(shape)
    full_atoms = config.measure_backend == "full_atoms"
    atoms_cp = _read_array(out / "atoms.bin", _ATOMS_MAGIC, "atom-store") if full_atoms else None
    paths = load_paths(out / "paths.bin") if (out / "paths.bin").exists() else None
    return RunResult(
        config=config,
        algorithm=algorithm,
        versions=manifest["versions"],
        milestones=milestones,
        mean_traj=mean_traj,
        second_traj=second_traj,
        snapshots=RunSnapshots(config, algorithm, milestones, mean_traj, second_traj, atoms_cp),
        paths=paths,
        wall_time_s=None,
        n_steps=manifest["n_steps"],
    )
