"""One workload in one fresh interpreter: timed rounds, then output checks.

Run by bench/run.py as
    python3 bench/workload.py --workload NAME --seed N --seconds S --traced 0|1 --result FILE
from the root of a checkout, with src/ on PYTHONPATH.  It writes one JSON
object to FILE.

A round is a fixed list of operations on inputs made from the seed; every
round of a run repeats the same operations, so counts and failure shares do
not depend on how long the run lasts.  Each operation is timed alone; fresh
output directories are made before a round and removed after it, both
outside the timed region.  Round 0 is checked in full; later rounds are
checked against it.  Every untraced round counts in the medians, since a
`spoc` user pays first-call costs on every command.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from tracer import Tracer

import spoc.analysis
import spoc.cli
import spoc.models
import spoc.schedules
import spoc.simulate

MIN_ROUNDS = 3
SLICED_PROJECTIONS = 64  # what analysis.convergence_study uses for dim > 1
# Checks against the replication spread allow this many standard errors (OU
# moments) or this multiple of the summed 90% half-widths (two estimates).
# A plain 90% band misses ~2% of correct runs per comparison, and a set of
# benchmark runs makes hundreds of comparisons, so the gates sit several
# sigma out.
MOMENT_SE = 8.0
BAND_MULT = 3.0


def derive_seed(seed: int, op: int) -> int:
    """Independent 63-bit config seed for operation `op` of a run."""
    return int(np.random.SeedSequence([seed, op]).generate_state(2, np.uint64)[0] >> np.uint64(1))


def log_milestones(lo: int, hi: int, count: int) -> list[int]:
    return sorted({int(round(v)) for v in np.geomspace(lo, hi, count)})


class Failures(list):
    """Messages of the checks that failed, and for each toleranced check the
    share of its tolerance that the deviation used."""

    def __init__(self):
        super().__init__()
        self.margins: dict[str, float] = {}

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.append(what)

    def within(self, label: str, deviation: float, allowed: float, what: str) -> None:
        self.margins[label] = max(self.margins.get(label, 0.0), abs(deviation) / allowed)
        self.expect(abs(deviation) <= allowed, what)


class Round:
    """Seconds per operation, and whatever the checks need afterwards."""

    def __init__(self, work: Path):
        self.work = work
        self.seconds: dict[str, float] = {}
        self.out: dict[str, object] = {}

    def time(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return value

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def dispatch(rnd: Round, name: str, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = rnd.time(name, spoc.cli.dispatch, argv)
    if code != 0:
        raise RuntimeError(f"spoc {' '.join(argv)} exited {code}")


def sim_config(cfg: dict, **changes):
    """Library SimConfig equal to the one the CLI builds from `cfg`."""
    d = {**cfg, **changes}
    return spoc.simulate.SimConfig(
        model=spoc.models.builtin_model(d["model"]["name"], d["model"].get("params")),
        schedule=spoc.schedules.UpdateSchedule.from_dict(
            {**d["schedule"], "max_n": d["schedule"].get("max_n", d["N"])}),
        initial=spoc.simulate.InitialCondition.from_dict(d["initial"]),
        T=float(d["T"]), M=int(d["M"]), N=int(d["N"]), seed=int(d["seed"]),
        replications=int(d.get("replications", 1)),
        checkpoints=tuple(d["checkpoints"]) if d.get("checkpoints") else None,
        milestones=tuple(d["milestones"]) if d.get("milestones") else None,
        measure_backend=d.get("measure_backend"),
        store_paths=bool(d.get("store_paths", False)),
    )


def steps(cfg: dict, n: int | None = None, reps: int | None = None) -> int:
    """Euler particle-steps N*M*R requested by one run of `cfg`."""
    return (n or cfg["N"]) * cfg["M"] * (reps or cfg.get("replications", 1))


# -- anytime_seq ---------------------------------------------------------------


class AnytimeSeq:
    """`spoc simulate` on three models (summary backend) plus one library
    coupled run: the per-particle sequential loop is nearly all of the time."""

    def __init__(self, seed: int, work: Path):
        base = {"schedule": {"kind": "harmonic"}, "T": 1.0, "M": 20, "replications": 12,
                "measure_backend": "summary_only"}
        self.cfgs = {
            "ou": {**base, "model": {"name": "mean_field_ou"},
                   "initial": {"kind": "point", "value": 1.0}, "N": 2000},
            "cw": {**base, "model": {"name": "curie_weiss"},
                   "initial": {"kind": "gaussian", "mean": 0.5, "std": 1.0}, "N": 2000},
            "r3": {**base, "model": {"name": "repulsive3d"},
                   "initial": {"kind": "point", "value": [1.0, 0.0, 0.0]}, "N": 1000},
        }
        for i, cfg in enumerate(self.cfgs.values()):
            cfg["seed"] = derive_seed(seed, i)
            cfg["milestones"] = log_milestones(10, cfg["N"], 5)
        self.coupled = {**base, "model": {"name": "mean_field_ou"},
                        "initial": {"kind": "point", "value": 1.0}, "N": 1000,
                        "seed": derive_seed(seed, 3), "milestones": [1, 10, 100, 1000]}
        self.classical_seed = derive_seed(seed, 4)
        self.paths = {}
        for key, cfg in self.cfgs.items():
            self.paths[key] = work / f"anytime_{key}.json"
            self.paths[key].write_text(json.dumps(cfg))
        self.steps = sum(steps(c) for c in self.cfgs.values()) + steps(self.coupled)
        self.operations = len(self.cfgs) + 1

    def round(self, rnd: Round) -> int:
        for key, path in self.paths.items():
            dispatch(rnd, key, ["simulate", "--config", str(path), "--out",
                                str(rnd.work / key), "--workers", "1"])
            rnd.out[key] = (rnd.work / key / "summary.csv").read_bytes()
        cop = rnd.time("coupled", spoc.simulate.coupled_spoc_run, sim_config(self.coupled), 1)
        rnd.out["coupled"] = (cop.gap_kn, cop.gap_at_milestone)
        return 0

    @staticmethod
    def _terminal(summary: bytes, n: int, dim: int):
        rows = [r.split(",") for r in summary.decode().strip().split("\n")[1:]]
        rows = [r for r in rows if int(r[1]) == n]
        mean = np.array([[float(v) for v in r[3:3 + dim]] for r in rows])
        return mean, np.array([float(r[3 + dim]) for r in rows])

    def check_round(self, rnd: Round, first: Round, fail: Failures) -> None:
        for key in self.cfgs:
            fail.expect(rnd.out[key] == first.out[key], f"{key}: summary.csv differs from round 0")
        for a, b in zip(rnd.out["coupled"], first.out["coupled"]):
            fail.expect(np.array_equal(a, b), "coupled gaps differ from round 0")

    def check_full(self, rnd: Round, fail: Failures) -> None:
        ou = self.cfgs["ou"]
        dt = ou["T"] / ou["M"]
        mean, second = self._terminal(rnd.out["ou"], ou["N"], 1)
        x0 = ou["initial"]["value"]
        m_ref, s_ref = oracle.ou_euler_moments(x0, x0 * x0, dt, ou["M"])
        for label, est, ref in (("mean", mean[:, 0], m_ref), ("second moment", second, s_ref)):
            se = est.std(ddof=1) / math.sqrt(est.size)
            fail.within(f"ou {label}", est.mean() - ref, MOMENT_SE * se,
                        f"ou {label} at T: {est.mean():.5f} vs Euler limit {ref:.5f} "
                        f"(allowed {MOMENT_SE:g} SE = {MOMENT_SE * se:.5f})")
        # anytime: a separate run to the first milestone is that milestone of the long run
        n1 = ou["milestones"][0]
        short = spoc.simulate.spoc_run(sim_config(ou, N=n1, milestones=[n1]))
        mean1, second1 = self._terminal(rnd.out["ou"], n1, 1)
        fail.expect(np.array_equal(short.mean_traj[:, 0, -1], mean1)
                    and np.array_equal(short.second_traj[:, 0, -1], second1),
                    f"ou: run to n={n1} differs from milestone n={n1} of the long run")
        gap_kn, gap_last = rnd.out["coupled"]
        fail.expect(np.all(gap_kn[:, 0] == 0.0) and np.all(gap_last[:, 0] == 0.0),
                    "coupled: gap at n = 1 is not exactly 0")
        kn = gap_kn.mean(axis=0)
        fail.expect(kn[-1] < kn[1], f"coupled: K_n at the last milestone {kn[-1]:.3g} "
                                    f"is not below K_n at n={self.coupled['milestones'][1]} {kn[1]:.3g}")
        # curie_weiss and repulsive3d against an independent-seed classical run
        for key in ("cw", "r3"):
            cfg = self.cfgs[key]
            dim = 3 if key == "r3" else 1
            mean, second = self._terminal(rnd.out[key], cfg["N"], dim)
            cls = spoc.simulate.classical_poc_run(sim_config(cfg, seed=self.classical_seed))
            pairs = [(f"mean_{i}", mean[:, i], cls.mean_traj[:, 0, -1, i]) for i in range(dim)]
            pairs.append(("second moment", second, cls.second_traj[:, 0, -1]))
            for label, seq_s, cls_s in pairs:
                (a, ha), (b, hb) = oracle.band(seq_s), oracle.band(cls_s)
                fail.within(f"{key} {label}", a - b, BAND_MULT * (ha + hb),
                            f"{key} {label}: sequential {a:.5f} vs classical {b:.5f} "
                            f"(allowed {BAND_MULT * (ha + hb):.5f})")


# -- study_transport -----------------------------------------------------------


class StudyTransport:
    """`spoc rates` W_2 studies (sliced in 3-d, exact in 1-d), an i.i.d. rate
    study and `spoc compare`: transport, references and classical runs do most
    of the work."""

    def __init__(self, seed: int, work: Path):
        base = {"schedule": {"kind": "harmonic"}, "T": 1.0, "M": 20, "replications": 8}
        self.cfgs = {
            "w2_r3": {**base, "model": {"name": "repulsive3d"},
                      "initial": {"kind": "point", "value": [1.0, 0.0, 0.0]},
                      "N": 600, "milestones": [30, 120, 600]},
            "w2_ou": {**base, "model": {"name": "mean_field_ou"},
                      "initial": {"kind": "point", "value": 1.0},
                      "N": 1000, "milestones": [30, 200, 1000]},
            "iid": {"model": None, "schedule": {"kind": "harmonic"}, "replications": 10,
                    "milestones": log_milestones(1000, 200_000, 5)},
            "compare": {**base, "model": {"name": "curie_weiss"},
                        "initial": {"kind": "gaussian", "mean": 0.5, "std": 1.0},
                        "N": 1000, "milestones": [100, 300, 1000], "replications": 12},
        }
        for i, cfg in enumerate(self.cfgs.values()):
            cfg["seed"] = derive_seed(seed, i)
        self.paths = {}
        for key, cfg in self.cfgs.items():
            self.paths[key] = work / f"study_{key}.json"
            self.paths[key].write_text(json.dumps(cfg))
        r3, ou, cmp_ = self.cfgs["w2_r3"], self.cfgs["w2_ou"], self.cfgs["compare"]
        self.steps = (steps(r3) + steps(r3, n=10 * r3["N"], reps=1)     # run + surrogate reference
                      + steps(ou) + steps(ou, reps=1)                    # run + decoupled reference
                      + steps(cmp_) + 2 * steps(cmp_, n=10 * cmp_["N"], reps=1)
                      + sum(steps(cmp_, n=n) for n in cmp_["milestones"]))
        self.operations = len(self.cfgs)

    def round(self, rnd: Round) -> int:
        for key in ("w2_r3", "w2_ou", "iid"):
            extra = ["--set", "metric=w2_to_reference"] if key != "iid" else []
            dispatch(rnd, key, ["rates", "--config", str(self.paths[key]), "--out",
                                str(rnd.work / key), "--workers", "1", *extra])
        dispatch(rnd, "compare", ["compare", "--config", str(self.paths["compare"]), "--out",
                                  str(rnd.work / "compare"), "--workers", "1"])
        for f in sorted(rnd.work.glob("*/*.csv")):
            rnd.out[f"{f.parent.name}/{f.name}"] = f.read_bytes()
        return 0

    @staticmethod
    def _table(raw: bytes):
        rows = [[float(v) for v in r.split(",")] for r in raw.decode().strip().split("\n")[1:]]
        return np.array(rows)  # n, err, ci_lo, ci_hi

    def check_round(self, rnd: Round, first: Round, fail: Failures) -> None:
        fail.expect(rnd.out == first.out, "study tables differ from round 0")

    def check_full(self, rnd: Round, fail: Failures) -> None:
        expected = {"w2_r3/rates_w2_to_reference.csv", "w2_ou/rates_w2_to_reference.csv",
                    "iid/rates_w2_sq_to_reference.csv", "compare/sequential_mean_abs_err.csv",
                    "compare/classical_mean_abs_err.csv"}
        missing = expected - set(rnd.out)
        fail.expect(not missing, f"missing study tables {sorted(missing)}")
        if missing:
            return
        for key in ("w2_r3", "w2_ou"):
            cfg = self.cfgs[key]
            table = self._table(rnd.out[f"{key}/rates_w2_to_reference.csv"])
            fail.expect(table[-1, 1] < table[0, 1],
                        f"{key}: W2 error does not fall ({table[0, 1]:.4g} -> {table[-1, 1]:.4g})")
            # first milestone, recomputed from a short run (its snapshots are
            # those of the long run) and the study's reference sample
            n1 = cfg["milestones"][0]
            study_cfg = sim_config(cfg)
            ref = spoc.simulate.reference_run(study_cfg.model, study_cfg)
            term = study_cfg.checkpoint_indices[-1]
            ref_snap = ref.samples[term]
            short = spoc.simulate.spoc_run(sim_config(cfg, N=n1, milestones=[n1],
                                                      measure_backend="full_atoms"))
            dists = []
            for r in range(cfg["replications"]):
                snap = short.snapshots[(r, n1, term)]
                # the study seeds milestone l's directions with seed + l
                dists.append(oracle.w2(snap.atoms, snap.weights, ref_snap.atoms, ref_snap.weights,
                                       SLICED_PROJECTIONS, cfg["seed"]))
            mine = float(np.mean(dists))
            fail.within(f"{key} first W2", mine - table[0, 1], 1e-9 * abs(mine),
                        f"{key}: W2 at n={n1} reported {table[0, 1]!r}, recomputed {mine!r}")
        iid = self._table(rnd.out["iid/rates_w2_sq_to_reference.csv"])
        slope = oracle.loglog_slope(iid[:, 0], iid[:, 1])
        fail.expect(slope <= -0.5, f"iid: fitted slope {slope:+.3f} is not <= -1/2")
        seq = self._table(rnd.out["compare/sequential_mean_abs_err.csv"])
        cls = self._table(rnd.out["compare/classical_mean_abs_err.csv"])
        for (n, a, alo, _), (_, b, blo, _) in zip(seq, cls):
            allowed = BAND_MULT * ((a - alo) + (b - blo))
            fail.within(f"compare n={int(n)}", a - b, allowed,
                        f"compare n={int(n)}: sequential {a:.4g} vs classical {b:.4g} "
                        f"(allowed {allowed:.4g})")


# -- atoms_persist -------------------------------------------------------------


class AtomsPersist:
    """A full_atoms run with paths, saved, reloaded and histogrammed: snapshot
    assembly and CSV/binary persistence do most of the work."""

    BINS = 40

    def __init__(self, seed: int, work: Path):
        self.cfg = {"model": {"name": "mean_field_ou"}, "schedule": {"kind": "harmonic"},
                    "initial": {"kind": "point", "value": 1.0}, "T": 1.0, "M": 10,
                    "N": 4000, "replications": 12, "checkpoints": [0.2, 0.4, 0.6, 0.8, 1.0],
                    "milestones": [500, 1000, 2000, 4000], "measure_backend": "full_atoms",
                    "store_paths": True, "seed": derive_seed(seed, 0)}
        R, L, C = (self.cfg["replications"], len(self.cfg["milestones"]),
                   len(self.cfg["checkpoints"]))
        self.steps = steps(self.cfg)
        # run, save, load, one histogram per terminal snapshot, one weight
        # round trip per snapshot
        self.operations = 3 + R * L + R * L * C

    def round(self, rnd: Round) -> int:
        cfg = sim_config(self.cfg)
        run = rnd.time("spoc_run", spoc.simulate.spoc_run, cfg, 1)
        rnd.time("save_run", spoc.simulate.save_run, run, rnd.work / "run")
        back = rnd.time("load_run", spoc.simulate.load_run, rnd.work / "run")
        term = cfg.checkpoint_indices[-1]
        curves = {}
        t0 = time.perf_counter()
        for r in range(cfg.replications):
            for n in cfg.milestones:
                curves[(r, n)] = spoc.analysis.density_histogram(back.snapshots[(r, n, term)], self.BINS)
        rnd.seconds["density"] = time.perf_counter() - t0
        rnd.out.update(run=run, back=back, curves=curves)
        return sum(not np.array_equal(back.snapshots[k].weights, s.weights)
                   for k, s in run.snapshots.items() if k in back.snapshots)

    def check_round(self, rnd: Round, first: Round, fail: Failures) -> None:
        run, back, curves = rnd.out.pop("run"), rnd.out.pop("back"), rnd.out.pop("curves")
        for name in ("mean_traj", "second_traj", "paths"):
            fail.expect(np.array_equal(getattr(run, name), getattr(back, name)),
                        f"load_run does not return {name} bit for bit")
        fail.expect(set(back.snapshots) == set(run.snapshots), "load_run lost snapshots")
        cps = run.config.checkpoint_indices
        for (r, n, m), snap in run.snapshots.items():
            if (r, n, m) in back.snapshots:
                fail.expect(np.array_equal(back.snapshots[(r, n, m)].atoms, snap.atoms),
                            f"snapshot {(r, n, m)}: atoms do not round-trip")
            fail.expect(np.array_equal(snap.atoms, run.paths[r, :n, m]),
                        f"snapshot {(r, n, m)}: atoms differ from paths[r, :n, m]")
            l, c = run.milestones.index(n), cps.index(m)
            fail.expect(abs(float(snap.weights @ snap.atoms[:, 0]) - run.mean_traj[r, l, c, 0])
                        <= 1e-10, f"snapshot {(r, n, m)}: weighted mean differs from mean_traj")
        for key, curve in curves.items():
            mass = float(np.sum(curve.density * np.diff(curve.edges)))
            fail.expect(abs(mass - 1.0) <= 1e-12, f"density {key} integrates to {mass!r}")

    def check_full(self, rnd: Round, fail: Failures) -> None:
        pass  # every check of this workload is cheap and runs on every round


WORKLOADS = {"anytime_seq": AnytimeSeq, "study_transport": StudyTransport,
             "atoms_persist": AtomsPersist}


# -- rounds ----------------------------------------------------------------------


def run_round(workload, work: Path, k: int) -> tuple[Round, int]:
    rnd = Round(work / f"round{k}")
    rnd.work.mkdir(parents=True)
    gc.collect()
    failed = workload.round(rnd)
    return rnd, failed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    result_path = Path(args.result)
    work = result_path.parent / f"work-{result_path.stem}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    fail = Failures()
    attempted = failed = 0
    walls, per_op = [], []
    first = None
    t_start = time.perf_counter()
    k = 0
    # untraced runs repeat whole rounds while the next one fits in --seconds; a
    # traced run does one untraced round (checked in full) and one traced round
    while True:
        t_round = time.perf_counter()
        tracer = Tracer() if args.traced and k == 1 else None
        if tracer:
            tracer.install()
        try:
            rnd, bad = run_round(workload, work, k)
        finally:
            if tracer:
                tracer.uninstall()
        attempted += workload.operations
        failed += bad
        if first is None:
            first = rnd
            workload.check_full(rnd, fail)
        workload.check_round(rnd, first, fail)
        if tracer:
            saved_bytes = sum(f.stat().st_size for d in tracer.saved_dirs
                              for f in d.rglob("*") if f.is_file())
        shutil.rmtree(rnd.work)
        if not args.traced or tracer:
            walls.append(rnd.wall)
            per_op.append(rnd.seconds)
        k += 1
        now = time.perf_counter()
        if args.traced:
            if k == 2:
                break
        elif k >= MIN_ROUNDS and now - t_start + (now - t_round) > args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    out = {
        "correct": not fail,
        "problems": fail[:20],
        "margins": fail.margins,
        "attempted": attempted,
        "failed": failed,
        "rounds": k,
        "wall_s": statistics.median(walls),
        "round_walls": walls,
        "op_seconds": {op: statistics.median(r[op] for r in per_op) for op in per_op[0]},
        "steps_per_round": workload.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.traced:
        out["layers"] = tracer.totals()
        out["model_rows"] = tracer.model_rows
        out["saved_bytes"] = saved_bytes
        if args.spans:
            tracer.write(Path(args.spans))
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
