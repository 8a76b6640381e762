"""spoc benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0: the end-to-end metrics of BENCHMARK.json, from an untraced run.
--trace 1: its per-layer metrics.  The untraced run is made as well, to give
           the tracing overhead; the traced run adds one round with every
           layer wrapped, and `python -X importtime` gives the import shares.

Every interpreter this starts runs the checkout's src/ with BLAS/OpenMP held
at one thread.  Outputs go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BUDGET_S = 170.0        # the whole invocation must end within 180 s
SETUP_REPS = 3          # fresh-interpreter imports timed per invocation
IMPORTTIME_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = ("spoc", "spoc.cli", "spoc.analysis", "spoc.simulate", "spoc.measures",
                  "spoc.models", "spoc.schedules")
SEQUENTIAL_RUNS = ("simulate.spoc_run", "simulate.coupled_spoc_run")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPOC_LOG")}
    env["PYTHONPATH"] = str(root / "src")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def call(cmd: list[str], env: dict, deadline: float, cwd: Path) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    try:
        # run() kills the child on timeout and waits for it before raising
        done = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} ran past the time budget") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return done


def setup_seconds(root: Path, env: dict, deadline: float) -> float:
    """Median time from starting a fresh interpreter to finishing
    `import spoc.cli`.  Runs after the workload, which compiled the bytecode."""
    cmd = [sys.executable, "-c", "import spoc.cli"]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        call(cmd, env, deadline, root)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(root: Path, env: dict, deadline: float) -> dict[str, float]:
    """Cumulative import time per spoc module from `python -X importtime`
    (median over fresh interpreters)."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPS):
        done = call([sys.executable, "-X", "importtime", "-c", "import spoc.cli"], env,
                    deadline, root)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    if any(len(v) != IMPORTTIME_REPS for v in samples.values()):
        raise BenchError("python -X importtime did not report every spoc module")
    return {m: statistics.median(v) for m, v in samples.items()}


def run_workload(root: Path, env: dict, deadline: float, args, traced: bool) -> dict:
    out = root / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-{'traced' if traced else 'plain'}"
    cmd = [sys.executable, str(root / "bench" / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--traced", str(int(traced)), "--result", str(out / f"{stem}.json")]
    if traced:
        cmd += ["--spans", str(out / f"{args.workload}-seed{args.seed}-spans.npz")]
    call(cmd, env, deadline, root)
    return json.loads((out / f"{stem}.json").read_text())


def layer_metrics(plain: dict, traced: dict, imports: dict[str, float]) -> dict[str, float]:
    spans = traced["layers"]

    def total(*names, key="s"):
        return sum(spans[n][key] for n in names if n in spans)

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    evals = calls("models.eval")
    loop_s = total(*SEQUENTIAL_RUNS)
    m = {
        "rng.take_s": total("rng.take"),
        "rng.take_calls": calls("rng.take"),
        "models.eval_calls": evals,
        "models.rows_per_call": traced["model_rows"] / evals if evals else 0.0,
        "models.eval_s": total("models.eval"),
        "simulate.spoc_run_s": total("simulate.spoc_run"),
        "simulate.coupled_spoc_run_s": total("simulate.coupled_spoc_run"),
        "simulate.loop_self_s": total(*SEQUENTIAL_RUNS, key="self_s"),
        "simulate.loop_share": 100.0 * loop_s / traced["wall_s"],
        "simulate.classical_poc_run_s": total("simulate.classical_poc_run"),
        "simulate.reference_run_s": total("simulate.reference_run"),
        "simulate.save_run_s": total("simulate.save_run"),
        "simulate.load_run_s": total("simulate.load_run"),
        "simulate.save_run_mb": traced["saved_bytes"] / 2**20,
        "measures.snapshot_build_s": total("measures.snapshot_build"),
        "measures.to_csv_s": total("measures.to_csv"),
        "measures.from_csv_s": total("measures.from_csv"),
        "measures.wasserstein_1d_s": total("measures.wasserstein_1d"),
        "measures.sliced_w2_s": total("measures.sliced_w2"),
        "measures.w2_quantile_grid_s": total("measures.w2_quantile_grid"),
        "analysis.convergence_study_s": total("analysis.convergence_study"),
        "analysis.iid_convergence_study_s": total("analysis.iid_convergence_study"),
        "analysis.study_self_s": total("analysis.convergence_study",
                                       "analysis.iid_convergence_study", key="self_s"),
        "analysis.density_histogram_s": total("analysis.density_histogram"),
        "schedules.alphas_s": total("schedules.alphas"),
        "svgplot.write_s": total("svgplot.write"),
        "cli.dispatch_s": total("cli.dispatch"),
        "cli.self_s": total("cli.dispatch", key="self_s"),
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    m.update({f"{mod.removeprefix('spoc.')}.import_s": s for mod, s in imports.items()})
    return m


def main() -> int:
    deadline = time.monotonic() + BUDGET_S
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spoc" / "__init__.py").is_file():
        print("bench: run from the root of a spoc checkout (src/spoc is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    env = child_env(root)
    try:
        plain = run_workload(root, env, deadline, args, traced=False)
        if args.trace:
            traced = run_workload(root, env, deadline, args, traced=True)
            values = layer_metrics(plain, traced, import_seconds(root, env, deadline))
            wanted = spec["per_layer"]
        else:
            values = {
                "wall_s": plain["wall_s"],
                "particle_steps_per_s": plain["steps_per_round"] / plain["wall_s"],
                "setup_s": setup_seconds(root, env, deadline),
                "peak_rss_mb": plain["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    runs = [plain] + ([traced] if args.trace else [])
    problems = [msg for r in runs for msg in r["problems"]]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {**result, "margins": plain["margins"], "rounds": [r["rounds"] for r in runs],
              "round_walls": plain["round_walls"], "op_seconds": plain["op_seconds"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (root / ".bench_out" / f"{stem}-result.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
