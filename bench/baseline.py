"""Reference figures for the ROADMAP Baseline configs, one run each.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 bench/baseline.py

Run from the root of a checkout.  Prints one line per config: wall seconds
and requested particle-steps (N*M*R) per second.  These are single runs for
orientation, not gated metrics; bench/run.py measures the gated workloads.
"""

from __future__ import annotations

import time

from spoc import (InitialCondition, SimConfig, UpdateSchedule, builtin_model,
                  classical_poc_run, coupled_spoc_run, reference_run, spoc_run)


def ou(**kw) -> SimConfig:
    base = dict(model=builtin_model("mean_field_ou"), schedule=UpdateSchedule.harmonic(10**6),
                initial=InitialCondition.point(1.0), T=1.0, M=30, N=20_000, seed=7,
                replications=5, measure_backend="summary_only")
    base.update(kw)
    return SimConfig(**base)


CASES = [
    ("spoc_run OU, summary, N=2e4 M=30 R=5", spoc_run, ou()),
    ("spoc_run OU, summary, R=1", spoc_run, ou(replications=1)),
    ("spoc_run OU, full_atoms, R=5", spoc_run, ou(measure_backend="full_atoms")),
    ("spoc_run curie_weiss, R=5", spoc_run, ou(model=builtin_model("curie_weiss"))),
    ("spoc_run repulsive3d, R=5", spoc_run,
     ou(model=builtin_model("repulsive3d"), initial=InitialCondition.point([1.0, 0.0, 0.0]))),
    ("coupled_spoc_run OU, R=5", coupled_spoc_run, ou()),
    ("classical_poc_run OU, N=1e5 M=30 R=5", classical_poc_run, ou(N=100_000)),
]


def main() -> None:
    for label, runner, cfg in CASES:
        t0 = time.perf_counter()
        runner(cfg)
        wall = time.perf_counter() - t0
        print(f"{label:40s} {wall:7.2f} s  {cfg.N * cfg.M * cfg.replications / wall / 1e6:6.2f} M/s")
    cfg = ou(N=100_000)
    t0 = time.perf_counter()
    reference_run(cfg.model, cfg, n_ref=100_000)
    wall = time.perf_counter() - t0
    print(f"{'reference_run OU, n_ref=1e5':40s} {wall:7.2f} s  {cfg.N * cfg.M / wall / 1e6:6.2f} M/s")


if __name__ == "__main__":
    main()
