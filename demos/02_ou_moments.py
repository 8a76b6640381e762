"""Mean-field Ornstein-Uhlenbeck: dX = (-2X - EX) dt + (2 - sqrt(E|X|^2)) dW.

Both coefficients read the law of the solution; the closed moment system
dm/dt = -3m, dS/dt = -4S - 2m^2 + (2 - sqrt(S))^2 has the invariant point
(0, 4/9), so the process settles at N(0, 4/9).  The sequential run tracks the
reference moment curves while adding particles one at a time.
"""

from pathlib import Path

import numpy as np
from scipy.stats import norm

from spoc import (
    InitialCondition,
    SimConfig,
    UpdateSchedule,
    builtin_model,
    density_histogram,
    reference_run,
    spoc_run,
)
from spoc.svgplot import density_plot

OUT = Path(__file__).parent / "out" / "ou_moments"
OUT.mkdir(parents=True, exist_ok=True)

model = builtin_model("mean_field_ou")
cfg = SimConfig(
    model=model,
    schedule=UpdateSchedule.harmonic(10**6),
    initial=InitialCondition.point(1.0),
    T=1.0, M=30, N=30000, seed=11, replications=5,
    milestones=(300, 3000, 30000),
    checkpoints=tuple(np.linspace(0.0, 1.0, 11)),
    measure_backend="summary_only",
)
run = spoc_run(cfg)
ref = reference_run(model, cfg, n_ref=1)

print("t      mean(run)   mean(ode)   second(run)  second(ode)")
with open(OUT / "moments.csv", "w") as fh:
    fh.write("t,mean_run,mean_ode,second_run,second_ode\n")
    for c, t in enumerate(cfg.checkpoints):
        mi = cfg.checkpoint_indices[c]
        m_run = run.mean_traj[:, -1, c, 0].mean()
        s_run = run.second_traj[:, -1, c].mean()
        row = (t, m_run, ref.mean[mi, 0], s_run, ref.second[mi])
        fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"{t:4.1f}  {m_run:+.5f}   {ref.mean[mi, 0]:+.5f}   "
              f"{s_run:.5f}      {ref.second[mi]:.5f}")

print("\nmilestone convergence of the terminal mean (target e^-3 = %.5f):" % np.exp(-3))
for l, n in enumerate(cfg.milestones):
    m = run.mean_traj[:, l, -1, 0]
    print(f"  n = {n:>6}: {m.mean():+.5f} +- {m.std(ddof=1):.5f}")

# a long run settles at the invariant law N(0, 4/9)
cfg_long = SimConfig(
    model=model, schedule=UpdateSchedule.harmonic(10**6),
    initial=InitialCondition.point(1.0),
    T=6.0, M=120, N=30000, seed=12, replications=1,
    milestones=(30000,), measure_backend="full_atoms",
)
long_run = spoc_run(cfg_long)
snap = long_run.snapshots[(0, 30000, 120)]
curve = density_histogram(snap, 40, range=(-2.0, 2.0))
grid = np.linspace(-2, 2, 200)
density_plot(
    OUT / "invariant_density.svg",
    {"empirical (T=6)": (curve.centers, curve.density),
     "N(0, 4/9)": (grid, norm.pdf(grid, 0.0, 2.0 / 3.0))},
    title="terminal density vs invariant law",
)
gap = np.max(np.abs(curve.density - norm.pdf(curve.centers, 0.0, 2.0 / 3.0)))
print(f"\nsup-norm gap to the N(0,4/9) density at T=6: {gap:.3f}")
print(f"outputs in {OUT}")
