"""A 3-d nonlinear system: damping toward the origin, repulsion from the mean.

dX = (-0.1 X + e / (0.1 + |X - EX|^2)) dt + dB with e the unit vector along
X - EX.  The interaction reads only the running mean, so sequential updates
cost O(1) per particle per step; distances to a classical surrogate use the
sliced estimator (64 random directions), with the surrogate's side projected
and sorted once for all 16 distances.
"""

from pathlib import Path

import numpy as np

from spoc import (
    InitialCondition,
    SimConfig,
    SlicedReference,
    UpdateSchedule,
    builtin_model,
    classical_poc_run,
    rate_fit,
    sliced_w2,
    spoc_run,
)
from spoc.svgplot import loglog_rate_plot

OUT = Path(__file__).parent / "out" / "repulsive3d"
OUT.mkdir(parents=True, exist_ok=True)

model = builtin_model("repulsive3d")
milestones = (125, 500, 2000, 8000)
cfg = SimConfig(
    model=model,
    schedule=UpdateSchedule.harmonic(10**5),
    initial=InitialCondition.gaussian(0.0, 1.0),
    T=1.0, M=20, N=8000, seed=41, replications=4,
    milestones=milestones, measure_backend="full_atoms",
)
run = spoc_run(cfg)

surrogate = classical_poc_run(SimConfig(
    model=model, schedule=UpdateSchedule.harmonic(10**5),
    initial=InitialCondition.gaussian(0.0, 1.0),
    T=1.0, M=20, N=40000, seed=999, replications=1,
    milestones=(40000,), measure_backend="full_atoms",
))
ref = SlicedReference(surrogate.snapshots[(0, 40000, 20)], 64, seed=77)

dists = []
for l, n in enumerate(milestones):
    d = np.mean([
        sliced_w2(run.snapshots[(r, n, 20)], ref, 64, seed=77) for r in range(4)
    ])
    dists.append(d)
    m = run.mean_traj[:, l, -1].mean(axis=0)
    print(f"n = {n:>5}: sliced W2 to surrogate = {d:.4f}, "
          f"mean = ({m[0]:+.3f}, {m[1]:+.3f}, {m[2]:+.3f})")

fit = rate_fit(milestones, dists)
print(f"fitted slope {fit.slope:+.3f} (surrogate noise floors the last point)")
loglog_rate_plot(OUT / "sliced_w2.svg", {"sliced W2": (list(milestones), dists)},
                 title="3-d model: sliced W2 to a classical surrogate",
                 ref_slope=-0.5)
print(f"outputs in {OUT}")
