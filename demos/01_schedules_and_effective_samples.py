"""Update-rate schedules and the effective sample size they induce.

theta_n = sum(w_i^2)/(sum w_i)^2 is the inverse effective sample size of the
weighted empirical measure: harmonic rates recover 1/n exactly, slower
power-law decay gives up a polynomial factor, and geometric rates plateau --
the measure then never converges.  The tail diagnostics classify each schedule
into its convergence-rate regime.
"""

from pathlib import Path

import numpy as np

from spoc import UpdateSchedule, decay_product, schedule_diagnostics, theta_sequence
from spoc.svgplot import loglog_rate_plot

OUT = Path(__file__).parent / "out" / "schedules"
OUT.mkdir(parents=True, exist_ok=True)

N = 20000
schedules = {
    "harmonic": UpdateSchedule.harmonic(N),
    "power_law_0.7": UpdateSchedule.power_law(0.7, N),
    "power_law_0.4": UpdateSchedule.power_law(0.4, N),
    "geometric_0.9": UpdateSchedule.geometric(0.9, 800),
}

ns = np.unique(np.geomspace(1, N, 60).astype(int))
series = {}
for name, sched in schedules.items():
    n_max = min(N, sched.max_n)
    theta = theta_sequence(sched, n_max)
    keep = ns[ns <= n_max]
    series[name] = (keep, theta[keep - 1])
    diag = schedule_diagnostics(sched, gamma=0.5)
    print(f"{name:>14}: theta_{n_max} = {theta[-1]:.3e}  regime = {diag.regime}"
          f"  (abar ~ {diag.abar_est:.3g}, alpha_inf ~ {diag.alpha_inf_est:.3g})")

loglog_rate_plot(OUT / "theta.svg", series, title="effective inverse sample size theta_n",
                 ylabel="theta_n", ref_slope=-1.0)

with open(OUT / "theta.csv", "w") as fh:
    fh.write("schedule,n,theta\n")
    for name, (xs, ys) in series.items():
        for x, y in zip(xs, ys):
            fh.write(f"{name},{x},{float(y)!r}\n")

# the guarded product prod(1 - delta*alpha_n) behaves like n^{-delta} for harmonic rates
ns_p = [2**k for k in range(8, 15)]
for delta in (0.25, 0.5, 1.5):
    vals = [decay_product(UpdateSchedule.harmonic(ns_p[-1]), delta, n) for n in ns_p]
    slope = np.polyfit(np.log(ns_p), np.log(vals), 1)[0]
    print(f"decay product, delta={delta}: fitted slope {slope:+.3f}")

print(f"outputs in {OUT}")
