"""The concave distance transform built from a dissipativity profile.

Given an increasing kappa with positive limit, f'(r) = 1/2 int_r^inf
s exp(-1/2 int_r^s tau kappa(tau) dtau) ds defines a concave f with
2f'' - r kappa f' = -r and 1/kappa_inf <= f(r)/r <= f'(0).  Measuring
distances through f is what turns dissipativity at large separations into
a uniform-in-time contraction; f'(0) quantifies how much interaction
strength the contraction can absorb.
"""

from pathlib import Path

import numpy as np

from spoc import (
    KappaProfile,
    build_f_from_kappa,
    curie_weiss_weak_interaction_check,
)
from spoc.svgplot import density_plot

OUT = Path(__file__).parent / "out" / "distance_transform"
OUT.mkdir(parents=True, exist_ok=True)

profiles = {
    "constant_1": KappaProfile.constant(1.0),
    "cubic_lattice_beta_1": KappaProfile.curie_weiss(1.0),
    "cubic_lattice_beta_1_capped_3": KappaProfile.curie_weiss(1.0, truncation=3.0),
}

curves = {}
with open(OUT / "profiles.csv", "w") as fh:
    fh.write("profile,r,f,f_prime,f_double_prime\n")
    for name, kappa in profiles.items():
        prof = build_f_from_kappa(kappa, r_max=6.0, n_grid=61)
        prof.validate(kappa)
        curves[name] = (prof.grid, prof.f)
        for r, f, fp, fpp in zip(prof.grid, prof.f, prof.f_prime, prof.f_double_prime):
            fh.write(f"{name},{float(r)!r},{float(f)!r},{float(fp)!r},{float(fpp)!r}\n")
        print(f"{name:>28}: f'(0) = {prof.f_prime_0:.6f}, "
              f"max f'' = {np.max(prof.f_double_prime):.2e}, "
              f"f(6)/6 = {prof.f[-1] / 6.0:.4f}")

density_plot(OUT / "transforms.svg", curves, title="concave distance transforms f",
             xlabel="r", ylabel="f(r)")

print("\nweak-interaction margins for the cubic lattice drift "
      "-beta(x^3 - x) + beta K EX:")
for beta in (0.5, 1.0, 2.0):
    for K in (0.1, 0.5, -0.5):
        res = curie_weiss_weak_interaction_check(beta, K)
        print(f"  beta = {beta:3.1f}, K = {K:+.1f}: satisfied = {str(res.satisfied):<5} "
              f"(1/K = {res.lhs:+.2f} vs bound {res.rhs:.4f}, eta*f'(0) = "
              f"{res.eta * res.f_prime_0:.3f})")

print(f"outputs in {OUT}")
