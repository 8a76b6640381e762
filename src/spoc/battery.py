"""Self-contained invariant battery behind the `verify` subcommand.

Each check cross-validates one implementation path against an independent
route: recursion vs direct weight sums, transport LP vs the 1-d quantile
coupling, transform tables vs their defining ODE and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (
    GroundCost,
    WeightedEmpirical,
    combine_kn,
    wasserstein_1d,
    wasserstein_exact,
)
from .models import KappaProfile, build_f_from_kappa, curie_weiss_weak_interaction_check
from .schedules import UpdateSchedule, theta_sequence, weight_sequence


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def run_battery() -> list[CheckResult]:
    checks = []
    rng = np.random.default_rng(20240915)

    # theta identity for the uniform-weight schedule, n <= 1e6
    sched = UpdateSchedule.harmonic(10**6)
    theta = theta_sequence(sched, 10**6)
    err = float(np.max(np.abs(theta * np.arange(1, 10**6 + 1) - 1.0)))
    checks.append(_check("theta_harmonic_identity", err <= 1e-10, f"max |theta_n*n - 1| = {err:.2e}"))

    # theta recursion vs direct weight-sum ratio
    worst = 0.0
    for r in (0.4, 0.7, 1.0):
        s = UpdateSchedule.power_law(r, 4000)
        w = weight_sequence(s, 2000)
        direct = np.cumsum(w**2) / np.cumsum(w) ** 2
        worst = max(worst, float(np.max(np.abs(theta_sequence(s, 2000) - direct)
                                        / np.abs(direct))))
    checks.append(_check("theta_vs_weight_sums", worst <= 1e-10, f"worst rel err = {worst:.2e}"))

    # weight reconstruction alpha_n = w_n / sum_{i<=n} w_i
    worst = 0.0
    for s, n in ((UpdateSchedule.harmonic(), 1500), (UpdateSchedule.power_law(0.5), 1500),
                 (UpdateSchedule.geometric(0.7), 120)):
        w = weight_sequence(s, n)
        alpha_rec = w / np.cumsum(w)
        worst = max(worst, float(np.max(np.abs(alpha_rec - s.alphas(n)) / s.alphas(n))))
    checks.append(_check("weight_reconstruction", worst <= 1e-12, f"worst rel err = {worst:.2e}"))

    # K_n of a constant sequence is that constant
    val = combine_kn(np.full(257, 3.25), UpdateSchedule.harmonic(300))
    checks.append(_check("kn_fixed_point", val == 3.25, f"K_n(const 3.25) = {val!r}"))

    # transport LP vs the 1-d quantile coupling
    worst = 0.0
    for _ in range(20):
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        mu = WeightedEmpirical(rng.standard_normal(na), rng.random(na) + 0.05)
        nu = WeightedEmpirical(rng.standard_normal(nb), rng.random(nb) + 0.05)
        d_lp = wasserstein_exact(mu, nu, GroundCost.power(2.0)) ** 0.5
        d_1d = wasserstein_1d(mu, nu, 2.0)
        worst = max(worst, abs(d_lp - d_1d) / max(d_1d, 1e-300))
    checks.append(_check("transport_lp_vs_quantile", worst <= 1e-9, f"worst rel err = {worst:.2e}"))

    # transform profiles: ODE residual, concavity, envelope bounds
    try:
        for kappa in (KappaProfile.constant(1.0), KappaProfile.curie_weiss(1.0)):
            profile = build_f_from_kappa(kappa, r_max=6.0, n_grid=61)
            profile.validate(kappa)
        checks.append(_check("f_profile_battery", True, "residual/concavity/bounds hold"))
    except Exception as exc:  # noqa: BLE001 - report, do not crash the battery
        checks.append(_check("f_profile_battery", False, str(exc)))

    # weak-interaction closed form vs quadrature
    try:
        res = curie_weiss_weak_interaction_check(1.0, 0.5)
        rel = abs(res.rhs - res.rhs_quadrature) / res.rhs
        checks.append(_check("weak_interaction_two_routes", rel <= 1e-6,
                             f"closed vs quadrature rel err = {rel:.2e}"))
    except Exception as exc:  # noqa: BLE001
        checks.append(_check("weak_interaction_two_routes", False, str(exc)))

    return checks
