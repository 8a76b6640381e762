"""Model definitions: drift/diffusion evaluated against a measure view, the three
builtin experiment models, and the concave distance-transform machinery built
from a dissipativity profile kappa.

Evaluators must be pure and vectorized: x has shape (..., dim) and the measure
view carries broadcast-compatible fields.  Moment-interaction models read only
`view.mean` and `view.raw_second_moment`; full-measure models receive an object
with `atoms` and `weights`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionMismatchError,
    ModelEvaluationError,
    NumericsError,
)
from .measures import WeightedEmpirical, summary_stats

INTERACTION_FULL = "full_measure"
INTERACTION_MOMENT = "moment_only"

NOISE_MEASURE_DEPENDENT = "measure_dependent"
NOISE_MEASURE_FREE = "measure_free"
NOISE_ADDITIVE_PLUS_FREE = "additive_plus_measure_free"


@dataclass(frozen=True)
class ModelSpec:
    """Drift b(t, x, mu-view) and diffusion sigma(t, x, mu-view) with metadata.

    t is a float or an array that broadcasts against x[..., :1]: sequential
    runs of moment-interaction models step many particles at different grid
    times in one call, and pass t with shape (L, 1, 1) for x of shape
    (L, R, dim).  The view fields then carry the same leading axes as x
    (mean (L, R, dim), raw_second_moment (L, R)).  An evaluator that reads t
    combines it with x-shaped terms, e.g. t * view.raw_second_moment[..., None].

    diffusion returns a scalar / (...,) array (meaning sigma * identity) or a
    (..., dim, dim) matrix.  additive_amplitude is the amplitude of an extra
    measure-free additive noise term (the sigma(t,x) dW + dB form); zero when
    absent.  moment_ode, when supplied, is the closed moment system
    (t, mean, second) -> (dmean/dt, dsecond/dt) used for reference solutions.
    """

    name: str
    dim: int
    drift: Callable
    diffusion: Callable
    interaction_form: str
    noise_form: str
    params: dict = field(default_factory=dict)
    moment_ode: Callable | None = None
    additive_amplitude: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        if self.interaction_form not in (INTERACTION_FULL, INTERACTION_MOMENT):
            raise ValueError(f"unknown interaction_form {self.interaction_form!r}")
        if self.noise_form not in (
            NOISE_MEASURE_DEPENDENT,
            NOISE_MEASURE_FREE,
            NOISE_ADDITIVE_PLUS_FREE,
        ):
            raise ValueError(f"unknown noise_form {self.noise_form!r}")
        if self.noise_form == NOISE_ADDITIVE_PLUS_FREE and self.additive_amplitude <= 0.0:
            raise ValueError("additive_plus_measure_free requires additive_amplitude > 0")

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return builtin_model(d["name"], d.get("params"))


def evaluate_model(model: ModelSpec, t: float, x, mu_view):
    """Evaluate (drift, diffusion) with view coercion and finiteness checks.

    Moment-only models given a full WeightedEmpirical view are evaluated on its
    summary statistics (the two backends must agree); full-measure models
    require an atom view.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.dim:
        raise DimensionMismatchError(f"point dim {x.shape[-1]} != model dim {model.dim}")
    if model.interaction_form == INTERACTION_MOMENT:
        if isinstance(mu_view, WeightedEmpirical):
            mu_view = summary_stats(mu_view)
        if not hasattr(mu_view, "mean") or not hasattr(mu_view, "raw_second_moment"):
            raise ValueError("moment-only models need a view with mean / raw_second_moment")
    else:
        if not hasattr(mu_view, "atoms") or not hasattr(mu_view, "weights"):
            raise ValueError("full-measure models need an atom view")
    b = np.asarray(model.drift(t, x, mu_view), dtype=float)
    s = np.asarray(model.diffusion(t, x, mu_view), dtype=float)
    if not np.all(np.isfinite(b)) or not np.all(np.isfinite(s)):
        raise ModelEvaluationError(
            f"non-finite drift/diffusion for model {model.name} at t={t}", t=t, x=x
        )
    if b.shape[-1] != model.dim:
        raise ModelEvaluationError(
            f"drift output dim {b.shape[-1]} != model dim {model.dim}", t=t, x=x
        )
    return b, s


# -- builtin models ----------------------------------------------------------
# Module-level evaluator functions keep ModelSpec picklable for worker processes.


def _ou_drift(t, x, view):
    return -2.0 * x - np.asarray(view.mean)


def _ou_diffusion(t, x, view):
    return 2.0 - np.sqrt(np.asarray(view.raw_second_moment))


def _ou_moment_ode(t, mean, second):
    sig = 2.0 - math.sqrt(max(second, 0.0))
    return -3.0 * mean, -4.0 * second - 2.0 * float(mean @ mean) + sig * sig


def _cw_drift(t, x, view, beta, K):
    return -beta * (x**3 - x) + beta * K * np.asarray(view.mean)


def _const_diffusion(t, x, view, sigma):
    return sigma


def _repulsive3d_drift(t, x, view, alpha, beta):
    diff = x - np.asarray(view.mean)
    sq = np.sum(diff**2, axis=-1, keepdims=True)
    nrm = np.sqrt(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        force = np.where(nrm > 0.0, diff / (nrm * (beta + sq)), 0.0)
    return -alpha * x + force


_BUILTIN_DEFAULTS = {
    "mean_field_ou": {},
    "curie_weiss": {"beta": 1.0, "K": 0.5, "sigma": 1.0},
    "repulsive3d": {"alpha": 0.1, "beta": 0.1, "sigma": 1.0},
}


def builtin_model(name: str, params: dict | None = None) -> ModelSpec:
    """Construct one of the builtin experiment models.

    mean_field_ou: dX = (-2X - EX) dt + (2 - sqrt(E|X|^2)) dW, dim 1.
    curie_weiss:   dX = [-beta (X^3 - X) + beta K EX] dt + sigma dW, dim 1.
    repulsive3d:   dX = (-alpha X + e/(beta + |X - EX|^2)) dt + sigma dB, dim 3,
                   with e the unit vector along X - EX (zero at X = EX).
    """
    if name not in _BUILTIN_DEFAULTS:
        raise ConfigError(f"unknown builtin model {name!r}", key="model.name")
    defaults = dict(_BUILTIN_DEFAULTS[name])
    params = dict(params or {})
    if not set(params) <= set(defaults) or not all(
            isinstance(v, numbers.Real) for v in params.values()):
        raise ConfigError(f"{name} takes numeric params {sorted(defaults)}, got {params}",
                          key="model.params")
    defaults.update(params)
    p = defaults

    if name == "mean_field_ou":
        return ModelSpec(
            name=name,
            dim=1,
            drift=_ou_drift,
            diffusion=_ou_diffusion,
            interaction_form=INTERACTION_MOMENT,
            noise_form=NOISE_MEASURE_DEPENDENT,
            params={},
            moment_ode=_ou_moment_ode,
        )
    if name == "curie_weiss":
        if p["beta"] <= 0.0 or p["sigma"] <= 0.0:
            raise ConfigError("curie_weiss requires beta > 0 and sigma > 0", key="model.params")
        return ModelSpec(
            name=name,
            dim=1,
            drift=partial(_cw_drift, beta=p["beta"], K=p["K"]),
            diffusion=partial(_const_diffusion, sigma=p["sigma"]),
            interaction_form=INTERACTION_MOMENT,
            noise_form=NOISE_MEASURE_FREE,
            params=p,
        )
    if p["alpha"] <= 0.0 or p["beta"] <= 0.0 or p["sigma"] <= 0.0:
        raise ConfigError("repulsive3d requires alpha, beta, sigma > 0", key="model.params")
    return ModelSpec(
        name=name,
        dim=3,
        drift=partial(_repulsive3d_drift, alpha=p["alpha"], beta=p["beta"]),
        diffusion=partial(_const_diffusion, sigma=p["sigma"]),
        interaction_form=INTERACTION_MOMENT,
        noise_form=NOISE_MEASURE_FREE,
        params=p,
    )


# -- dissipativity profile and the concave distance transform ----------------


@dataclass(frozen=True)
class KappaProfile:
    """Increasing dissipativity profile kappa with limit kappa_inf > 0 at infinity
    (possibly +inf) and r*kappa(r) -> 0 at 0+.  An optional truncation level
    caps kappa at lambda (keeps f'(0) finite for unbounded profiles); an optional
    exact antiderivative G(r) = int_0^r tau*kappa(tau) dtau of the *untruncated*
    profile removes inner-quadrature error."""

    fn: Callable[[np.ndarray], np.ndarray]
    kappa_inf: float
    truncation: float | None = None
    antiderivative: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.truncation is not None and self.truncation <= 0.0:
            raise AssumptionViolationError("truncation level must be > 0")
        rs = np.geomspace(1e-6, 64.0, 256)
        vals = self.evaluate(rs)
        if not np.all(np.isfinite(vals)):
            raise AssumptionViolationError("kappa must be finite on (0, inf)")
        if np.any(np.diff(vals) < -1e-10 * (1.0 + np.abs(vals[:-1]))):
            raise AssumptionViolationError("kappa must be non-decreasing")
        r0 = 1e-9
        if abs(r0 * float(np.asarray(self.fn(np.array([r0])))[0])) > 1e-4:
            raise AssumptionViolationError("r * kappa(r) must vanish as r -> 0+")

    @property
    def kappa_inf_effective(self) -> float:
        if self.truncation is None:
            return self.kappa_inf
        return min(self.kappa_inf, self.truncation)

    def evaluate(self, r) -> np.ndarray:
        v = np.asarray(self.fn(np.asarray(r, dtype=float)), dtype=float)
        if self.truncation is not None:
            v = np.minimum(v, self.truncation)
        return v

    @classmethod
    def constant(cls, c: float) -> "KappaProfile":
        if c <= 0.0:
            raise AssumptionViolationError("constant profile requires c > 0")
        return cls(
            fn=partial(_const_kappa, c=c),
            kappa_inf=c,
            antiderivative=partial(_const_kappa_anti, c=c),
            name=f"constant_{c:g}",
        )

    @classmethod
    def curie_weiss(cls, beta: float, truncation: float | None = None) -> "KappaProfile":
        """kappa(r) = beta (r^2/4 - 1), the profile of the cubic lattice drift."""
        if beta <= 0.0:
            raise AssumptionViolationError("curie_weiss profile requires beta > 0")
        return cls(
            fn=partial(_cw_kappa, beta=beta),
            kappa_inf=math.inf,
            truncation=truncation,
            antiderivative=partial(_cw_kappa_anti, beta=beta),
            name=f"curie_weiss_{beta:g}",
        )


def _const_kappa(r, c):
    return np.full_like(np.asarray(r, dtype=float), c)


def _const_kappa_anti(r, c):
    return c * np.asarray(r, dtype=float) ** 2 / 2.0


def _cw_kappa(r, beta):
    r = np.asarray(r, dtype=float)
    return beta * (r**2 / 4.0 - 1.0)


def _cw_kappa_anti(r, beta):
    r = np.asarray(r, dtype=float)
    return beta * (r**4 / 16.0 - r**2 / 2.0)


@dataclass(frozen=True)
class FProfile:
    """Tabulated concave transform f with f(0) = 0, f' > 0 and
    2 f''(r) - r kappa(r) f'(r) = -r; f'' is taken from that identity rather
    than from numerical differentiation."""

    grid: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    f_double_prime: np.ndarray
    f_prime_0: float
    kappa_inf: float

    def __call__(self, r):
        return np.interp(r, self.grid, self.f)

    def validate(self, kappa: KappaProfile | None = None) -> None:
        """Raise AssumptionViolationError when a tabulated invariant fails."""
        g, f, fp, fpp = self.grid, self.f, self.f_prime, self.f_double_prime
        if f[0] != 0.0:
            raise AssumptionViolationError("f(0) must be 0")
        if np.any(fp <= 0.0):
            raise AssumptionViolationError("f' must be strictly positive")
        if np.any(fpp > 1e-10):
            raise AssumptionViolationError("f must be concave (f'' <= 1e-10)")
        pos = g > 0.0
        ratio = f[pos] / g[pos]
        lo = 0.0 if not np.isfinite(self.kappa_inf) else 1.0 / self.kappa_inf
        slack = 1e-12
        if np.any(ratio < lo * (1.0 - slack) - 1e-15):
            raise AssumptionViolationError("f(r)/r fell below 1/kappa_inf")
        if np.any(ratio > self.f_prime_0 * (1.0 + slack) + 1e-15):
            raise AssumptionViolationError("f(r)/r exceeded f'(0)")
        if kappa is not None:
            kv = kappa.evaluate(g)
            resid = np.abs(2.0 * fpp - g * kv * fp + g)
            if np.any(resid > 1e-6 * (1.0 + g)):
                raise AssumptionViolationError("transform ODE residual exceeds 1e-6*(1+r)")


def _make_g_eff(kappa: KappaProfile, s_max: float) -> Callable:
    """Antiderivative of r*kappa_eff(r), exact where possible.

    With truncation and an exact antiderivative, splice G at the crossing
    kappa(r*) = lambda; otherwise accumulate a dense cumulative Simpson table.
    """
    if kappa.antiderivative is not None and kappa.truncation is None:
        return kappa.antiderivative
    if kappa.antiderivative is not None:
        lam = kappa.truncation
        k0 = float(np.asarray(kappa.fn(np.array([1e-12])))[0])
        kmax = float(np.asarray(kappa.fn(np.array([s_max])))[0])
        if kmax <= lam:  # truncation never binds on the working range
            return kappa.antiderivative
        if k0 >= lam:
            return lambda r: lam * np.asarray(r, dtype=float) ** 2 / 2.0
        from scipy.optimize import brentq

        r_star = brentq(lambda r: float(np.asarray(kappa.fn(np.array([r])))[0]) - lam,
                        1e-12, s_max)
        g_star = float(np.asarray(kappa.antiderivative(r_star)))

        def g_eff(r):
            r = np.asarray(r, dtype=float)
            below = np.asarray(kappa.antiderivative(np.minimum(r, r_star)))
            above = g_star + lam * (r**2 - r_star**2) / 2.0
            return np.where(r <= r_star, below, above)

        return g_eff

    return _NumericAntiderivative(kappa, s_max)


class _NumericAntiderivative:
    """Dense cumulative-Simpson table of int_0^s tau*kappa_eff(tau) dtau with a
    cubic-spline read-out; auto-extends when queried beyond its range."""

    _NODES_PER_UNIT = 3200  # h = 3.1e-4: table error ~ h^4, well below 1e-12

    def __init__(self, kappa: KappaProfile, s_max: float):
        self._kappa = kappa
        self._build(max(s_max, 1.0))

    def _build(self, s_max: float) -> None:
        from scipy.integrate import cumulative_simpson
        from scipy.interpolate import CubicSpline

        n = int(s_max * self._NODES_PER_UNIT) + 1
        nodes = np.linspace(0.0, s_max, n)
        vals = nodes * self._kappa.evaluate(nodes)
        table = cumulative_simpson(vals, x=nodes, initial=0.0)
        self._spline = CubicSpline(nodes, table)
        self.s_max = s_max

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        top = float(np.max(s, initial=0.0))
        if top > self.s_max:
            self._build(max(self.s_max * 2.0, top * 1.5))
        return self._spline(s)


def _f_prime_factory(kappa: KappaProfile) -> Callable[[float], float]:
    """f'(r) = 1/2 * int_r^inf s * exp(-(G(s) - G(r))/2) ds by adaptive quadrature,
    with the upper limit cut where the integrand falls below 1e-14 of its peak."""
    from scipy import integrate

    probe_max = 512.0
    g_eff = _make_g_eff(kappa, 64.0)
    log_cut = math.log(1e-14)

    def f_prime(r: float) -> float:
        g_r = float(np.asarray(g_eff(r)))

        def log_integrand(s):
            return math.log(max(s, 1e-300)) - 0.5 * (float(np.asarray(g_eff(s))) - g_r)

        # march outward to find the peak and then the cutoff point
        s = max(r, 1e-3)
        peak = log_integrand(s)
        step = max(0.25, 0.05 * max(r, 1.0))
        s_hi = s
        while True:
            s_hi += step
            li = log_integrand(s_hi)
            peak = max(peak, li)
            if li < peak + log_cut:
                break
            step *= 1.25
            if s_hi > probe_max:
                raise NumericsError(
                    "integrand tail does not decay; kappa_inf <= 0 on the working range?"
                )

        def integrand(s):
            return s * np.exp(-0.5 * (np.asarray(g_eff(s)) - g_r))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            out = integrate.quad(
                integrand, r, s_hi, epsabs=1e-13, epsrel=1e-11, limit=300, full_output=1
            )
        val, abserr = out[0], out[1]
        # roundoff-limited results are fine as long as the error estimate is tight
        if not np.isfinite(val) or abserr > max(1e-9, 1e-7 * abs(val)):
            raise NumericsError(
                f"f' quadrature did not converge at r={r:g} (abserr {abserr:.2e})"
            )
        return 0.5 * val

    return f_prime


# Gauss-Legendre nodes for the cumulative integral of f'
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def build_f_from_kappa(
    kappa: KappaProfile,
    r_max: float = 8.0,
    n_grid: int = 161,
) -> FProfile:
    """Construct the concave transform profile induced by kappa.

    f' by adaptive quadrature of its defining integral, f by per-segment
    Gauss-Legendre integration of f', and f'' from the ODE identity
    f'' = (r kappa(r) f'(r) - r)/2.
    """
    if kappa.kappa_inf_effective <= 0.0:
        raise AssumptionViolationError(
            "kappa_inf must be > 0 (truncate above 0 for unbounded profiles)"
        )
    if r_max <= 0.0 or n_grid < 2:
        raise ValueError("need r_max > 0 and n_grid >= 2")
    grid = np.linspace(0.0, r_max, n_grid)
    f_prime_fn = _f_prime_factory(kappa)
    f_prime = np.array([f_prime_fn(float(r)) for r in grid])

    f = np.empty_like(grid)
    f[0] = 0.0
    for i in range(1, grid.size):
        a, b = grid[i - 1], grid[i]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        seg = sum(w * f_prime_fn(mid + half * xi) for xi, w in zip(_GL_NODES, _GL_WEIGHTS))
        f[i] = f[i - 1] + half * seg

    kv = kappa.evaluate(grid)
    f_double_prime = 0.5 * (grid * kv * f_prime - grid)
    profile = FProfile(
        grid=grid,
        f=f,
        f_prime=f_prime,
        f_double_prime=f_double_prime,
        f_prime_0=float(f_prime[0]),
        kappa_inf=kappa.kappa_inf_effective,
    )
    profile.validate(kappa)
    return profile


@dataclass(frozen=True)
class WeakInteractionCheck:
    """Result of the lattice-model interaction-strength test: the condition
    holds iff K <= 0 or 1/K > rhs, with rhs = sqrt(2 pi beta e^beta) Phi(sqrt(beta))
    computed both in closed form and by direct quadrature of beta * f'(0)."""

    satisfied: bool
    lhs: float
    rhs: float
    rhs_quadrature: float
    eta: float
    f_prime_0: float


def curie_weiss_weak_interaction_check(beta: float, K: float) -> WeakInteractionCheck:
    """Check the sufficient weak-interaction condition for the cubic lattice model.

    eta = beta*|K| is the measure-argument Lipschitz constant of the drift; the
    margin requirement is eta * f'(0) < 1, which for K > 0 reads
    1/K > beta * f'(0) = sqrt(2 pi beta e^beta) Phi(sqrt(beta)).
    """
    from scipy import integrate
    from scipy.stats import norm

    if beta <= 0.0:
        raise AssumptionViolationError("beta must be > 0")
    rhs_closed = math.sqrt(2.0 * math.pi * beta * math.exp(beta)) * float(norm.cdf(math.sqrt(beta)))

    def integrand(s):
        return s * np.exp(-beta * (s**4 / 32.0 - s**2 / 4.0))

    s_hi = 4.0
    while integrand(s_hi) > 1e-18 * beta:
        s_hi *= 1.5
    val, _ = integrate.quad(integrand, 0.0, s_hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    f_prime_0 = 0.5 * val
    rhs_quad = beta * f_prime_0
    if abs(rhs_quad - rhs_closed) > 1e-6 * abs(rhs_closed):
        raise NumericsError(
            f"quadrature {rhs_quad!r} and closed form {rhs_closed!r} disagree beyond 1e-6"
        )
    lhs = math.inf if K == 0.0 else 1.0 / K
    satisfied = K <= 0.0 or lhs > rhs_closed
    return WeakInteractionCheck(
        satisfied=satisfied,
        lhs=lhs,
        rhs=rhs_closed,
        rhs_quadrature=rhs_quad,
        eta=beta * abs(K),
        f_prime_0=f_prime_0,
    )
