"""Update-rate schedules and the weight / effective-sample-size machinery they induce.

A schedule is a decreasing positive sequence alpha_1 = 1 >= alpha_2 >= ... > 0.
Feeding new points into the recursion s_n = s_{n-1} + alpha_n (x_n - s_{n-1})
realizes a weighted average with weights w_1 = 1, w_n = alpha_n * prod_{i=2}^n (1-alpha_i)^{-1};
theta_n = sum w_i^2 / (sum w_i)^2 is the effective inverse sample size that
controls the Monte-Carlo error of the weighted empirical measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidScheduleError, NumericsError, SingularScheduleError

SCHEDULE_KINDS = ("harmonic", "power_law", "geometric", "explicit")

# Regime labels for tail diagnostics: algebraic rate alpha_n^gamma, product-form
# rate prod(1 - delta*alpha_i), and the fast product regime (abar >= 2).
REGIME_ALPHA_GAMMA = "rate_alpha_gamma"
REGIME_PRODUCT = "rate_product"
REGIME_PRODUCT_FAST = "rate_product_fast"


@dataclass(frozen=True)
class UpdateSchedule:
    """Immutable description of an update-rate sequence.

    Use the classmethod constructors; they validate the kind's parameters
    (alpha_1 = 1, positivity and monotonicity of explicit values).  alphas(N)
    alone decides whether the schedule serves N particles; max_n is only the
    horizon that the schedule diagnostics read.
    """

    kind: str
    max_n: int
    r: float | None = None
    q: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.max_n < 1:
            raise InvalidScheduleError("max_n must be >= 1")
        if self.kind == "power_law":
            if self.r is None or not (0.0 < self.r <= 1.0):
                raise InvalidScheduleError("power_law requires r in (0, 1]")
        elif self.kind == "geometric":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise InvalidScheduleError("geometric requires q in (0, 1)")
        elif self.kind == "explicit":
            if self.values is None or len(self.values) == 0:
                raise InvalidScheduleError("explicit schedule needs at least one value")
            v = np.asarray(self.values, dtype=float)
            if v[0] != 1.0:
                raise InvalidScheduleError("alpha_1 must equal 1 exactly")
            if np.any(v <= 0.0):
                raise InvalidScheduleError("alpha_n must be strictly positive")
            if np.any(np.diff(v) > 0.0):
                raise InvalidScheduleError("alpha_n must be non-increasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def harmonic(cls, max_n: int = 10**6) -> "UpdateSchedule":
        """alpha_n = 1/n; recovers the uniform empirical measure."""
        return cls(kind="harmonic", max_n=max_n)

    @classmethod
    def power_law(cls, r: float, max_n: int = 10**6) -> "UpdateSchedule":
        """alpha_n = n^{-r} with r in (0, 1]."""
        return cls(kind="power_law", max_n=max_n, r=float(r))

    @classmethod
    def geometric(cls, q: float, max_n: int = 1000) -> "UpdateSchedule":
        """alpha_n = q^{n-1} with q in (0, 1), for n up to float underflow."""
        return cls(kind="geometric", max_n=max_n, q=float(q))

    @classmethod
    def explicit(cls, values: Sequence[float], max_n: int | None = None) -> "UpdateSchedule":
        vals = tuple(float(v) for v in values)
        return cls(kind="explicit", max_n=len(vals) if max_n is None else max_n, values=vals)

    # -- evaluation --------------------------------------------------------

    def alphas(self, N: int) -> np.ndarray:
        """alpha_1..alpha_N as a float array.  InvalidScheduleError when the
        schedule cannot serve N: a geometric alpha_N underflows to 0, or N
        exceeds an explicit sequence's length."""
        if N < 1:
            raise InvalidScheduleError("N must be >= 1")
        if self.kind == "harmonic":
            return 1.0 / np.arange(1, N + 1, dtype=float)
        if self.kind == "power_law":
            return np.arange(1, N + 1, dtype=float) ** (-self.r)
        if self.kind == "geometric":
            a = self.q ** np.arange(N, dtype=float)
            if a[-1] == 0.0:
                raise InvalidScheduleError(f"geometric q = {self.q} underflows to 0 before N = {N}")
            return a
        if N > len(self.values):
            raise InvalidScheduleError(
                f"N = {N} exceeds the explicit sequence length {len(self.values)}")
        return np.asarray(self.values[:N], dtype=float)

    def has_unit_tail(self, N: int | None = None) -> bool:
        """True when some alpha_i = 1 for 2 <= i <= N (default max_n); a power law
        with r small enough that 2^-r rounds to 1 has one too."""
        return bool(np.any(self.alphas(self.max_n if N is None else N)[1:] == 1.0))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "max_n": self.max_n}
        if self.kind == "power_law":
            d["r"] = self.r
        elif self.kind == "geometric":
            d["q"] = self.q
        elif self.kind == "explicit":
            d["values"] = list(self.values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "UpdateSchedule":
        """Inverse of to_dict; an absent max_n takes the constructor's default.
        A missing parameter or unknown kind raises ConfigError."""
        kind = d.get("kind")
        needs = {"power_law": "r", "geometric": "q", "explicit": "values"}.get(kind)
        if needs is not None and d.get(needs) is None:
            raise ConfigError(f"a {kind} schedule needs {needs!r}", key=f"schedule.{needs}")
        if kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {kind!r}", key="schedule.kind")
        params = () if needs is None else (d[needs],)
        horizon = {} if d.get("max_n") is None else {"max_n": d["max_n"]}
        return getattr(cls, kind)(*params, **horizon)


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Finite-n tail estimates of alpha_inf, abar = limsup (a_n - a_{n+1})/a_n^2,
    aunder = liminf of the same ratio, plus the rate-regime classification."""

    alpha_inf_est: float
    abar_est: float
    aunder_est: float
    regime: str
    gamma: float
    window: int


def theta_sequence(schedule: UpdateSchedule, N: int) -> np.ndarray:
    """theta_1..theta_N via theta_n = (1-alpha_n)^2 theta_{n-1} + alpha_n^2.

    The recursion form avoids the overflowing products of the raw weight sums;
    it equals sum(w_i^2)/(sum w_i)^2 wherever the weights are defined.
    """
    a = schedule.alphas(N).tolist()
    out = np.empty(N, dtype=float)
    th = 1.0
    out[0] = th
    for i in range(1, N):
        ai = a[i]
        om = 1.0 - ai
        th = om * om * th + ai * ai
        out[i] = th
    return out


def weight_sequence(schedule: UpdateSchedule, N: int) -> np.ndarray:
    """w_1..w_N with w_1 = 1 and w_n = alpha_n * prod_{i=2}^n (1-alpha_i)^{-1}.

    The running total S_n = sum_{i<=n} w_i satisfies S_n = S_{n-1} / (1-alpha_n);
    weights are produced as w_n = alpha_n * S_n, accumulating S in log space so
    slowly decaying schedules stay accurate.  Raises for schedules whose
    anchored weights overflow float range.
    """
    a = schedule.alphas(N)
    if np.any(a[1:] >= 1.0):
        raise SingularScheduleError(
            "alpha_i = 1 for some i >= 2: weight form singular; "
            "use the recursive measure update instead"
        )
    log_s = np.concatenate([[0.0], -np.cumsum(np.log1p(-a[1:]))])
    if log_s[-1] > 700.0:
        raise NumericsError(
            "weights anchored at w_1 = 1 overflow float64 for this schedule length; "
            "use theta_sequence / the recursive update instead"
        )
    return a * np.exp(log_s)


def measure_weights(schedule: UpdateSchedule, N: int, batch_sizes=None):
    """Function k -> raw atom weights of mu^(k), the fold of the first k points
    (or batches) of an N-point run with rates alpha_1..alpha_k.

    w_i^(k) = alpha_i * prod_{j=i+1}^k (1-alpha_j) = exp(ln alpha_i - L_i) * e^{L_k},
    where L_i = sum_{j=2}^i ln(1-alpha_j); the common e^{L_k} drops out on
    normalization.  Unit-tail schedules take direct suffix products instead, so
    atoms before a reset get weight 0.  Batch weights are spread uniformly
    over each batch's atoms.  The weights depend only on the schedule, the
    batch sizes and k, so a run read back from disk recomputes them bit for bit.
    """
    alphas = schedule.alphas(N)
    if schedule.has_unit_tail(N):
        def fold(k):  # alpha_i * prod_{j=i+1}^k (1-alpha_j), the product from the right
            return alphas[:k] * np.append(np.cumprod(1.0 - alphas[k - 1 : 0 : -1])[::-1], 1.0)
    else:
        lw = np.log(alphas) - np.concatenate([[0.0], np.cumsum(np.log1p(-alphas[1:]))])

        def fold(k):
            w = lw[:k]
            return np.exp(w - w.max())
    if batch_sizes is None:
        return fold
    sizes = np.asarray(batch_sizes)
    return lambda k: np.repeat(fold(k) / sizes[:k], sizes[:k])


def decay_product(schedule: UpdateSchedule, delta: float, N: int) -> float:
    """prod_{i=1}^N (1 - delta*alpha_i * 1{delta*alpha_i < 1}); value in (0, 1].

    Factors with delta*alpha_i >= 1 are skipped by the indicator guard.
    Accumulates in log space as soon as any retained factor drops below 1e-8.
    """
    if delta <= 0.0:
        raise InvalidScheduleError("delta must be > 0")
    x = delta * schedule.alphas(N)
    fac = np.where(x < 1.0, 1.0 - x, 1.0)
    if fac.min() < 1e-8:
        return float(np.exp(np.sum(np.log(fac))))
    return float(np.prod(fac))


def schedule_diagnostics(
    schedule: UpdateSchedule, gamma: float, window: int | None = None
) -> ScheduleDiagnostics:
    """Tail estimates over the last `window` indices and the rate-regime label.

    abar / aunder are limits; the finite-n proxies here take sup / inf of
    (alpha_n - alpha_{n+1}) / alpha_n^2 over the tail window (default 10% of
    max_n -- a heuristic, keep the window in the tail).
    """
    if gamma <= 0.0:
        raise ConfigError("gamma must be > 0", key="gamma")
    if window is None:
        window = max(schedule.max_n // 10, 1)
    if not (1 <= window < schedule.max_n):
        raise ConfigError("window must satisfy 1 <= window < max_n", key="window")
    a = schedule.alphas(schedule.max_n)
    lo = schedule.max_n - window - 1  # ratios need alpha_{n+1}
    d = (a[lo:-1] - a[lo + 1:]) / a[lo:-1] ** 2
    abar = float(np.max(d))
    aunder = float(np.min(d))
    alpha_inf = float(a[-1])
    if abar < min(1.0 / gamma, 2.0 - alpha_inf):
        regime = REGIME_ALPHA_GAMMA
    elif abar >= 2.0:
        regime = REGIME_PRODUCT_FAST
    else:
        regime = REGIME_PRODUCT
    return ScheduleDiagnostics(
        alpha_inf_est=alpha_inf,
        abar_est=abar,
        aunder_est=aunder,
        regime=regime,
        gamma=gamma,
        window=window,
    )


@dataclass(frozen=True)
class RecursiveBoundProbe:
    """Iterates of s_n = (1 - eps*alpha_n) s_{n-1} + alpha_n B_n next to the
    comparison envelopes A_n = prod(1 - eps*alpha_i), B_n = b0*prod(1 - eps*beta_i)."""

    s: np.ndarray
    envelope_a: np.ndarray
    envelope_b: np.ndarray
    ratio_to_A: np.ndarray
    ratio_to_B: np.ndarray


def recursive_bound_probe(
    alpha_seq: Sequence[float],
    beta_seq: Sequence[float],
    eps: float,
    s0: float,
    b0: float = 1.0,
) -> RecursiveBoundProbe:
    """Iterate the two-sequence recursion and report s_n / A_n, s_n / B_n.

    Feasibility requires eps*alpha_i and eps*beta_i in (0, 1) for every i.
    b0 scales the driving envelope (b0 = 0 probes the homogeneous recursion).
    """
    a = np.asarray(alpha_seq, dtype=float)
    b = np.asarray(beta_seq, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise InvalidScheduleError("alpha_seq and beta_seq must be equal-length 1-d sequences")
    if s0 < 0.0:
        raise InvalidScheduleError("s0 must be >= 0")
    ea, eb = eps * a, eps * b
    if np.any(ea <= 0.0) or np.any(ea >= 1.0) or np.any(eb <= 0.0) or np.any(eb >= 1.0):
        raise InvalidScheduleError("eps*alpha_i and eps*beta_i must lie in (0, 1)")
    env_a = np.cumprod(1.0 - ea)
    env_b = b0 * np.cumprod(1.0 - eb)
    s = np.empty(a.size, dtype=float)
    cur = s0
    for i in range(a.size):
        cur = (1.0 - ea[i]) * cur + a[i] * env_b[i]
        s[i] = cur
    with np.errstate(divide="ignore", invalid="ignore"):
        ra = np.where(env_a > 0.0, s / env_a, np.nan)
        rb = np.where(np.abs(env_b) > 0.0, s / env_b, np.nan)
    return RecursiveBoundProbe(s=s, envelope_a=env_a, envelope_b=env_b,
                               ratio_to_A=ra, ratio_to_B=rb)
