"""Slow-mode fraction, rigidity times, and the closed-form crossing bound.

Conventions, chosen once and used consistently:

* the slow mode is the mode with the largest *signed* eigenvalue;
* the fast reference eigenvalue entering every bound is the largest
  *absolute* eigenvalue among the remaining modes -- the bounds need
  lambda_i^2 <= lambda3^2 for all fast i, which fails for large negative
  modes under the signed reading.

When a negative eigenvalue dominates the slow one in absolute value the
trajectory never purifies onto the slow mode; the scan reports that mode in
its diagnostic instead of looping to the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import _freeze
from .errors import (
    DeadTrajectory,
    InvalidArguments,
    NoSlowMode,
    PreconditionUnmet,
    TooShort,
)
from .trajectory import SpectralProfile, ledger_at, ledger_block, ledger_blocks

DEGENERACY_TOL = 1e-12
DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class SlowFastSplit:
    """Profile bookkeeping shared by every rigidity-style bound.

    Weights are stored on a common relative scale; only their ratios enter
    any formula.
    """

    slow_index: int
    slow_lambda: float
    slow_weight: float          # |c_2|^2 (relative scale)
    fast_abs_lambda: float      # max |lambda| over fast modes (0 if none)
    fast_weight: float          # R_0 (same scale)
    min_fast_lambda_sq: float
    degenerate: bool            # slow eigenvalue tied with (or below) a fast |lambda|

    @property
    def ratio(self) -> float:
        """fast/slow eigenvalue ratio; 0 for a single-mode profile."""
        if self.fast_abs_lambda == 0.0:
            return 0.0
        return self.fast_abs_lambda / self.slow_lambda if self.slow_lambda > 0 else math.inf

    @property
    def init_ratio(self) -> float:
        return self.fast_weight / self.slow_weight


def split_slow_fast(profile: SpectralProfile) -> SlowFastSplit:
    i = profile.slow_index()
    lam_slow = float(profile.lambdas[i])
    if profile.chain_lambda2 is not None and lam_slow < profile.chain_lambda2 - DEGENERACY_TOL:
        raise NoSlowMode(
            f"profile's top eigenvalue {lam_slow!r} is below the chain's "
            f"{profile.chain_lambda2!r}: the slow mode carries no weight"
        )
    w = np.exp(profile.log_weights - np.max(profile.log_weights))
    mask = np.ones(profile.n_modes, dtype=bool)
    mask[i] = False
    fast_lam = profile.lambdas[mask]
    fast_w = w[mask]
    if fast_lam.size == 0:
        return SlowFastSplit(i, lam_slow, float(w[i]), 0.0, 0.0, 0.0, False)
    fabs = float(np.max(np.abs(fast_lam)))
    return SlowFastSplit(
        slow_index=i,
        slow_lambda=lam_slow,
        slow_weight=float(w[i]),
        fast_abs_lambda=fabs,
        fast_weight=float(fast_w.sum()),
        min_fast_lambda_sq=float(np.min(fast_lam ** 2)),
        degenerate=bool(fabs >= lam_slow - DEGENERACY_TOL),
    )


def slow_fraction(profile: SpectralProfile, k: int) -> float:
    """Share of the step-k energy carried by the largest-eigenvalue mode."""
    split = split_slow_fast(profile)
    led = ledger_at(profile, k)
    if led.terminal:
        raise DeadTrajectory(f"energy is zero at step {k}")
    return float(np.exp(led.log_modal_energies[split.slow_index] - led.log_energy))


def rigidity_bound_L(lambda2: float, lambda3: float, c2_sq: float,
                     R0: float, delta: float) -> float:
    """Closed-form crossing estimate; +inf on a degenerate pair, 0 if already pure.

    `lambda3` is interpreted as the largest fast absolute eigenvalue.
    """
    lam3 = abs(lambda3)
    if not (0.0 < lam3 <= lambda2 <= 1.0):
        raise InvalidArguments(
            f"need 0 < |lambda3| <= lambda2 <= 1, got {lambda2!r}, {lambda3!r}")
    if c2_sq <= 0 or R0 < 0:
        raise InvalidArguments("weights must satisfy c2_sq > 0, R0 >= 0")
    if not (0.0 < delta < 1.0):
        raise InvalidArguments(f"delta must lie in (0, 1), got {delta!r}")
    if R0 <= c2_sq * delta:
        return 0.0
    if lam3 >= lambda2 - DEGENERACY_TOL:
        return math.inf
    return math.log(R0 / (c2_sq * delta)) / (2.0 * math.log(lambda2 / lam3))


def _bound_for_split(split: SlowFastSplit, delta: float) -> float:
    if split.fast_weight == 0.0 or split.fast_weight <= split.slow_weight * delta:
        return 0.0
    if split.slow_lambda <= 0.0 or split.degenerate:
        return math.inf
    if split.fast_abs_lambda == 0.0:
        return 1.0  # fast sector dies entirely at the first step
    return rigidity_bound_L(split.slow_lambda, split.fast_abs_lambda,
                            split.slow_weight, split.fast_weight, delta)


@dataclass(frozen=True)
class RigidityReport:
    delta: float
    reached: bool
    t_rigid: int | None            # None when the scan gave up
    terminal: bool                 # rigidity by total energy death (all modes dead)
    bound: float                   # closed-form estimate, may be +inf
    alpha2_trace: np.ndarray       # alpha_2(k) for k = 0..t_rigid (or scanned prefix)
    ratio: float                   # |lambda3| / lambda2
    init_ratio: float              # R0 / |c2|^2
    cap: int
    diagnostic: str = ""

    def __post_init__(self):
        _freeze(self, "alpha2_trace")


def _alpha2_limit(profile: SpectralProfile, split: SlowFastSplit) -> float:
    """k -> inf limit of the slow fraction (|lambda| ties share the energy)."""
    lam = profile.lambdas
    w = np.exp(profile.log_weights - np.max(profile.log_weights))
    top = np.max(np.abs(lam))
    cluster = np.abs(np.abs(lam) - top) <= DEGENERACY_TOL
    if not cluster[split.slow_index]:
        return 0.0
    return float(w[split.slow_index] / w[cluster].sum())


def rigidity_time(profile: SpectralProfile, delta: float,
                  cap: int | None = None) -> RigidityReport:
    """First step at which the slow mode holds at least 1-delta of the energy.

    Exact chunked scan; the step before the reported crossing is re-verified
    to fail the threshold.  Provably unreachable thresholds (degenerate slow
    cluster, dominating negative mode) are reported without scanning to the
    cap.
    """
    if not (0.0 < delta < 1.0):
        raise InvalidArguments(f"delta must lie in (0, 1), got {delta!r}")
    split = split_slow_fast(profile)
    L = _bound_for_split(split, delta)
    if cap is None:
        cap = DEFAULT_CAP if not math.isfinite(L) else max(DEFAULT_CAP, 10 * math.ceil(L))
    if cap < 1:
        raise InvalidArguments("cap must be >= 1")

    slow = split.slow_index
    alpha0 = float(ledger_block(profile, [0]).share(slow)[0])
    if alpha0 >= 1.0 - delta:
        return RigidityReport(
            delta=delta, reached=True, t_rigid=0, terminal=False, bound=L,
            alpha2_trace=np.array([alpha0]), ratio=split.ratio,
            init_ratio=split.init_ratio, cap=cap,
        )

    if np.count_nonzero(profile.lambdas) == 0:
        # every mode dies at k = 1: rigidity by total energy death
        return RigidityReport(
            delta=delta, reached=True, t_rigid=1, terminal=True, bound=L,
            alpha2_trace=np.array([alpha0]), ratio=split.ratio,
            init_ratio=split.init_ratio, cap=cap,
            diagnostic="all modes dead after one step: terminal rigidity",
        )

    limit = _alpha2_limit(profile, split)
    if limit < 1.0 - delta and (split.degenerate or split.slow_lambda <= 0.0):
        who = ("degenerate slow cluster"
               if abs(split.fast_abs_lambda - split.slow_lambda) <= DEGENERACY_TOL
               else f"dominating mode with |lambda| = {split.fast_abs_lambda!r}")
        return RigidityReport(
            delta=delta, reached=False, t_rigid=None, terminal=False, bound=L,
            alpha2_trace=ledger_block(profile, range(min(cap, 64) + 1)).share(slow),
            ratio=split.ratio, init_ratio=split.init_ratio, cap=cap,
            diagnostic=f"limit alpha_2 = {limit!r} < 1 - delta ({who})",
        )

    trace_parts = [np.array([alpha0])]
    for block in ledger_blocks(profile, range(1, cap + 1)):
        alpha = block.share(slow)
        hit = np.flatnonzero(alpha >= 1.0 - delta)
        if hit.size:
            t = int(block.ks[hit[0]])
            trace_parts.append(alpha[: hit[0] + 1])
            trace = np.concatenate(trace_parts)
            if not trace[t - 1] < 1.0 - delta:
                raise RuntimeError("scan invariant violated: previous step already rigid")
            return RigidityReport(
                delta=delta, reached=True, t_rigid=t, terminal=False, bound=L,
                alpha2_trace=trace, ratio=split.ratio,
                init_ratio=split.init_ratio, cap=cap,
            )
        trace_parts.append(alpha)
    trace = np.concatenate(trace_parts)
    return RigidityReport(
        delta=delta, reached=False, t_rigid=None, terminal=False, bound=L,
        alpha2_trace=trace[: min(trace.size, 4096)], ratio=split.ratio,
        init_ratio=split.init_ratio, cap=cap,
        diagnostic=f"threshold not reached within cap {cap}",
    )


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool                    # constant dissipation fraction from the start
    rigid_from: int | None         # first step after which the fraction is constant
    rho: float | None
    eta: float | None
    witness: tuple[int, float, float] | None  # (k, d_k, d_{k+1}) of the first violation


def detect_rigid(energies, tol: float = 1e-10) -> RigidityVerdict:
    """Check whether an energy sequence decays by a constant fraction each step."""
    E = np.asarray(energies, dtype=float)
    if E.size < 3:
        raise TooShort("need at least E_0..E_2 to compare two dissipation fractions")
    if np.any(E <= 0):
        raise InvalidArguments("energies must be positive")
    d = 1.0 - E[1:] / E[:-1]
    diffs = np.abs(np.diff(d))
    bad = np.where(diffs > tol)[0]
    if bad.size == 0:
        return RigidityVerdict(True, 0, float(np.sqrt(E[1] / E[0])), float(d[0]), None)
    witness = (int(bad[0]), float(d[bad[0]]), float(d[bad[0] + 1]))
    j = int(bad[-1]) + 1
    if j <= d.size - 2:  # the constant suffix must contain at least two fractions
        return RigidityVerdict(False, j, float(np.sqrt(E[j + 1] / E[j])),
                               float(d[j]), witness)
    return RigidityVerdict(False, None, None, None, witness)


@dataclass(frozen=True)
class ClosureBound:
    k: int
    bound: float
    actual: float


def closure_bound(profile: SpectralProfile, delta: float, k: int,
                  cap: int | None = None) -> ClosureBound:
    """Bound on |d_k - (1 - lambda2^2)| valid past the rigidity time."""
    split = split_slow_fast(profile)
    if split.fast_weight > 0 and (split.degenerate or split.slow_lambda <= 0.0):
        raise InvalidArguments("closure bound requires strict slow/fast separation")
    report = rigidity_time(profile, delta, cap=cap)
    if not report.reached or k < report.t_rigid:
        raise PreconditionUnmet(
            f"step {k} is below the rigidity time for delta={delta!r}")
    led = ledger_at(profile, k)
    if led.terminal:
        raise DeadTrajectory(f"energy is zero at step {k}")
    lam2 = split.slow_lambda
    actual = abs(led.d - (1.0 - lam2 ** 2))
    if split.fast_weight == 0:
        return ClosureBound(k=k, bound=0.0, actual=float(actual))
    lam3 = split.fast_abs_lambda
    worst_fast_rate = 1.0 - split.min_fast_lambda_sq
    bound = ((1.0 - lam3 ** 2) * delta
             + worst_fast_rate * (lam3 / lam2) ** (2 * k) * split.init_ratio)
    return ClosureBound(k=k, bound=float(bound), actual=float(actual))
