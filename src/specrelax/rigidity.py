"""The slow/fast split, rigidity times, and the closed-form crossing bound.

Conventions, chosen once and used consistently:

* the slow mode is the mode with the largest *signed* eigenvalue;
* the fast reference eigenvalue entering every bound is the largest
  *absolute* eigenvalue among the remaining modes -- the bounds need
  lambda_i^2 <= lambda3^2 for all fast i, which fails for large negative
  modes under the signed reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidArguments, NoSlowMode
from .trajectory import SpectralProfile

DEGENERACY_TOL = 1e-12      # ties, relative to |lambda_slow| (see split_slow_fast)
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
    log_init_ratio: float       # ln(R_0 / |c_2|^2), finite where the ratio leaves the doubles
    degenerate: bool            # a weighted fast mode ties (or passes) the slow |lambda|

    @property
    def ratio(self) -> float | None:
        """fast/slow eigenvalue ratio; 0 for a single-mode profile, None where
        lambda_slow <= 0 (a chain's roundoff eigenvalues are 0 by then)."""
        return self.fast_abs_lambda / self.slow_lambda if self.slow_lambda > 0 else None

    @property
    def init_ratio(self) -> float:
        return self.fast_weight / self.slow_weight if self.slow_weight else math.inf

    @property
    def delta_star(self) -> float | None:
        """Rigidity level 1 - max(1/2, ratio^2) past which the covariance is
        negative and the entropy falls; None without strict separation."""
        if self.slow_lambda <= 0 or self.degenerate:
            return None
        return 1.0 - max(0.5, self.ratio ** 2)


def split_slow_fast(profile: SpectralProfile) -> SlowFastSplit:
    """The slow mode, the fast sector, and whether they tie.

    A tie is |lambda| within DEGENERACY_TOL * |lambda_slow|: a profile's
    eigenvalues are exact, so a pair at 1e-200 and 5e-201 is as separated as
    one at 1 and 0.5.  A chain's eigenvalues carry an absolute error of a few
    ulps of ||P|| = 1, so for a chain-derived profile (`chain_lambda2` set)
    the width is DEGENERACY_TOL * max(|lambda_slow|, 1) = DEGENERACY_TOL.
    """
    i = profile.slow_index()
    lam_slow = float(profile.lambdas[i])
    tol = DEGENERACY_TOL * (1.0 if profile.chain_lambda2 is not None else abs(lam_slow))
    if profile.chain_lambda2 is not None and lam_slow < profile.chain_lambda2 - tol:
        raise NoSlowMode(
            f"profile's top eigenvalue {lam_slow!r} is below the chain's "
            f"{profile.chain_lambda2!r}: the slow mode carries no weight"
        )
    w = np.exp(profile.log_weights - np.max(profile.log_weights))
    fabs = float(np.max(np.abs(np.delete(profile.lambdas, i)), initial=0.0))
    fast_weight = float(np.delete(w, i).sum())
    return SlowFastSplit(
        slow_index=i,
        slow_lambda=lam_slow,
        slow_weight=float(w[i]),
        fast_abs_lambda=fabs,
        fast_weight=fast_weight,
        log_init_ratio=float(np.logaddexp.reduce(np.delete(profile.log_weights, i))
                             - profile.log_weights[i]),
        degenerate=bool(fast_weight > 0 and fabs >= lam_slow - tol),
    )


def rigidity_bound(split: SlowFastSplit, delta: float) -> float:
    """Closed-form crossing estimate L = ln(R0 / (c2 delta)) / (2 ln(lambda2 / |lambda3|)):
    0 if already pure, +inf on a tie or lambda2 <= 0, 1 if the fast modes die at k = 1."""
    c2_delta = split.slow_weight * delta
    if split.fast_weight <= c2_delta:
        return 0.0
    if split.slow_lambda <= 0.0 or split.degenerate:
        return math.inf
    if split.fast_abs_lambda == 0.0:
        return 1.0
    if c2_delta > 0.0 and split.fast_weight / c2_delta < math.inf:
        log_ratio = math.log(split.fast_weight / c2_delta)
    else:   # R0 / (c2 delta) leaves the double range: take it in logs
        log_ratio = split.log_init_ratio - math.log(delta)
    return log_ratio / (2.0 * math.log(split.slow_lambda / split.fast_abs_lambda))


@dataclass(frozen=True)
class RigidityReport:
    t_rigid: int | None            # None when the threshold is not reached
    bound: float                   # closed-form estimate, may be +inf
    ratio: float | None            # |lambda3| / lambda2, None where lambda2 <= 0
    init_ratio: float              # R0 / |c2|^2
    diagnostic: str = ""


def fast_share(profile: SpectralProfile, ks) -> tuple[np.ndarray, np.ndarray]:
    """(f / (1 + f), ln f) at each step of ks: the fast modes' energy share
    and its odds f = sum_{i != slow} (w_i/w_slow) (|lambda_i|/|lambda_slow|)^{2k}.
    Each term is taken relative to the slow mode, with ln |lambda_i|/|lambda_slow|
    = log1p((|lambda_i| - |lambda_slow|) / |lambda_slow|) within a factor 2,
    where the difference is exact, so a near tie keeps the digits that the
    ledger's ln w_i + 2k ln|lambda_i| loses to an ulp of 2k ln|lambda_i|.  From
    k = 1 on, a slow lambda = 0 makes f inf, or 0 where every mode is dead."""
    ks = np.asarray(ks, dtype=np.int64)[:, None]
    slow = profile.slow_index()
    a, a_s = np.abs(np.delete(profile.lambdas, slow)), abs(float(profile.lambdas[slow]))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(a) - np.log(a_s)
        near = (0.5 * a_s <= a) & (a <= 2.0 * a_s) & (a_s > 0.0)
        log_r[near] = np.log1p((a[near] - a_s) / a_s)
        log_r[np.isnan(log_r)] = -np.inf             # lambda_i = lambda_slow = 0
        terms = (np.delete(profile.log_weights, slow) - profile.log_weights[slow]
                 + np.where(ks > 0, 2.0 * ks * log_r, 0.0))
    log_f = np.max(terms, axis=1, initial=-np.inf)
    finite = np.isfinite(log_f)
    log_f[finite] += np.log(np.sum(np.exp(terms[finite] - log_f[finite, None]), axis=1))
    e = np.exp(-np.abs(log_f))
    return np.where(log_f <= 0.0, e / (1.0 + e), 1.0 / (1.0 + e)), log_f


def rigidity_time(profile: SpectralProfile, delta: float) -> RigidityReport:
    """First step T at which the slow mode holds at least 1-delta of the energy.

    alpha_2(k) = 1/(1 + f(k)), f(k) = sum_{i != slow} (w_i/w_slow)
    (lambda_i/lambda_slow)^{2k}; `fast_share` reads 1 - alpha_2 accurately
    however small delta is and however near a fast |lambda_i| is to the slow one.

    Why a search is exact: when every fast |lambda_i| <= |lambda_slow| each
    term of f is non-increasing, so "alpha_2(k) >= 1 - delta" is monotone in
    k; galloping k = 1, 2, 4, ... to a bracket and bisecting it finds T in
    O(log T) steps read.  A mode with |lambda_i| > |lambda_slow| (a negative
    mode just above lambda_slow in a degenerate cluster, or a light
    dominating one) makes f rise in the end, but f stays convex (a positive
    sum of exponentials in k): D(k) = f(k+1) - f(k) is non-decreasing.  The
    search then runs on "threshold met or D(k) > 0", which is monotone, as
    D(k) > 0 gives D(k+1) > 0 and a met threshold with D(k) <= 0 stays met.
    If the threshold fails at its first true step, f rises from there on
    after failing at every step before, so T never comes.

    alpha_2(T-1) < 1-delta by the search (T-1 is 0 or failed its test); the
    final read checks 1-delta <= alpha_2(T), as f may only rise at T.  The
    search stops at max(DEFAULT_CAP, 10 ceil(L)) steps.
    """
    if not (0.0 < delta < 1.0):
        raise InvalidArguments(f"delta must lie in (0, 1), got {delta!r}")
    split = split_slow_fast(profile)
    L = rigidity_bound(split, delta)
    cap = DEFAULT_CAP if not math.isfinite(L) else max(DEFAULT_CAP, 10 * math.ceil(L))
    report = partial(RigidityReport, t_rigid=None, bound=L, ratio=split.ratio,
                     init_ratio=split.init_ratio)
    if fast_share(profile, [0])[0][0] <= delta:
        return report(t_rigid=0)

    rising = split.fast_abs_lambda > abs(split.slow_lambda)   # some r_i > 1

    def found(k: int) -> bool:       # threshold met at k, or (rising only) f rising at k
        share, log_f = fast_share(profile, range(k, k + 1 + rising))
        return bool(share[0] <= delta or log_f[-1] > log_f[0])

    lo, hi = 0, 1                    # T > 0 here: gallop, then bisect
    while not found(hi):
        if hi >= cap:
            return report(diagnostic=f"threshold not reached within cap {cap}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if found(mid) else (mid, hi)
    if fast_share(profile, [hi])[0][0] > delta:
        return report(diagnostic=f"alpha_2 peaks below 1 - delta at step {hi}")
    return report(t_rigid=hi)
