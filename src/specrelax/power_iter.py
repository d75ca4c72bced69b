"""Power iteration with observable convergence diagnostics.

The iterate is renormalized every step, so the per-step energy retention
rho_k is read off directly as the squared norm of the next iterate, and the
log energy accumulates exactly.  Each step also re-centers against the
stationary mode: the exact dynamics carries no stationary mass, and without
re-centering float roundoff reinjects a non-decaying component that
eventually dominates.

The stopping rule watches the dimensionless indicator Gamma_k =
rho_{k+1}/rho_k - 1, which equals the variance of the squared eigenvalues
under the modal distribution divided by rho_k^2.  Given a lower bound tau on
the squared spectral separation, Gamma_k <= tau^2 eps^4 / 8 certifies an
eigenvector error below eps once the slow mode holds at least half the
energy.  The step count of this rule is near-optimal among all rules that
observe only the energy sequence; no operation corresponds to that
optimality statement, it is an information-theoretic fact about the
observable sequence itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ReversibleChain, SpectralDecomposition, _freeze, pi_inner
from .errors import (
    Degenerate,
    InvalidArguments,
    InvalidRho,
    OutOfRange,
    StreamEnded,
    TauCollapse,
    ZeroProjection,
)

RHO_SLACK = 1e-12  # tolerated backward drift of the rho sequence


@dataclass(frozen=True)
class PowerRun:
    """Matrix-path power iteration record."""

    log_energies: np.ndarray     # ln E_k, k = 0..steps
    rho: np.ndarray              # rho_k = E_{k+1}/E_k, k = 0..steps-1
    iterates: np.ndarray         # row k is the normalized iterate v_k

    def __post_init__(self):
        _freeze(self, "log_energies", "rho", "iterates")

    @property
    def steps(self) -> int:
        return self.rho.size


def run_power(chain: ReversibleChain, g0, max_iter: int) -> PowerRun:
    """Iterate the kernel from a centered start, tracking energies exactly."""
    if max_iter < 1:
        raise InvalidArguments("max_iter must be >= 1")
    g0 = np.asarray(g0, dtype=float)
    ones = np.ones(chain.n)
    g = g0 - pi_inner(chain, g0, ones)
    E0 = pi_inner(chain, g, g)
    norm0 = pi_inner(chain, g0, g0)
    if E0 <= (1e-14) ** 2 * norm0 or E0 <= 0.0:
        raise ZeroProjection("initial vector has no component off the stationary mode")
    vs = np.empty((max_iter + 1, chain.n))
    log_E = np.empty(max_iter + 1)
    rho = np.empty(max_iter)
    vs[0] = g / math.sqrt(E0)
    log_E[0] = math.log(E0)
    for k in range(max_iter):
        w = chain.kernel @ vs[k]
        w = w - pi_inner(chain, w, ones)
        r2 = pi_inner(chain, w, w)
        if r2 <= 0.0:
            # reachable only when every nontrivial eigenvalue is zero
            vs = vs[: k + 1]
            log_E = log_E[: k + 1]
            rho = rho[:k]
            break
        rho[k] = r2
        log_E[k + 1] = log_E[k] + math.log(r2)
        vs[k + 1] = w / math.sqrt(r2)
    return PowerRun(log_energies=log_E, rho=rho, iterates=vs)


def eigenvector_error(chain: ReversibleChain, decomp: SpectralDecomposition,
                      v) -> float:
    """Squared sign-aligned distance of a unit iterate from the slow eigenvector."""
    phi2 = decomp.eigenvectors[:, 1]
    s2 = 1.0 if pi_inner(chain, np.asarray(v, dtype=float), phi2) >= 0 else -1.0
    diff = np.asarray(v, dtype=float) - s2 * phi2
    return pi_inner(chain, diff, diff)


def error_identity(alpha2: float) -> float:
    """Exact squared eigenvector error as a function of the slow fraction."""
    if not (0.0 < alpha2 <= 1.0 + 1e-12):
        raise OutOfRange(f"slow fraction must lie in (0, 1], got {alpha2!r}")
    return 2.0 * (1.0 - math.sqrt(min(alpha2, 1.0)))


def _check_rho_pair(rho_k: float, rho_k1: float):
    if not (0.0 < rho_k < 1.0) or not (0.0 < rho_k1 < 1.0):
        raise InvalidRho(f"rho values must lie in (0, 1), got {rho_k!r}, {rho_k1!r}")
    if rho_k1 < rho_k - RHO_SLACK:
        raise InvalidRho(
            f"rho decreased from {rho_k!r} to {rho_k1!r}: not a reversible trajectory")


def observable_variance(rho_k: float, rho_k1: float) -> float:
    """Modal variance of the squared eigenvalues, from two energy ratios."""
    _check_rho_pair(rho_k, rho_k1)
    return max(rho_k * (rho_k1 - rho_k), 0.0)


def gamma(rho_k: float, rho_k1: float) -> float:
    """Dimensionless convergence indicator rho_{k+1}/rho_k - 1."""
    _check_rho_pair(rho_k, rho_k1)
    return max(rho_k1 / rho_k - 1.0, 0.0)


@dataclass(frozen=True)
class AlphaBounds:
    """Observable bounds on the fast-energy share 1 - alpha_2."""

    lower: float                  # vhat / lambda2^4 <= 1 - alpha2
    upper: float                  # valid once alpha2 >= 1/2


def alpha_bounds_from_variance(vhat: float, lambda2: float,
                               lambda3: float) -> AlphaBounds:
    """Sandwich the fast share between variance-derived bounds."""
    lam3 = abs(lambda3)
    if vhat < 0:
        raise InvalidArguments("variance must be nonnegative")
    if not (0.0 < lambda2 <= 1.0) or lam3 >= lambda2:
        raise Degenerate(f"need |lambda3| < lambda2, got {lambda2!r}, {lambda3!r}")
    gap_sq = (lambda2 ** 2 - lam3 ** 2) ** 2
    return AlphaBounds(lower=vhat / lambda2 ** 4, upper=2.0 * vhat / gap_sq)


@dataclass
class StoppingConfig:
    k_min: int = 3
    burn_in: int = 5              # steps before the online tau estimate is trusted
    tau_min: float = 1e-3
    freeze_ratio: float = 1e-13   # freeze tau updates once vhat < ratio * rho^2
    guard_decreases: int = 0      # optional: require this many consecutive Gamma drops
    collapse_patience: int = 5    # consecutive below-floor estimates before failing


@dataclass
class StoppingState:
    """Streaming state of the adaptive stopping rule; checkpointable."""

    epsilon: float
    tau: float | None             # supplied bound, or None for online estimation
    config: StoppingConfig = field(default_factory=StoppingConfig)
    rho_history: list = field(default_factory=list)
    vhat_history: list = field(default_factory=list)
    gamma_history: list = field(default_factory=list)
    tau_hat: float | None = None
    tau_frozen: bool = False
    verdict: str = "running"      # "running" | "stopped" | "failed"
    stopped_at: int | None = None
    below_floor_streak: int = 0

    def eta(self) -> float | None:
        t = self.tau if self.tau is not None else self.tau_hat
        if t is None:
            return None
        return t * t * self.epsilon ** 4 / 8.0

    @property
    def tau_effective(self) -> float | None:
        return self.tau if self.tau is not None else self.tau_hat

    def update(self, rho_value: float) -> "StoppingState":
        """Feed the next energy ratio; may settle the verdict."""
        if self.verdict != "running":
            return self
        self.rho_history.append(float(rho_value))
        if len(self.rho_history) < 2:
            return self
        k = len(self.rho_history) - 2     # index of the newly complete pair
        r0, r1 = self.rho_history[k], self.rho_history[k + 1]
        vhat = observable_variance(r0, r1)
        self.vhat_history.append(vhat)
        self.gamma_history.append(gamma(r0, r1))
        self._update_tau_hat(k)
        self._maybe_stop(k)
        return self

    def _update_tau_hat(self, k: int):
        if self.tau is not None or self.tau_frozen or k < 1:
            return
        v_prev, v_here = self.vhat_history[k - 1], self.vhat_history[k]
        if v_here < self.config.freeze_ratio * self.rho_history[k] ** 2:
            if self.tau_hat is not None:
                self.tau_frozen = True   # settled estimate, signal now roundoff
            elif v_here == 0.0:
                # exactly zero variance: a genuinely rigid stream; stop on the
                # conservative floor rather than waiting forever
                self.tau_hat = self.config.tau_min
                self.tau_frozen = True
            else:
                # positive variance too small to ever resolve a ratio:
                # degenerate separation suspected
                self.below_floor_streak += 1
                if self.below_floor_streak >= self.config.collapse_patience:
                    self.verdict = "failed"
                    raise TauCollapse(
                        f"variance signal died before any separation estimate "
                        f"resolved (step {k})", state=self)
            return
        if v_prev <= 0.0:
            return
        estimate = 1.0 - math.sqrt(max(v_here / v_prev, 0.0))
        if k + 1 < self.config.burn_in:
            return
        if estimate < self.config.tau_min:
            # the variance ratio dips through 1 around its transient peak, so
            # a single below-floor reading is not yet evidence of degeneracy
            self.below_floor_streak += 1
            if self.below_floor_streak >= self.config.collapse_patience:
                self.verdict = "failed"
                raise TauCollapse(
                    f"online separation estimate {estimate!r} stayed below the "
                    f"floor {self.config.tau_min!r} through step {k}", state=self)
            return
        self.below_floor_streak = 0
        self.tau_hat = estimate

    def _maybe_stop(self, k: int):
        if k < self.config.k_min:
            return
        g = self.gamma_history[k]
        threshold = self.eta()
        if threshold is None:
            return
        if g > threshold:
            return
        n = self.config.guard_decreases
        if n > 0:
            recent = self.gamma_history[max(0, k - n): k + 1]
            if len(recent) < n + 1 or any(
                    recent[i + 1] >= recent[i] for i in range(len(recent) - 1)):
                return
        self.verdict = "stopped"
        self.stopped_at = k


def adaptive_stop(rho_stream, epsilon: float, tau: float | None = None,
                  config: StoppingConfig | None = None) -> StoppingState:
    """Fold a rho sequence through the stopping rule.

    Returns the state at the stop step; raises StreamEnded if the stream is
    exhausted first and TauCollapse if the online separation estimate
    degenerates.  Both exceptions carry the partial state.
    """
    if not (0.0 < epsilon <= 1.0):
        raise InvalidArguments(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if tau is not None and not (0.0 < tau <= 1.0):
        raise InvalidArguments(f"tau must lie in (0, 1], got {tau!r}")
    state = StoppingState(epsilon=epsilon, tau=tau,
                          config=config or StoppingConfig())
    for value in rho_stream:
        state.update(value)
        if state.verdict == "stopped":
            return state
    raise StreamEnded(
        f"stream ended after {len(state.rho_history)} values without stopping",
        state=state)
