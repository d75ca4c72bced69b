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

Gamma_k has a float floor.  The quotient rho_{k+1}/rho_k lies on a grid of
spacing 2^-52 just above 1 (2^-53 below) and is rounded to it, and the
subtraction of 1 is exact, so any Gamma below 2^-52 may read 0.  Each rho
also carries its own relative error r, a few ulps of a pi-weighted sum of
squares, which the quotient doubles: Gamma resolves nothing below about
2^-52 + 2r.  With r = 4 ulps = 2^-50 that is GAMMA_FLOOR = 9 * 2^-52, about
2e-15.  A threshold eta below it would certify roundoff, so the rule then
refuses to stop (verdict "unresolvable").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ReversibleChain, SpectralDecomposition, pi_center, pi_inner
from .errors import InvalidArguments, InvalidRho

RHO_SLACK = 1e-12         # tolerated backward drift of the rho sequence
BURN_IN = 5               # steps before the online tau estimate is trusted
TAU_MIN = 1e-3            # floor on the online separation estimate
FREEZE_RATIO = 1e-13      # freeze tau updates once vhat < ratio * rho^2
COLLAPSE_PATIENCE = 5     # consecutive below-floor estimates before collapsing
K_MIN = 3                 # earliest step the rule may stop at
GAMMA_FLOOR = 2.0 ** -52 + 2.0 * 2.0 ** -50   # smallest threshold Gamma can resolve


def power_steps(chain: ReversibleChain, g0):
    """Stream (ln E_k, rho_k, v_k) for k = 0, 1, ... from a centered start.

    Item k costs k + 1 kernel applications and the state is one iterate, so
    a consumer that stops reading after step k has paid for nothing beyond
    it.  The stream ends with the first step whose successor dies, which
    happens only when every nontrivial eigenvalue is zero; that step's rho_k
    reads 0.  "Dies" means an energy at or below the roundoff of one kernel
    application: fl(K v) is off by about n ulps of K|v| entrywise, and
    ||K|v|||_pi <= ||v||_pi = 1, so the floor is (n * 2^-52)^2.  A rank-one
    kernel with a non-uniform pi leaves such a roundoff iterate, which
    renormalized would feed the stopping rule noise.  ZeroProjection is
    raised on the first pull.
    """
    g, E0 = pi_center(chain, g0)
    ones = np.ones(chain.n)
    v = g / math.sqrt(E0)
    log_E = math.log(E0)
    roundoff = (chain.n * 2.0 ** -52) ** 2
    while True:
        w = chain.kernel @ v
        w = w - pi_inner(chain, w, ones)
        r2 = pi_inner(chain, w, w)
        if r2 <= roundoff:
            yield log_E, 0.0, v
            return
        yield log_E, r2, v
        log_E += math.log(r2)
        v = w / math.sqrt(r2)


def eigenvector_error(chain: ReversibleChain, decomp: SpectralDecomposition,
                      v) -> float:
    """Squared sign-aligned distance of a unit iterate from the slow eigenvector."""
    phi2 = decomp.eigenvectors[:, 1]
    s2 = 1.0 if pi_inner(chain, np.asarray(v, dtype=float), phi2) >= 0 else -1.0
    diff = np.asarray(v, dtype=float) - s2 * phi2
    return pi_inner(chain, diff, diff)


def gamma_vhat(rho_k, rho_k1):
    """(Gamma_k, Vhat_k) = (rho_{k+1}/rho_k - 1, rho_k (rho_{k+1} - rho_k)), each
    floored at 0, elementwise: the one definition of both observables."""
    return np.maximum(rho_k1 / rho_k - 1.0, 0.0), np.maximum(rho_k * (rho_k1 - rho_k), 0.0)


def _check_rho_pair(rho_k: float, rho_k1: float) -> tuple[float, float]:
    """(Gamma_k, Vhat_k) of a pair of energy ratios, once checked to be one."""
    if not (0.0 < rho_k < 1.0) or not (0.0 < rho_k1 < 1.0):
        raise InvalidRho(f"rho values must lie in (0, 1), got {rho_k!r}, {rho_k1!r}")
    if rho_k1 < rho_k - RHO_SLACK:
        raise InvalidRho(
            f"rho decreased from {rho_k!r} to {rho_k1!r}: not a reversible trajectory")
    g, v = gamma_vhat(rho_k, rho_k1)
    return float(g), float(v)


@dataclass
class StoppingState:
    """The adaptive stopping rule as an O(1) fold over the rho stream.

    It keeps the last rho, the last (Gamma, Vhat) pair and the separation
    estimate, never the history; `update` hands each completed pair to its
    caller.  The fold owns the verdict: "stopped" at `stopped_at`,
    "unresolvable" when eta is below GAMMA_FLOOR, or "tau-collapse" when the
    online separation estimate degenerates, with the reason in `detail`.
    Once settled, the verdict never changes.
    """

    epsilon: float
    tau: float | None             # supplied bound, or None for online estimation
    # the fold's state, which only `update` sets
    steps: int = field(init=False, default=0)              # rho values folded in
    rho: float | None = field(init=False, default=None)    # the last rho
    gamma: float | None = field(init=False, default=None)  # Gamma and Vhat of the
    vhat: float | None = field(init=False, default=None)   # last complete pair
    tau_hat: float | None = field(init=False, default=None)
    tau_frozen: bool = field(init=False, default=False)
    # "running", until it settles as "stopped", "unresolvable" or "tau-collapse"
    verdict: str = field(init=False, default="running")
    stopped_at: int | None = field(init=False, default=None)
    detail: str | None = field(init=False, default=None)   # why the estimate collapsed
    below_floor_streak: int = field(init=False, default=0)

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidArguments(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if self.tau is not None and not (0.0 < self.tau <= 1.0):
            raise InvalidArguments(f"tau must lie in (0, 1], got {self.tau!r}")

    def eta(self) -> float | None:
        t = self.tau_effective
        return None if t is None else t * t * self.epsilon ** 4 / 8.0

    @property
    def tau_effective(self) -> float | None:
        return self.tau if self.tau is not None else self.tau_hat

    def update(self, rho_value: float) -> tuple[float, float] | None:
        """Feed rho_{k+1}; returns (Gamma_k, Vhat_k), or None before the first
        pair and once the verdict is settled.  May settle the verdict."""
        if self.verdict != "running":
            return None
        rho_k, self.rho, self.steps = self.rho, float(rho_value), self.steps + 1
        if rho_k is None:
            return None
        k, vhat_prev = self.steps - 2, self.vhat
        self.gamma, self.vhat = _check_rho_pair(rho_k, self.rho)
        self._update_tau_hat(k, rho_k, vhat_prev)
        if self.verdict == "running":
            self._maybe_stop(k)
        return self.gamma, self.vhat

    def _update_tau_hat(self, k: int, rho_k: float, v_prev: float | None):
        if self.tau is not None or self.tau_frozen or k < 1:
            return
        v_here = self.vhat
        if v_here < FREEZE_RATIO * rho_k ** 2:
            if self.tau_hat is not None:
                self.tau_frozen = True   # settled estimate, signal now roundoff
            elif v_here == 0.0:
                # exactly zero variance: a genuinely rigid stream; stop on the
                # conservative floor rather than waiting forever
                self.tau_hat = TAU_MIN
                self.tau_frozen = True
            else:
                # positive variance too small to ever resolve a ratio:
                # degenerate separation suspected
                self._below_floor(f"variance signal died before any separation "
                                  f"estimate resolved (step {k})")
            return
        if v_prev <= 0.0:
            return
        estimate = 1.0 - math.sqrt(max(v_here / v_prev, 0.0))
        if k + 1 < BURN_IN:
            return
        if estimate < TAU_MIN:
            # the variance ratio dips through 1 around its transient peak, so
            # a single below-floor reading is not yet evidence of degeneracy
            self._below_floor(f"online separation estimate {estimate!r} stayed "
                              f"below the floor {TAU_MIN!r} through step {k}")
            return
        self.below_floor_streak = 0
        self.tau_hat = estimate

    def _below_floor(self, message: str):
        self.below_floor_streak += 1
        if self.below_floor_streak >= COLLAPSE_PATIENCE:
            self.verdict, self.detail = "tau-collapse", message

    def _maybe_stop(self, k: int):
        threshold = self.eta()
        if k < K_MIN or threshold is None or self.gamma > threshold:
            return
        if threshold < GAMMA_FLOOR:      # Gamma <= eta would certify roundoff
            self.verdict = "unresolvable"
        else:
            self.verdict, self.stopped_at = "stopped", k
