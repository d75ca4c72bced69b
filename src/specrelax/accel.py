"""Polynomial spectral shaping: Chebyshev suppression plans and momentum.

A plan of degree m is the rescaled Chebyshev polynomial that is 1 at the
stationary eigenvalue and minimax-small on the fast interval [a, b].  It is
always evaluated through the three-term recurrence on the affinely mapped
variable -- never expanded into monomials -- so high degrees stay stable.

Accelerated trajectories reuse the ordinary ledger machinery: applying the
plan maps each mode eigenvalue through the polynomial, and one accelerated
step multiplies each weight by the squared polynomial value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArguments,
    InvalidInterval,
    OutOfRange,
    SlowModeSuppressed,
)
from .trajectory import SpectralProfile

GRID_POINTS = 10_001


def chebyshev_T(m: int, x):
    """First-kind Chebyshev polynomial by the three-term recurrence."""
    if m < 0:
        raise InvalidArguments("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if m == 0:
        return t_prev if t_prev.ndim else float(t_prev)
    t = x.copy()
    for _ in range(m - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t if t.ndim else float(t)


@dataclass(frozen=True)
class AccelPlan:
    """Degree-m suppression polynomial on [a, b], normalized to 1 at 1."""

    degree: int
    interval: tuple[float, float]
    eps_m: float                   # guaranteed max |Q| on the interval
    norm_value: float              # T_m at the mapped normalization point

    def map_to_unit(self, x):
        a, b = self.interval
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    def __call__(self, x):
        val = chebyshev_T(self.degree, self.map_to_unit(x)) / self.norm_value
        return val if np.ndim(val) else float(val)


def build_Qm(m: int, a: float | None = None, b: float | None = None,
             lambda2: float | None = None) -> AccelPlan:
    """Build a suppression plan.

    Interval mode (give a < b < 1): minimax polynomial on [a, b] under the
    normalization at 1; its guarantee eps_m holds on the whole interval.

    Simple mode (give lambda2 only): T_m(x / lambda2) / T_m(1 / lambda2).
    Equivalent to interval mode on [-lambda2, lambda2]; note the guarantee
    does not extend to eigenvalues below -lambda2.
    """
    if m < 0:
        raise InvalidArguments("degree must be nonnegative")
    if lambda2 is not None:
        if a is not None or b is not None:
            raise InvalidArguments("give either an interval or lambda2, not both")
        if not (0.0 < lambda2 < 1.0):
            raise InvalidInterval(f"lambda2 must lie in (0, 1), got {lambda2!r}")
        a, b = -lambda2, lambda2
    else:
        if a is None or b is None:
            raise InvalidArguments("interval mode needs both endpoints")
        if not (a < b < 1.0):
            raise InvalidInterval(f"need a < b < 1, got [{a!r}, {b!r}]")
    phi_one = (2.0 - (a + b)) / (b - a)
    norm = float(chebyshev_T(m, np.array(phi_one)))
    return AccelPlan(
        degree=m,
        interval=(float(a), float(b)),
        eps_m=1.0 / abs(norm),
        norm_value=norm,
    )


@dataclass(frozen=True)
class MinimaxReport:
    grid_max: float
    eps_m: float
    equioscillation_count: int
    optimality_margin: float        # min over rivals of (rival max / eps_m)
    rivals_tested: int


def minimax_verify(plan: AccelPlan, grid_size: int = GRID_POINTS,
                   rival_samples: int = 100, seed: int = 0) -> MinimaxReport:
    """Grid-check the plan's minimax guarantee and probe random rivals.

    Rivals are random degree-m polynomials normalized to 1 at the stationary
    point; none should beat the plan's sup-norm on the interval.
    """
    a, b = plan.interval
    xs = np.linspace(a, b, grid_size)
    q = np.abs(plan(xs))
    grid_max = float(q.max())
    count = _local_maxima_at_level(q, plan.eps_m * (1.0 - 1e-6))

    rng = np.random.default_rng(seed)
    margin = math.inf
    tested = 0
    t = plan.map_to_unit(xs)
    basis = np.stack([chebyshev_T(j, t) for j in range(plan.degree + 1)])
    t_one = plan.map_to_unit(1.0)
    basis_at_one = np.array([chebyshev_T(j, np.array(t_one)) for j in range(plan.degree + 1)])
    while tested < rival_samples:
        c = rng.standard_normal(plan.degree + 1)
        val_one = float(c @ basis_at_one)
        if abs(val_one) < 1e-8:
            continue
        rival_max = float(np.abs((c / val_one) @ basis).max())
        margin = min(margin, rival_max / plan.eps_m)
        tested += 1
    return MinimaxReport(
        grid_max=grid_max, eps_m=plan.eps_m, equioscillation_count=count,
        optimality_margin=margin if tested else math.nan, rivals_tested=tested,
    )


def _local_maxima_at_level(q: np.ndarray, level: float) -> int:
    padded = np.concatenate([[-np.inf], q, [-np.inf]])
    return int(np.count_nonzero((q >= padded[:-2]) & (q >= padded[2:]) & (q >= level)))


def accelerated_spectrum(profile: SpectralProfile, plan: AccelPlan) -> SpectralProfile:
    """Closed accelerated system: each eigenvalue mapped through the plan.

    The result feeds the ordinary ledger/rigidity/thermo machinery, with one
    ledger step corresponding to one full degree-m application.  Modes the
    polynomial sends to zero die after one accelerated step.
    """
    mapped = np.asarray(plan(profile.lambdas), dtype=float)
    if np.any(np.abs(mapped) >= 1.0):
        raise InvalidInterval(
            "plan maps an eigenvalue outside (-1, 1): the interval does not "
            "cover this profile's fast spectrum")
    return SpectralProfile(lambdas=mapped, log_weights=profile.log_weights)


def accelerated_profile_step(profile: SpectralProfile, plan: AccelPlan) -> SpectralProfile:
    """One accelerated step: weights scale by the squared polynomial values.

    Eigenvalues are unchanged (the state still lives on the original modes);
    modes the polynomial kills are dropped.
    """
    qvals = np.asarray(plan(profile.lambdas), dtype=float)
    keep = qvals != 0.0
    if not np.any(keep):
        raise SlowModeSuppressed("the plan annihilates every mode of this profile")
    return SpectralProfile(
        lambdas=profile.lambdas[keep],
        log_weights=profile.log_weights[keep] + 2.0 * np.log(np.abs(qvals[keep])),
        chain_lambda2=profile.chain_lambda2,
    )


def momentum_beta_star(lambda2: float) -> float:
    """Critical damping weight for the two-step momentum recurrence."""
    if not (0.0 < lambda2 < 1.0):
        raise OutOfRange(f"lambda2 must lie in (0, 1), got {lambda2!r}")
    return ((1.0 - math.sqrt(1.0 - lambda2 ** 2)) / lambda2) ** 2


def momentum_roots(lam: float, beta: float) -> tuple[complex, complex]:
    """Characteristic roots of x_{k+1} = (1+beta) lam x_k - beta x_{k-1}."""
    disc = complex((1.0 + beta) ** 2 * lam ** 2 - 4.0 * beta)
    s = disc ** 0.5
    return ((1.0 + beta) * lam + s) / 2.0, ((1.0 + beta) * lam - s) / 2.0


@dataclass(frozen=True)
class AcceleratedRigidityBound:
    q_fast: float                 # max |Q| over the suppression interval
    q_slow: float                 # |Q(lambda2)|
    accel_steps: float            # bound on accelerated steps to rigidity
    plain_equivalent: float       # same bound in basic-iteration units


def accelerated_rigidity_bound(plan: AccelPlan, lambda2: float, c2_sq: float,
                               R0: float, delta: float,
                               grid_size: int = GRID_POINTS) -> AcceleratedRigidityBound:
    """Rigidity-time bound for the accelerated iteration.

    The per-step purification ratio is q_slow / q_fast; the bound follows the
    plain two-sided argument on the mapped spectrum.  For the identity plan
    (degree 1 on a symmetric interval) it reduces to the plain bound plus one.
    """
    if c2_sq <= 0 or R0 < 0:
        raise InvalidArguments("weights must satisfy c2_sq > 0, R0 >= 0")
    if not (0.0 < delta < 1.0):
        raise InvalidArguments(f"delta must lie in (0, 1), got {delta!r}")
    a, b = plan.interval
    if not (b < lambda2 <= 1.0):
        raise InvalidArguments("slow eigenvalue must lie above the interval")
    xs = np.linspace(a, b, grid_size)
    q_fast = float(np.abs(plan(xs)).max())
    q_slow = abs(float(plan(lambda2)))
    if q_slow <= q_fast:
        raise SlowModeSuppressed(
            f"|Q(lambda2)| = {q_slow!r} <= fast-interval max {q_fast!r}: "
            "the plan cannot purify")
    if R0 <= c2_sq * delta:
        steps = 0.0
    else:
        steps = (math.log(R0 / (c2_sq * delta))
                 / (2.0 * math.log(q_slow / q_fast)) + 1.0)
    return AcceleratedRigidityBound(
        q_fast=q_fast, q_slow=q_slow, accel_steps=steps,
        plain_equivalent=plan.degree * steps,
    )
