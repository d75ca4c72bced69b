"""Polynomial spectral shaping: Chebyshev suppression plans.

A plan of degree m is the rescaled Chebyshev polynomial that is 1 at the
stationary eigenvalue and minimax-small on the fast interval [a, b].  It is
always evaluated through the three-term recurrence on the affinely mapped
variable -- never expanded into monomials -- so high degrees stay stable.

Accelerated trajectories reuse the ordinary ledger machinery: applying the
plan maps each mode eigenvalue through the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArguments, InvalidInterval, OutOfRange
from .trajectory import SpectralProfile


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
    norm_value: float              # T_m at the mapped normalization point: max |Q| on
                                   # the interval is 1/|norm_value|

    def map_to_unit(self, x):
        a, b = self.interval
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    def __call__(self, x):
        val = chebyshev_T(self.degree, self.map_to_unit(x)) / self.norm_value
        return val if np.ndim(val) else float(val)


def build_Qm(m: int, a: float, b: float) -> AccelPlan:
    """Build the suppression plan for a < b < 1: the minimax polynomial on
    [a, b] under the normalization at 1; its guarantee max |Q| = 1/|norm_value|
    holds on the whole interval.  On [-lambda2, lambda2] it is T_m(x / lambda2) /
    T_m(1 / lambda2), the paper's simple form, whose guarantee does not
    extend to eigenvalues below -lambda2.  A plan whose normalization leaves
    the doubles is refused before the recurrence runs.
    """
    if m < 0:
        raise InvalidArguments("degree must be nonnegative")
    if not (a < b < 1.0):
        raise InvalidInterval(f"need a < b < 1, got [{a!r}, {b!r}]")
    phi_one = (2.0 - (a + b)) / (b - a)
    # T_m(phi_one) = cosh(m acosh(phi_one)) = c, and no term of its recurrence
    # passes 2c <= e^(m acosh(phi_one)) + 1, below DBL_MAX = e^709.78 with 8 % to spare
    if m * np.arccosh(phi_one) > 709.7:
        raise OutOfRange(f"degree {m} on [{a!r}, {b!r}]: the normalization "
                         f"T_m({phi_one!r}) leaves the double range")
    norm = float(chebyshev_T(m, np.array(phi_one)))
    return AccelPlan(degree=m, interval=(float(a), float(b)), norm_value=norm)


def accelerated_spectrum(profile: SpectralProfile, plan: AccelPlan) -> SpectralProfile:
    """Closed accelerated system: each eigenvalue mapped through the plan.

    The result feeds the ordinary ledger/rigidity/thermo machinery, with one
    ledger step corresponding to one full degree-m application.  Modes the
    polynomial sends to zero die after one accelerated step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # T_m of a mode mapped far below the interval may overflow, to inf or nan
        mapped = np.asarray(plan(profile.lambdas), dtype=float)
    if not np.all(np.abs(mapped) < 1.0):
        raise InvalidInterval(
            "plan maps an eigenvalue outside (-1, 1): the interval does not "
            "cover this profile's fast spectrum")
    return SpectralProfile(lambdas=mapped, log_weights=profile.log_weights)
