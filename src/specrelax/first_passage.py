"""Absorbing-chain spectra, first-passage tails, and the exponential-tail bound.

Absorbing one state leaves a substochastic block that is still self-adjoint
under the restricted stationary weights, so its spectrum is real and
interlaces the base spectrum.  Tail probabilities are computed both by
propagating the survival mass through the block and from the block's
eigenexpansion; the two must agree to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import DEFAULT_TOLERANCES, ReversibleChain, Tolerances, _freeze, _weighted_eigh
from .errors import BadStart, Degenerate, InvalidArguments, InvalidState


@dataclass(frozen=True)
class AbsorbingModel:
    """Base chain with one state made absorbing."""

    base: ReversibleChain
    target: int
    block: np.ndarray             # substochastic surviving block
    keep: np.ndarray              # surviving state indices
    nu: np.ndarray                # block eigenvalues, descending
    modes: np.ndarray             # block eigenvectors (columns), pi-orthonormal
    restricted_pi: np.ndarray     # base stationary weights on surviving states

    def __post_init__(self):
        _freeze(self, "block", "nu", "modes", "restricted_pi")
        _freeze(self, "keep", dtype=int)


def absorb(chain: ReversibleChain, target: int,
           tol: Tolerances = DEFAULT_TOLERANCES) -> AbsorbingModel:
    """Freeze one state and diagonalize the surviving substochastic block.

    The block spectrum is checked as the chain's is (weighted orthonormality
    and eigen-residual to `tol`); EigensolveFailure reports a miss.
    """
    if not (0 <= target < chain.n):
        raise InvalidState(f"state {target} out of range for n = {chain.n}")
    if chain.n < 2:
        raise InvalidState("need at least two states to absorb one")
    keep = np.array([i for i in range(chain.n) if i != target])
    block = chain.kernel[np.ix_(keep, keep)]
    pr = chain.pi[keep]
    nu, modes = _weighted_eigh(block, pr, tol)
    return AbsorbingModel(base=chain, target=target, block=block, keep=keep,
                          nu=nu, modes=modes, restricted_pi=pr)


def restricted_stationary_start(model: AbsorbingModel) -> np.ndarray:
    """Base stationary law conditioned off the target state."""
    return model.restricted_pi / model.restricted_pi.sum()


def quasistationary_start(model: AbsorbingModel) -> np.ndarray:
    """Left Perron vector of the surviving block, as a probability row."""
    u = model.modes[:, 0]
    w = u * model.restricted_pi          # left eigenvector of the block
    if w.sum() < 0:
        w = -w
    if np.any(w < -1e-12 * np.abs(w).max()):
        raise Degenerate("Perron vector of the block is not sign-definite")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def uniform_start(model: AbsorbingModel) -> np.ndarray:
    m = model.keep.size
    return np.full(m, 1.0 / m)


def tail_coefficients(model: AbsorbingModel, start) -> np.ndarray:
    """Spectral weights of the survival expansion for a given start law.

    The tail probability is sum_i alpha_i nu_i^k; the coefficients sum to one
    for any start supported off the target.
    """
    start = _validate_start(model, start)
    # block^k = Phi diag(nu^k) Phi^T diag(pi_restricted)
    left = start @ model.modes                      # start in the mode basis
    right = model.modes.T @ model.restricted_pi     # <phi_i, 1>_pi
    return left * right


def _validate_start(model: AbsorbingModel, start) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape == (model.base.n,):
        if abs(start[model.target]) > 0:
            raise BadStart("start distribution puts mass on the absorbing state")
        start = start[model.keep]
    elif start.shape != (model.keep.size,):
        raise BadStart(
            f"start must have length {model.base.n} or {model.keep.size}")
    if np.any(start < 0) or abs(start.sum() - 1.0) > 1e-12:
        raise BadStart("start must be a probability vector")
    return start


def spectral_tails(model: AbsorbingModel, alpha, ks) -> tuple[np.ndarray, np.ndarray]:
    """The expansion sum_i alpha_i nu_i^k and its one-mode part alpha_2 nu_2^k
    at each k of `ks`.

    Each k raises nu to a Python-int power, one k at a time: numpy squares
    exactly at k = 2, where an array of exponents would round through pow,
    and memory stays O(modes) however many steps.  The one-mode part takes
    Python's float power, whose last bit numpy's pow need not share.
    """
    spectral = np.array([np.sum(alpha * model.nu ** k) for k in ks])
    return spectral, alpha[0] * np.array([float(model.nu[0]) ** k for k in ks])


def tail_curve(model: AbsorbingModel, start, k_max: int) -> np.ndarray:
    """Matrix-path survival probabilities for k = 0..k_max."""
    if k_max < 0:
        raise InvalidArguments("k_max must be nonnegative")
    mass = _validate_start(model, start)
    out = np.empty(k_max + 1)
    out[0] = mass.sum()
    for k in range(1, k_max + 1):
        mass = mass @ model.block
        out[k] = mass.sum()
    return out


def exponential_tail_bound(lambda2: float, lambda3: float, delta: float,
                           init_ratio: float, k: int) -> float:
    """Bound C (delta + r (|lambda3|/lambda2)^(2k)) on the relative error of the
    single-mode exponential tail at step k, C = (1 - lambda3^2)/(lambda2^2 - lambda3^2).

    The bound uses the base-chain separation and the initial fast/slow weight
    ratio r.  Its constant comes from a proof sketch; callers should treat
    violations as monitored findings.
    """
    lam3 = abs(lambda3)
    if not (0.0 < lam3 < lambda2 <= 1.0):
        raise Degenerate(f"need 0 < |lambda3| < lambda2, got {lambda2!r}, {lambda3!r}")
    if not (0.0 < delta < 0.5):
        raise InvalidArguments(f"delta must lie in (0, 1/2), got {delta!r}")
    C = (1.0 - lam3 ** 2) / (lambda2 ** 2 - lam3 ** 2)
    return float(C * (delta + init_ratio * (lam3 / lambda2) ** (2 * k)))
