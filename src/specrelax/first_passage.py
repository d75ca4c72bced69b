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

from .chains import DEFAULT_TOLERANCES, ReversibleChain, Tolerances, _certified_eigh, _freeze
from .errors import BadStart, Degenerate, InvalidArguments, InvalidState, OutOfRange


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
    keep = np.delete(np.arange(chain.n), target)
    # in C order whatever the kernel's layout: tail_curve's products depend on it
    block = np.ascontiguousarray(np.delete(np.delete(chain.kernel, target, 0), target, 1))
    pr = chain.pi[keep]
    nu, modes = _certified_eigh(block, pr, tol, vectors=True, stationary=False)
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


def tail_coefficients(model: AbsorbingModel, start,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Spectral weights of the survival expansion for a given start law.

    The tail probability is sum_i alpha_i nu_i^k; the coefficients sum to one
    for any start supported off the target.  OutOfRange refuses them where
    m 2^-52 sum_i |alpha_i| > tol.eigen_residual, m the number of modes.
    Proof of the limit: a float sum of m terms t_i errs by up to
    gamma_{m-1} sum_i |t_i|, gamma_j = j u / (1 - j u), u = 2^-53, and
    gamma_{m-1} < m 2^-52.  At k = 0 the terms are the alpha_i themselves
    (nu^0 = 1 exactly) and the exact sum is 1, so past the limit the expansion
    is not resolved to the tolerance its eigensolve was checked to; short of
    it, |nu_i| <= 1 keeps that rounding below tol.eigen_residual at every k.
    """
    start = _validate_start(model, start)
    # block^k = Phi diag(nu^k) Phi^T diag(pi_restricted): alpha_i is the start
    # in the mode basis times <phi_i, 1>_pi
    alpha = (start @ model.modes) * (model.modes.T @ model.restricted_pi)
    spread = float(np.sum(np.abs(alpha)))
    if alpha.size * 2.0 ** -52 * spread > tol.eigen_residual:
        raise OutOfRange(f"sum |alpha_i| = {spread!r} over {alpha.size} modes: the "
                         "expansion's rounding exceeds tol.eigen_residual")
    return alpha


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


def exponential_tail_bound(model: AbsorbingModel, alpha, k: int, tail: float,
                           spectral: float, approx: float) -> float:
    """Proved bound on |tail/approx - 1| at step k, from the absorbed block alone.

    `tail`, `spectral` and `approx` are the k-th values of `tail_curve` and
    `spectral_tails` for coefficients `alpha`, with |approx| >= DBL_MIN.  Let
    r = sum_{i>=2} |alpha_i| / |alpha_1|, q = max_{i>=2} |nu_i| / |nu_1| rounded
    up one ulp (0 for one mode or nu_1 = 0; q <= 1 up to roundoff, nu_1 being
    the Perron root), d = |tail - spectral| / |approx|, m the number of modes,
    c = (m + 10) 2^-52 and U = 2^-51 (m + sum_i |alpha_i|) DBL_MIN / |approx|.
    The bound is (1 + c)(r q^k + d) + c + U.

    Proof.  Exactly, spectral/approx - 1 = sum_{i>=2} alpha_i nu_i^k / (alpha_1 nu_1^k),
    at most r q^k in size; the triangle inequality adds d.  Rounding (u = 2^-53,
    pow good to one ulp): `approx` and the m terms of `spectral` err by 3u each,
    and their sum by (m - 1)u of sum_i |alpha_i nu_i^k| <= |approx| (1 + r q^k)(1 + 3u):
    (m + 8)u relative.  r q^k costs (m + 2)u (q is rounded up, so q^k is short by
    at most pow's ulp), d and rel_err 2u each, evaluating the bound 4u: at most
    (2m + 16)u + O(u^2) < c of r q^k or of d, and (m + 9)u < c absolute.  Below
    DBL_MIN a term errs by up to 2^-1074 |alpha_i| + 2^-1075 instead, and r q^k
    by r 2^-1074: U covers both, as |nu_1| <= 1.
    """
    nu, weights = model.nu, np.abs(alpha)
    top = np.max(np.abs(nu[1:]), initial=0.0)
    q = np.nextafter(top / abs(nu[0]), np.inf) if top > 0 and nu[0] != 0 else 0.0
    r = np.sum(weights[1:]) / weights[0]
    c = (nu.size + 10) * 2.0 ** -52
    under = 2.0 ** -51 * (nu.size + np.sum(weights)) * np.finfo(float).tiny / abs(approx)
    return float((1.0 + c) * (r * q ** k + abs(tail - spectral) / abs(approx)) + c + under)
