"""Entropy accounting for the modal distribution of a relaxation trajectory.

Everything here is an exact identity of the spectral dynamics, so tests pin
tight tolerances: the entropy balance splits the per-step entropy change into
a covariance transport term over the mean decay rate minus a KL contraction
term; the covariance is computed in its canonical form (its moment and
flux-force forms, which must agree with it, are test oracles); the
energy-weighted entropy G = E * S is the monotone quantity.

Natural logarithms throughout.  A mode with eigenvalue zero dies after one
step; its vanished occupation contributes zero to every KL and covariance
sum (the 0 * ln 0 convention), which keeps the identities exact.

The identities are array functions over a ledger block (`*_rows`), one value
per step or per pair of neighbouring steps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DeadTrajectory, NoSlowMode, OutOfRange
from .trajectory import LedgerBlock

LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each distribution along the last axis (+0.0 for a point mass)."""
    return 0.0 - np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1)


def kl_rows(block: LedgerBlock) -> np.ndarray:
    """KL(p_{k+1} || p_k) for each pair of neighbouring rows of a live block.

    Modes dead at k+1 contribute zero.  Using ln p directly (rather than the
    algebraically equal 2 ln|lambda| - ln rho) keeps the divergence exactly
    consistent with the entropies built from the same logs.
    """
    log_p = block.log_p()
    return np.sum(block.p[1:] * (log_p[1:] - log_p[:-1]), axis=1)


def covariance_rows(block: LedgerBlock, slow: int) -> tuple[np.ndarray, ...]:
    """Covariance of (lambda^2, ln 1/p) at each row in its canonical form,
    with the fluxes J and affinities A whose products it sums.

    Its differences rho - lambda_i^2 avoid the cancellation of large
    entropies that afflicts the moment form -sum p (lambda^2 - rho) ln p.
    """
    if np.any(block.terminal):
        raise DeadTrajectory(f"energy is zero at step {block.ks[block.terminal][0]}")
    alive = np.isfinite(block.log_n)
    if not np.all(alive[:, slow]):
        k = int(block.ks[np.argmin(alive[:, slow])])
        raise NoSlowMode(
            f"slow mode is dead at step {k}; affinities are undefined")
    lam_sq = block.lambdas ** 2
    rho = block.rho[:, None]
    # on a scaled linear copy of the modal energies
    n_scaled = np.exp(block.log_n - np.max(block.log_n, axis=1, keepdims=True))
    aff = np.where(alive, block.log_n - block.log_n[:, slow:slow + 1], -np.inf)
    use = alive.copy()
    use[:, slow] = False
    aff_use = np.where(use, aff, 0.0)
    cov = (np.sum(n_scaled * (rho - lam_sq) * aff_use, axis=1)
           / np.sum(n_scaled, axis=1))
    J = block.p * (rho - lam_sq)
    J[:, slow] = 0.0
    return cov, J, aff


def G_rows(block: LedgerBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, S, G = E * S) at each row of a ledger block.

    S <= ln(modes), A <= E S and B <= E / e, so E max(1, ln(modes)) within
    the doubles keeps E, G and the release terms finite; a block beyond that
    is refused before any exp overflows.
    """
    top = int(np.argmax(block.log_energy))
    log_E = float(block.log_energy[top])
    if log_E + math.log(max(1.0, math.log(block.lambdas.size))) > LOG_DOUBLE_MAX:
        raise OutOfRange(f"ln E = {log_E!r} at step {int(block.ks[top])}: E, G, A and B "
                         "leave the double range")
    E, S = np.exp(block.log_energy), entropy_rows(block.p)
    return E, S, E * S


def release_rows(block: LedgerBlock) -> tuple[np.ndarray, np.ndarray]:
    """The split G_k - G_{k+1} = A + B at each row of a live block: (A, B).

    Rows with rho = 0 are refused, as B logs rho: rho is 0 in floating point,
    while the trajectory lives on, when every mode with lambda^2 > 0 has an
    occupation that underflows (at k = 0 only lambda = 0 modes, say, hold the
    energy).
    """
    zero = block.rho <= 0.0
    if np.any(zero):
        raise DeadTrajectory(
            f"rho underflows to 0 at step {int(block.ks[np.argmax(zero)])}: "
            "no resolvable energy on modes with lambda != 0")
    lam = block.lambdas
    x = lam ** 2
    A = np.sum(np.exp(block.log_n) * (1.0 - x) * -block.log_p(), axis=1)
    # the Jensen gap E (sum p x ln x - rho ln rho) = E sum p rho phi(u), with
    # phi(u) = (1 + u) ln(1 + u) - u >= 0 and u = (x - rho)/rho.  x - rho comes
    # from |lambda| - |lambda_r| for the row's heaviest mode r, as fl(lambda^2)
    # errs by 2^-53 x; phi cancels to u^2/2, so for |u| <= 0.01 it is the series
    # sum_{n>=2} (-u)^n / (n (n - 1)), 8 terms to 2^-53.  For |u| > 1/2 the log
    # forms; where x underflows, ln x = 2 ln|lambda|.
    rho = block.rho[:, None]
    abs_lam = np.abs(lam)
    ref = abs_lam[np.argmax(block.p, axis=1)][:, None]
    d = (abs_lam - ref) * (abs_lam + ref)
    d -= np.sum(block.p * d, axis=1, keepdims=True)
    normal = x >= np.finfo(float).tiny
    log_x = 2.0 * np.log(np.where(lam != 0.0, abs_lam, 1.0))
    terms = x * np.where(normal, np.log(np.where(normal, x, 1.0) / rho), log_x - np.log(rho))
    terms -= d
    u = np.divide(d, rho, out=d)
    near = np.abs(u) <= 0.5
    v = u[near]
    phi = (1.0 + v) * np.log1p(v) - v
    small = np.abs(v) <= 0.01
    v = v[small]
    phi[small] = v * v * np.polyval([(-1) ** n / (n * (n - 1)) for n in range(9, 1, -1)], v)
    terms[near] = np.broadcast_to(rho, u.shape)[near] * phi
    B = np.exp(block.log_energy) * np.sum(block.p * terms, axis=1)
    return A, B
