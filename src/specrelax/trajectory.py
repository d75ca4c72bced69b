"""Relaxation trajectories in log-domain spectral coordinates.

A trajectory is fully determined by its profile: the nontrivial eigenvalues
that carry weight and the log of the squared projection onto each.  Modal
energies at step k are exp(log_weight + 2k ln|lambda|), so every ledger
quantity is computed with log-sum-exp and survives k up to 1e9 without
underflow.  Modes with lambda = 0 die at k = 1 and are masked, never logged
as ln 0.

One engine, `ledger_block`, evaluates the ledger at many steps at once as a
(steps x modes) block, and `ledger_blocks` feeds long scans in bounded
memory.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chains import ReversibleChain, SpectralDecomposition, _freeze, pi_center
from .errors import DimensionMismatch, InvalidArguments, InvalidSize, OutOfRange, ZeroProjection

DROP_TOL = 1e-14  # relative weight below which a mode is pruned at projection
LEDGER_BLOCK_ELEMENTS = 1 << 18  # entries per (steps x modes) block: 2 MB a float array


@dataclass(frozen=True)
class SpectralProfile:
    """Closed dynamical state of a trajectory: (eigenvalue, ln weight) pairs.

    The stationary mode is excluded.  `chain_lambda2`, when known, records the
    largest nontrivial eigenvalue of the ambient chain even if that mode was
    dropped for carrying no weight; slow-mode operations use it to flag a
    vanished slow projection.
    """

    lambdas: np.ndarray
    log_weights: np.ndarray
    chain_lambda2: float | None = None

    def __post_init__(self):
        _freeze(self, "lambdas", "log_weights")
        lam, lw = self.lambdas, self.log_weights
        if lam.ndim != 1 or lam.shape != lw.shape:
            raise DimensionMismatch("lambdas and log_weights must be equal-length vectors")
        if lam.size == 0:
            raise ZeroProjection("profile must contain at least one mode")
        if not np.all((lam >= -1.0 - 1e-12) & (lam < 1.0)):     # nan is refused too
            raise OutOfRange("mode eigenvalues must lie in [-1, 1) after centering")
        if not np.all(np.isfinite(lw)):
            raise OutOfRange("log weights must be finite")

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    def slow_index(self) -> int:
        """Index of the mode with the largest (signed) eigenvalue."""
        return int(np.argmax(self.lambdas))


@dataclass(frozen=True)
class LedgerBlock:
    """Ledgers of one profile at a run of steps, one row per step.

    A terminal row (every mode dead) has log energy -inf and p = rho = 0.
    Slicing a block selects rows and shares the arrays.
    """

    ks: np.ndarray              # (rows,) steps
    lambdas: np.ndarray         # (modes,) the profile's eigenvalues
    log_n: np.ndarray           # (rows, modes) log modal energies, -inf when dead
    log_energy: np.ndarray      # (rows,)
    p: np.ndarray               # (rows, modes) occupation distribution
    rho: np.ndarray             # (rows,) mean squared eigenvalue under p

    def __getitem__(self, rows) -> LedgerBlock:
        return LedgerBlock(ks=self.ks[rows], lambdas=self.lambdas,
                           log_n=self.log_n[rows], log_energy=self.log_energy[rows],
                           p=self.p[rows], rho=self.rho[rows])

    @property
    def terminal(self) -> np.ndarray:
        return self.log_energy == -np.inf

    def log_p(self) -> np.ndarray:
        """ln p per mode, 0 where the mode is dead (the 0 ln 0 = 0 convention)."""
        log_E = np.where(self.terminal, 0.0, self.log_energy)
        return np.where(np.isfinite(self.log_n), self.log_n - log_E[:, None], 0.0)


def project_initial(decomp: SpectralDecomposition, chain: ReversibleChain, g0) -> SpectralProfile:
    """Project an initial vector onto the nontrivial eigenmodes.

    The stationary component is removed first; modes whose squared projection
    falls below DROP_TOL times the centered energy are pruned.
    """
    centered, total = pi_center(chain, g0)
    coeffs = decomp.eigenvectors[:, 1:].T @ (chain.pi * centered)
    weights = coeffs ** 2
    keep = weights > DROP_TOL * total
    lam = decomp.eigenvalues[1:]
    return SpectralProfile(
        lambdas=lam[keep],
        log_weights=np.log(weights[keep]),
        chain_lambda2=float(lam[0]),
    )


def profile_from_weights(lambdas, weights, **kw) -> SpectralProfile:
    """Convenience constructor from linear weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise InvalidArguments("weights must be strictly positive; drop zero modes instead")
    return SpectralProfile(lambdas=np.asarray(lambdas, dtype=float),
                           log_weights=np.log(w), **kw)


def hypercube_profile(n: int) -> SpectralProfile:
    """Point-mass start on the n-cube walk by level: level j = 1..n has eigenvalue
    1 - 2j/n and weight C(n, j), kept as its log so that large n never overflows."""
    if n < 1:
        raise InvalidSize("hypercube dimension must be >= 1")
    j = np.arange(1, n + 1)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    return SpectralProfile(lambdas=1.0 - 2.0 * j / n,
                           log_weights=log_factorial[n] - log_factorial[j] - log_factorial[n - j])


def ledger_block(profile: SpectralProfile, ks) -> LedgerBlock:
    """Ledgers at every step of `ks` as one (steps x modes) block.

    Log modal energies are ln c_i^2 + 2k ln|lambda_i|; modes with lambda = 0
    are masked to -inf from k = 1 on.  p is the max-shifted exponentials
    divided by their own sum: exp(log_n - log_E) would carry an error of about
    |log_n| ulp, which exceeds 1e-12 once log_n reaches ~1e4.  The block holds
    every step at once; `ledger_blocks` bounds the memory of long scans.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if np.any(ks < 0):
        raise InvalidArguments("step must be nonnegative")
    lam = profile.lambdas
    alive = lam != 0.0
    log_abs = np.log(np.abs(np.where(alive, lam, 1.0)))
    log_n = profile.log_weights + (2.0 * ks.astype(float))[:, None] * log_abs
    if not np.all(alive):
        log_n[np.ix_(ks >= 1, ~alive)] = -np.inf
    top = np.max(log_n, axis=1)
    live = top > -np.inf
    shifted = np.exp(log_n - np.where(live, top, 0.0)[:, None])
    total = np.sum(shifted, axis=1)
    log_E = np.full(ks.size, -np.inf)
    log_E[live] = top[live] + np.log(total[live])
    p = shifted / np.where(live, total, 1.0)[:, None]
    return LedgerBlock(ks=ks, lambdas=lam, log_n=log_n, log_energy=log_E,
                       p=p, rho=np.sum(p * lam ** 2, axis=1))


def ledger_blocks(profile: SpectralProfile, ks,
                  pairs: bool = False) -> Iterator[LedgerBlock]:
    """`ledger_block` over `ks` in consecutive pieces, for scans of any length.

    Pieces double from 16 steps up to LEDGER_BLOCK_ELEMENTS entries, so a
    scan that stops early computes at most about twice the steps it uses,
    and a long one keeps its memory bounded.  The pieces partition `ks`;
    with `pairs`, each piece after the first starts at the last step of the
    one before instead, so every pair of neighbouring steps lies within one
    block.  `ks` may be a `range`; it is sliced, never materialized whole.
    """
    longest = max(2, LEDGER_BLOCK_ELEMENTS // profile.n_modes)
    rows, start = min(16, longest), 0
    while True:
        stop = min(start + rows, len(ks))
        yield ledger_block(profile, ks[start:stop])
        if stop >= len(ks):
            return
        rows, start = min(2 * rows, longest), stop - 1 if pairs else stop
