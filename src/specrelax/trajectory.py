"""Relaxation trajectories in log-domain spectral coordinates.

A trajectory is fully determined by its profile: the nontrivial eigenvalues
that carry weight and the log of the squared projection onto each.  Modal
energies at step k are exp(log_weight + 2k ln|lambda|), so every ledger
quantity is computed with log-sum-exp and survives k up to 1e9 without
underflow.  Modes with lambda = 0 die at k = 1 and are masked, never logged
as ln 0.

One engine, `ledger_block`, evaluates the ledger at many steps at once as a
(steps x modes) block; `ledger_at` and the other per-step functions are its
one-row views, and `ledger_blocks` feeds long scans in bounded memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chains import (HypercubeProfile, ReversibleChain, SpectralDecomposition, _freeze,
                     pi_inner)
from .errors import DeadTrajectory, DimensionMismatch, InvalidArguments, ZeroProjection

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
    dropped: int = 0
    chain_lambda2: float | None = None

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float, copy=True)
        lw = np.array(self.log_weights, dtype=float, copy=True)
        if lam.ndim != 1 or lam.shape != lw.shape:
            raise DimensionMismatch("lambdas and log_weights must be equal-length vectors")
        if lam.size == 0:
            raise ZeroProjection("profile must contain at least one mode")
        if np.any(np.abs(lam) > 1.0 + 1e-12) or np.any(lam >= 1.0):
            raise ValueError("mode eigenvalues must lie in [-1, 1) after centering")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log weights must be finite")
        lam.setflags(write=False)
        lw.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    def slow_index(self) -> int:
        """Index of the mode with the largest (signed) eigenvalue."""
        return int(np.argmax(self.lambdas))


@dataclass(frozen=True)
class ModalLedger:
    """Per-step record of modal energies, their distribution, and decay rate."""

    k: int
    log_modal_energies: np.ndarray  # -inf marks dead modes
    log_energy: float
    p: np.ndarray
    rho: float
    d: float
    terminal: bool = False

    def __post_init__(self):
        _freeze(self, "log_modal_energies", "p")

    @property
    def energy(self) -> float:
        return float(np.exp(self.log_energy))


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

    def share(self, mode: int) -> np.ndarray:
        """exp(log n_mode - log E) per row: one mode's energy fraction, 0 when terminal."""
        log_E = np.where(self.terminal, 0.0, self.log_energy)
        return np.exp(self.log_n[:, mode] - log_E)

    def row(self, i: int) -> ModalLedger:
        rho = float(self.rho[i])
        return ModalLedger(k=int(self.ks[i]), log_modal_energies=self.log_n[i],
                           log_energy=float(self.log_energy[i]), p=self.p[i],
                           rho=rho, d=1.0 - rho, terminal=bool(self.terminal[i]))


def project_initial(decomp: SpectralDecomposition, chain: ReversibleChain,
                    g0, drop_tol: float = DROP_TOL) -> SpectralProfile:
    """Project an initial vector onto the nontrivial eigenmodes.

    The stationary component is removed first; modes whose squared projection
    falls below drop_tol times the centered energy are pruned and counted in
    the profile's `dropped` field.
    """
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (chain.n,):
        raise DimensionMismatch(f"expected vector of length {chain.n}")
    mean = pi_inner(chain, g0, np.ones(chain.n))
    centered = g0 - mean
    total = pi_inner(chain, centered, centered)
    if total <= (1e-14 * np.sqrt(max(pi_inner(chain, g0, g0), 0.0))) ** 2:
        raise ZeroProjection("initial vector has no component off the stationary mode")
    coeffs = decomp.eigenvectors[:, 1:].T @ (chain.pi * centered)
    weights = coeffs ** 2
    keep = weights > drop_tol * total
    if not np.any(keep):
        raise ZeroProjection("all modal weights below the pruning threshold")
    return SpectralProfile(
        lambdas=decomp.eigenvalues[1:][keep],
        log_weights=np.log(weights[keep]),
        dropped=int(np.count_nonzero(~keep)),
        chain_lambda2=float(decomp.eigenvalues[1]),
    )


def profile_from_weights(lambdas, weights, **kw) -> SpectralProfile:
    """Convenience constructor from linear weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive; drop zero modes instead")
    return SpectralProfile(lambdas=np.asarray(lambdas, dtype=float),
                           log_weights=np.log(w), **kw)


def hypercube_trajectory(profile: HypercubeProfile) -> SpectralProfile:
    """Point-mass start on the hypercube: level weights equal multiplicities."""
    return SpectralProfile(
        lambdas=profile.lambdas[1:],
        log_weights=profile.log_multiplicities[1:],
    )


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


def ledger_at(profile: SpectralProfile, k: int) -> ModalLedger:
    """Modal ledger at step k: the one-row view of `ledger_block`.

    When every mode has died (all eigenvalues zero and k >= 1) the energy is
    exactly zero; a distinguished terminal ledger is returned rather than NaN.
    """
    return ledger_block(profile, [k]).row(0)


@dataclass(frozen=True)
class DissipationStep:
    """One-step energy drop and its exact per-mode decomposition."""

    k: int
    delta_E: float
    modewise_terms: np.ndarray
    relative: float  # fraction of energy dissipated at step k

    def __post_init__(self):
        _freeze(self, "modewise_terms")


def dissipation_step(profile: SpectralProfile, k: int) -> DissipationStep:
    """Energy dissipated between steps k and k+1, modewise and in total."""
    led = ledger_at(profile, k)
    if led.terminal:
        raise DeadTrajectory(f"energy is zero at step {k}")
    log_n = led.log_modal_energies
    n = np.where(np.isfinite(log_n), np.exp(log_n), 0.0)
    terms = (1.0 - profile.lambdas ** 2) * n
    return DissipationStep(
        k=k,
        delta_E=float(led.energy * led.d),
        modewise_terms=terms,
        relative=float(led.d),
    )


def matrix_oracle_step(chain: ReversibleChain, g) -> np.ndarray:
    """One dense kernel application; the brute-force cross-validation path."""
    g = np.asarray(g, dtype=float)
    if g.shape != (chain.n,):
        raise DimensionMismatch(f"expected vector of length {chain.n}")
    return chain.kernel @ g


def transport_residual(profile: SpectralProfile, k: int) -> float:
    """Max deviation of p(k+1) from the one-step occupation transport law."""
    block = ledger_block(profile, [k, k + 1])
    led, led_next = block.row(0), block.row(1)
    if led.terminal or led_next.terminal:
        raise DeadTrajectory(f"trajectory dead near step {k}")
    predicted = led.p + led.p * (profile.lambdas ** 2 - led.rho) / led.rho
    return float(np.max(np.abs(led_next.p - predicted)))
