"""Entropy accounting for the modal distribution of a relaxation trajectory.

Everything here is an exact identity of the spectral dynamics, so tests pin
tight tolerances: the entropy balance splits the per-step entropy change into
a covariance transport term over the mean decay rate minus a KL contraction
term; the covariance itself has moment, canonical, and flux-force forms that
must agree; the energy-weighted entropy G = E * S is the monotone quantity.

Natural logarithms throughout.  A mode with eigenvalue zero dies after one
step; its vanished occupation contributes zero to every KL and covariance
sum (the 0 * ln 0 convention), which keeps the identities exact.

The identities are array functions over a ledger block (`*_rows`), one value
per step or per pair of neighbouring steps; the per-step functions are their
one-row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DeadMode,
    DeadTrajectory,
    Degenerate,
    InvalidArguments,
    NonConvergent,
    NoSlowMode,
    NotADistribution,
)
from .rigidity import rigidity_time, split_slow_fast
from .trajectory import (
    LedgerBlock,
    SpectralProfile,
    ledger_at,
    ledger_block,
    ledger_blocks,
    profile_from_weights,
)

LN2 = math.log(2.0)


def spectral_entropy(p) -> float:
    """Shannon entropy (nats) of a modal distribution, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise NotADistribution("negative probability entry")
    if abs(p.sum() - 1.0) > 1e-12:
        raise NotADistribution(f"probabilities sum to {p.sum()!r}")
    return float(entropy_rows(p))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each distribution along the last axis, unvalidated."""
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1)


def kl_rows(block: LedgerBlock) -> np.ndarray:
    """KL(p_{k+1} || p_k) for each pair of neighbouring rows of a live block.

    Modes dead at k+1 contribute zero.  Using ln p directly (rather than the
    algebraically equal 2 ln|lambda| - ln rho) keeps the divergence exactly
    consistent with the entropies built from the same logs.
    """
    log_p = block.log_p()
    return np.sum(block.p[1:] * (log_p[1:] - log_p[:-1]), axis=1)


@dataclass(frozen=True)
class EntropyBalance:
    k: int
    dS: float
    cov: float
    cov_over_rho: float
    kl: float
    residual: float


def _step_pair(profile: SpectralProfile, k: int) -> LedgerBlock:
    """The two-row block of steps k and k + 1, both live, with rho_k > 0."""
    block = ledger_block(profile, [k, k + 1])
    if np.any(block.terminal):
        raise DeadTrajectory(f"trajectory dead near step {k}")
    _require_rho(block[:1])
    return block


def _require_rho(block: LedgerBlock) -> None:
    """Refuse rows with rho = 0, which the step identities divide by or log.

    rho is 0 in floating point, while the trajectory lives on, when every
    mode with lambda^2 > 0 has an occupation that underflows (at k = 0 only
    lambda = 0 modes, say, hold the energy).
    """
    zero = block.rho <= 0.0
    if np.any(zero):
        raise DeadTrajectory(
            f"rho underflows to 0 at step {int(block.ks[np.argmax(zero)])}: "
            "no resolvable energy on modes with lambda != 0")


def entropy_balance(profile: SpectralProfile, k: int) -> EntropyBalance:
    """Audit the exact entropy balance at step k; residual is pure roundoff."""
    block = _step_pair(profile, k)
    S = entropy_rows(block.p)
    dS = float(S[1] - S[0])
    cov = float(covariance_rows(block[:1], split_slow_fast(profile).slow_index)[0][0])
    kl = float(kl_rows(block)[0])
    rho = float(block.rho[0])
    return EntropyBalance(k=k, dS=dS, cov=cov, cov_over_rho=cov / rho,
                          kl=kl, residual=abs(dS - cov / rho + kl))


@dataclass(frozen=True)
class CovarianceForms:
    k: int
    cov: float                      # canonical form, the reference value
    cov_moment: float
    cov_fluxforce: float
    fluxes: np.ndarray              # J_i per fast mode (dead modes: 0)
    affinities: np.ndarray          # A_i = ln(n_i / n_slow), -inf when dead
    term_scale: float               # sum |J_i A_i|, conditioning scale of the sum

    def __post_init__(self):
        for name in ("fluxes", "affinities"):
            a = np.array(getattr(self, name), dtype=float, copy=True)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def covariance_rows(block: LedgerBlock, slow: int) -> tuple[np.ndarray, ...]:
    """Covariance of (lambda^2, ln 1/p) at each row, in its three exact forms.

    Returns (canonical, moment, flux-force, fluxes J, affinities A, sum |J A|),
    the last the conditioning scale of the sum.  The canonical form is the
    reference: its differences rho - lambda_i^2 avoid the cancellation of
    large entropies that afflicts the moment form.
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

    # moment form: -sum p (lambda^2 - rho) ln p
    cov_moment = -np.sum(block.p * (lam_sq - rho) * block.log_p(), axis=1)

    # canonical form on a scaled linear copy of the modal energies
    n_scaled = np.exp(block.log_n - np.max(block.log_n, axis=1, keepdims=True))
    aff = np.where(alive, block.log_n - block.log_n[:, slow:slow + 1], -np.inf)
    use = alive.copy()
    use[:, slow] = False
    aff_use = np.where(use, aff, 0.0)
    cov_canonical = (np.sum(n_scaled * (rho - lam_sq) * aff_use, axis=1)
                     / np.sum(n_scaled, axis=1))

    # flux-force form
    J = block.p * (rho - lam_sq)
    J[:, slow] = 0.0
    terms = J * aff_use
    return (cov_canonical, cov_moment, np.sum(terms, axis=1), J, aff,
            np.sum(np.abs(terms), axis=1))


def canonical_covariance(profile: SpectralProfile, k: int) -> CovarianceForms:
    """Covariance of (lambda^2, ln 1/p) under p_k, in its three exact forms."""
    split = split_slow_fast(profile)
    cov, moment, fluxforce, J, aff, scale = covariance_rows(
        ledger_block(profile, [k]), split.slow_index)
    return CovarianceForms(
        k=k, cov=float(cov[0]), cov_moment=float(moment[0]),
        cov_fluxforce=float(fluxforce[0]), fluxes=J[0],
        affinities=aff[0], term_scale=float(scale[0]),
    )


@dataclass(frozen=True)
class TwoModeTransition:
    k_star: int                  # first step with slow fraction >= 1/2
    k_real: float                # real-valued crossing of the weight ratio
    entropy_at_crossing: float   # interpolated entropy there (= ln 2)


def two_mode_transition(lambda2: float, lambdaj: float,
                        w2: float, wj: float) -> TwoModeTransition:
    """Half-rigidity crossing of a two-mode trajectory."""
    if w2 <= 0 or wj <= 0:
        raise InvalidArguments("both weights must be positive")
    if not (lambda2 > abs(lambdaj) > 0):
        raise Degenerate(
            f"need lambda2 > |lambdaj| > 0, got {lambda2!r}, {lambdaj!r}")
    profile = profile_from_weights([lambda2, lambdaj], [w2, wj])
    report = rigidity_time(profile, 0.5)
    k_real = math.log(wj / w2) / (2.0 * math.log(lambda2 / abs(lambdaj)))
    # continuous-time slow fraction at the crossing; exactly 1/2 up to roundoff
    ratio = (wj / w2) * (abs(lambdaj) / lambda2) ** (2.0 * k_real)
    alpha = 1.0 / (1.0 + ratio)
    entropy = _binary_entropy(alpha)
    return TwoModeTransition(k_star=report.t_rigid, k_real=k_real,
                             entropy_at_crossing=entropy)


def _binary_entropy(a: float) -> float:
    s = 0.0
    if a > 0:
        s -= a * math.log(a)
    if a < 1:
        s -= (1.0 - a) * math.log(1.0 - a)
    return s


@dataclass(frozen=True)
class GeneralThreshold:
    delta_star: float
    t_threshold: int


def general_threshold(profile: SpectralProfile, cap: int | None = None) -> GeneralThreshold:
    """Rigidity level past which the covariance is negative and entropy falls."""
    split = split_slow_fast(profile)
    if split.fast_weight == 0.0:
        return GeneralThreshold(delta_star=0.5, t_threshold=0)
    if split.slow_lambda <= 0 or split.degenerate:
        raise Degenerate("threshold requires strict slow/fast separation")
    ratio_sq = (split.fast_abs_lambda / split.slow_lambda) ** 2
    delta_star = 1.0 - max(0.5, ratio_sq)
    report = rigidity_time(profile, delta_star, cap=cap)
    if not report.reached:
        raise NonConvergent("rigidity threshold not reached within cap")
    return GeneralThreshold(delta_star=delta_star, t_threshold=report.t_rigid)


@dataclass(frozen=True)
class ClausiusCheck:
    lhs: float                   # accumulated KL divergences
    rhs: float                   # initial entropy + accumulated cov / rho
    residual: float
    steps_used: int
    entropy_at_stop: float


def clausius_check(profile: SpectralProfile,
                   entropy_floor: float = 1e-12,
                   cap: int = 100_000) -> ClausiusCheck:
    """Sum the entropy balance over the whole trajectory and compare sides.

    Both series are truncated once the spectral entropy drops below
    `entropy_floor`; the telescoped identity bounds the truncation error by
    the remaining entropy.
    """
    split = split_slow_fast(profile)
    if split.fast_weight > 0 and (split.degenerate or split.slow_lambda <= 0.0):
        raise NonConvergent(
            "degenerate slow cluster: spectral entropy does not vanish")
    S0 = None
    kl_sum = cov_sum = 0.0
    for block in ledger_blocks(profile, range(cap + 1), pairs=True):
        S = entropy_rows(block.p)
        if S0 is None:
            S0 = float(S[0])
        # stop at the first step whose entropy is below the floor or whose
        # successor is dead; a block's first row is the last of the one before
        stop = S < entropy_floor
        stop[:-1] |= block.terminal[1:]
        hits = np.flatnonzero(stop)
        end = int(hits[0]) if hits.size else block.ks.size - 1
        if end:
            used = block[:end + 1]
            _require_rho(used[:-1])
            cov = covariance_rows(used[:-1], split.slow_index)[0]
            cov_sum += float(np.sum(cov / used.rho[:-1]))
            kl_sum += float(np.sum(kl_rows(used)))
        if hits.size:
            break
    k = int(block.ks[end])
    S_here = float(S[end])
    if S_here >= entropy_floor and k < cap:
        S_here = 0.0                # the next step is dead: no entropy left
    lhs = kl_sum
    rhs = S0 + cov_sum
    return ClausiusCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                         steps_used=k, entropy_at_stop=S_here)


@dataclass(frozen=True)
class SecondLawStep:
    k: int
    G_k: float
    G_k1: float
    A: float                     # occupation-disorder release, >= 0 termwise
    B: float                     # decay-rate dispersion release, >= 0


def G_step(profile: SpectralProfile, k: int) -> SecondLawStep:
    """One step of the energy-weighted entropy G = E * S and its exact split."""
    block = _step_pair(profile, k)
    G = np.exp(block.log_energy) * entropy_rows(block.p)
    A, B = release_rows(block[:1])
    return SecondLawStep(k=k, G_k=float(G[0]), G_k1=float(G[1]),
                         A=float(A[0]), B=float(B[0]))


def release_rows(block: LedgerBlock) -> tuple[np.ndarray, np.ndarray]:
    """The split G_k - G_{k+1} = A + B at each row of a live block: (A, B)."""
    _require_rho(block)
    lam = block.lambdas
    x = lam ** 2
    A = np.sum(np.exp(block.log_n) * (1.0 - x) * -block.log_p(), axis=1)
    # ratio form of E[x ln x] - rho ln rho: one less layer of cancellation
    # between large logs, and exactly zero for a single mode.  Where x
    # underflows, ln x = 2 ln|lambda| replaces it; lambda = 0 adds 0 ln 0 = 0.
    rho = block.rho[:, None]
    normal = x >= np.finfo(float).tiny
    log_x = 2.0 * np.log(np.where(lam != 0.0, np.abs(lam), 1.0))
    log_ratio = np.where(normal, np.log(np.where(normal, x, 1.0) / rho),
                         log_x - np.log(rho))
    B = np.exp(block.log_energy) * np.sum(block.p * x * log_ratio, axis=1)
    return A, B


def helmholtz_like(profile: SpectralProfile, k: int) -> float:
    """E * (1 - S): the non-monotone negative control for the second law."""
    led = ledger_at(profile, k)
    if led.terminal:
        raise DeadTrajectory(f"energy is zero at step {k}")
    return float(led.energy * (1.0 - entropy_rows(led.p)))


@dataclass(frozen=True)
class EntropySplit:
    k: int
    alpha2: float
    H_binary: float
    H_fast: float
    total: float                 # H_binary + (1 - alpha2) * H_fast


def entropy_decomposition(profile: SpectralProfile, k: int) -> EntropySplit:
    """Split the spectral entropy into slow/fast competition and fast disorder."""
    split = split_slow_fast(profile)
    led = ledger_at(profile, k)
    if led.terminal:
        raise DeadTrajectory(f"energy is zero at step {k}")
    alpha2 = float(led.p[split.slow_index])
    fast_p = np.delete(led.p, split.slow_index)
    rest = float(fast_p.sum())   # 1 - alpha2 without cancellation
    H_bin = 0.0
    if alpha2 > 0:
        H_bin -= alpha2 * math.log(alpha2)
    if rest > 0:
        H_bin -= rest * math.log(rest)
    if rest <= 0.0:
        H_fast = 0.0
    else:
        H_fast = float(entropy_rows(fast_p / rest))
    return EntropySplit(k=k, alpha2=alpha2, H_binary=H_bin, H_fast=H_fast,
                        total=H_bin + rest * H_fast)


@dataclass(frozen=True)
class FdtCheck:
    mode: int
    k: int
    ratio: float                 # (C(k+1) - C(k)) / C(k)
    expected: float              # lambda^2 - 1


def fdt_check(profile: SpectralProfile, mode: int, k: int) -> FdtCheck:
    """Per-mode relative energy decrement; equals lambda^2 - 1 at every step."""
    if not (0 <= mode < profile.n_modes):
        raise InvalidArguments(f"mode index {mode} out of range")
    lam = float(profile.lambdas[mode])
    if lam == 0.0 and k >= 1:
        raise DeadMode(f"mode {mode} died at step 1")
    ratio = -1.0 if lam == 0.0 else float(math.expm1(2.0 * math.log(abs(lam))))
    return FdtCheck(mode=mode, k=k, ratio=ratio, expected=lam * lam - 1.0)
