"""Reference implementations that the tests call and no command uses.

Per-step views of the ledger engine, closed-form checks of the entropy,
power-iteration, rigidity and acceleration identities, the moment and
flux-force forms of the covariance, and the chain constructions the tests
draw from.  Where the package has a block function for a value
(`ledger_block`, `covariance_rows`, `G_rows`, `release_rows`, `kl_rows`,
`gamma_vhat`, `spectral_tails`), the oracle reads it from there, so a test
that compares a per-step value with a CLI column compares two readings of
one computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from specrelax.accel import AccelPlan, chebyshev_T
from specrelax.chains import ReversibleChain, build_chain, pi_inner
from specrelax.errors import Degenerate, SpecRelaxError
from specrelax.first_passage import AbsorbingModel, spectral_tails, tail_coefficients, tail_curve
from specrelax.power_iter import StoppingState, gamma_vhat
from specrelax.rigidity import rigidity_time, split_slow_fast
from specrelax.thermo import G_rows, covariance_rows, entropy_rows, kl_rows, release_rows
from specrelax.trajectory import (
    LedgerBlock,
    SpectralProfile,
    ledger_block,
    ledger_blocks,
    profile_from_weights,
)

GRID_POINTS = 10_001


# --- error types raised only here -------------------------------------------

class NonConvergent(SpecRelaxError):
    """Spectral entropy does not vanish (degenerate slow cluster)."""


class StreamEnded(SpecRelaxError):
    """The rho stream was exhausted before the stopping rule fired."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


# --- chains -----------------------------------------------------------------

def lazy_transform(chain: ReversibleChain, a: float) -> ReversibleChain:
    """Mix the kernel with the identity: (1-a) I + a P, 0 < a <= 1.  Same stationary law."""
    return build_chain((1.0 - a) * np.eye(chain.n) + a * chain.kernel)


def _orthogonal_with_uniform_column(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n))
    A[:, 0] = 1.0 / math.sqrt(n)
    Q, _ = np.linalg.qr(A)
    if Q[0, 0] < 0:
        Q = -Q
    return Q


def chain_from_spectrum(eigenvalues, max_resample: int = 1000,
                        seed: int = 0) -> ReversibleChain:
    """Realize a prescribed spectrum as a uniform-stationary reversible kernel.

    Conjugates diag(eigenvalues), the first of them 1, by random orthogonal
    bases whose first column is the uniform vector, resampling until all
    kernel entries are nonnegative.  Not every spectrum is realizable this way.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(max_resample):
        Q = _orthogonal_with_uniform_column(lam.size, rng)
        P = (Q * lam) @ Q.T
        if P.min() >= 0.0:
            # clean up roundoff asymmetry before validation
            P = 0.5 * (P + P.T)
            P /= P.sum(axis=1, keepdims=True)
            return build_chain(P)
    raise AssertionError(f"no nonnegative kernel after {max_resample} attempts")


def dirichlet_form(chain: ReversibleChain, f, agreement_tol: float = 1e-12) -> float:
    """Quadratic dissipation form of f.

    Evaluated both as the half-sum over edges of pi(x)P(x,y)(f(x)-f(y))^2 and
    as <f, (I-P)f>; the two must agree to within `agreement_tol` relative.
    """
    f = np.asarray(f, dtype=float)
    diff = f[:, None] - f[None, :]
    edge_sum = 0.5 * float(np.sum(chain.pi[:, None] * chain.kernel * diff * diff))
    operator_form = pi_inner(chain, f, f - chain.kernel @ f)
    scale = max(abs(edge_sum), abs(operator_form), 1e-300)
    if abs(edge_sum - operator_form) > agreement_tol * max(scale, 1.0):
        raise SpecRelaxError(f"dirichlet form mismatch: {edge_sum!r} vs {operator_form!r}")
    return edge_sum


# --- trajectory -------------------------------------------------------------

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

    @property
    def energy(self) -> float:
        return float(np.exp(self.log_energy))


def ledger_row(block: LedgerBlock, i: int) -> ModalLedger:
    """Row i of a ledger block as one step's ledger."""
    rho = float(block.rho[i])
    return ModalLedger(k=int(block.ks[i]), log_modal_energies=block.log_n[i],
                       log_energy=float(block.log_energy[i]), p=block.p[i],
                       rho=rho, d=1.0 - rho, terminal=bool(block.terminal[i]))


def ledger_at(profile: SpectralProfile, k: int) -> ModalLedger:
    """Modal ledger at step k: the one-row view of `ledger_block`."""
    return ledger_row(ledger_block(profile, [k]), 0)


@dataclass(frozen=True)
class DissipationStep:
    """One-step energy drop and its exact per-mode decomposition."""

    k: int
    delta_E: float
    modewise_terms: np.ndarray
    relative: float  # fraction of energy dissipated at step k


def dissipation_step(profile: SpectralProfile, k: int) -> DissipationStep:
    """Energy dissipated between steps k and k+1, modewise and in total."""
    led = ledger_at(profile, k)
    terms = (1.0 - profile.lambdas ** 2) * np.exp(led.log_modal_energies)  # dead: exp(-inf) = 0
    return DissipationStep(k=k, delta_E=float(led.energy * led.d),
                           modewise_terms=terms, relative=float(led.d))


def matrix_oracle_step(chain: ReversibleChain, g) -> np.ndarray:
    """One dense kernel application; the brute-force cross-validation path."""
    return chain.kernel @ np.asarray(g, dtype=float)


def transport_residual(profile: SpectralProfile, k: int) -> float:
    """Max deviation of p(k+1) from the one-step occupation transport law."""
    block = ledger_block(profile, [k, k + 1])
    led, led_next = ledger_row(block, 0), ledger_row(block, 1)
    predicted = led.p + led.p * (profile.lambdas ** 2 - led.rho) / led.rho
    return float(np.max(np.abs(led_next.p - predicted)))


# --- rigidity ---------------------------------------------------------------

def slow_fraction(profile: SpectralProfile, k: int) -> float:
    """Share of the step-k energy carried by the largest-eigenvalue mode."""
    slow = split_slow_fast(profile).slow_index
    return float(ledger_at(profile, k).p[slow])


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool                    # constant dissipation fraction from the start
    rigid_from: int | None         # first step after which the fraction is constant
    rho: float | None
    eta: float | None
    witness: tuple[int, float, float] | None  # (k, d_k, d_{k+1}) of the first violation


def detect_rigid(energies, tol: float = 1e-10) -> RigidityVerdict:
    """Check whether a positive energy sequence E_0..E_m, m >= 2, decays by a
    constant fraction each step."""
    E = np.asarray(energies, dtype=float)
    d = 1.0 - E[1:] / E[:-1]
    bad = np.where(np.abs(np.diff(d)) > tol)[0]
    if bad.size == 0:
        return RigidityVerdict(True, 0, float(np.sqrt(E[1] / E[0])), float(d[0]), None)
    witness = (int(bad[0]), float(d[bad[0]]), float(d[bad[0] + 1]))
    j = int(bad[-1]) + 1
    if j <= d.size - 2:  # the constant suffix must contain at least two fractions
        return RigidityVerdict(False, j, float(np.sqrt(E[j + 1] / E[j])),
                               float(d[j]), witness)
    return RigidityVerdict(False, None, None, None, witness)


@dataclass(frozen=True)
class ClosureBound:
    k: int
    bound: float
    actual: float


def closure_bound(profile: SpectralProfile, delta: float, k: int) -> ClosureBound:
    """Bound on |d_k - (1 - lambda2^2)|, valid from the rigidity time for
    `delta` on, given a strict slow/fast separation."""
    split = split_slow_fast(profile)
    led = ledger_at(profile, k)
    lam2 = split.slow_lambda
    actual = abs(led.d - (1.0 - lam2 ** 2))
    if split.fast_weight == 0:
        return ClosureBound(k=k, bound=0.0, actual=float(actual))
    lam3 = split.fast_abs_lambda
    worst_fast_rate = 1.0 - float(np.min(np.delete(profile.lambdas, split.slow_index) ** 2))
    # the tail (R0/c2)(lam3/lam2)^(2k) in logs: R0/c2 alone may leave the doubles
    log_tail = split.log_init_ratio + 2 * k * math.log(lam3 / lam2) if lam3 else -math.inf
    bound = (1.0 - lam3 ** 2) * delta + worst_fast_rate * math.exp(min(log_tail, 709.0))
    return ClosureBound(k=k, bound=float(bound), actual=float(actual))


# --- thermo -----------------------------------------------------------------

@dataclass(frozen=True)
class EntropyBalance:
    k: int
    dS: float
    cov: float
    cov_over_rho: float
    kl: float
    residual: float


def entropy_balance(profile: SpectralProfile, k: int) -> EntropyBalance:
    """Audit the exact entropy balance at step k; residual is pure roundoff."""
    block = ledger_block(profile, [k, k + 1])
    S = entropy_rows(block.p)
    dS = float(S[1] - S[0])
    cov = float(covariance_rows(block[:1], split_slow_fast(profile).slow_index)[0][0])
    kl = float(kl_rows(block)[0])
    rho = float(block.rho[0])
    return EntropyBalance(k=k, dS=dS, cov=cov, cov_over_rho=cov / rho,
                          kl=kl, residual=abs(dS - cov / rho + kl))


def canonical_covariance(profile: SpectralProfile, k: int) -> tuple:
    """(cov, fluxes J, affinities A) at step k, as `thermo --fluxes-at` computes them."""
    cov, J, aff = covariance_rows(ledger_block(profile, [k]), split_slow_fast(profile).slow_index)
    return float(cov[0]), J[0], aff[0]


@dataclass(frozen=True)
class CovarianceTriple:
    cov: float                  # canonical form, as the package computes it
    cov_moment: float
    cov_fluxforce: float
    term_scale: float           # sum |J_i A_i|, conditioning scale of the sum


def covariance_forms(profile: SpectralProfile, k: int) -> CovarianceTriple:
    """The canonical covariance at step k beside its two other exact forms.

    The moment form -sum p (lambda^2 - rho) ln p cancels large entropies; the
    flux-force form sums J_i A_i over the fast modes.  All three must agree.
    """
    cov, fluxes, affinities = canonical_covariance(profile, k)
    block = ledger_block(profile, [k])
    moment = -np.sum(block.p * (block.lambdas ** 2 - block.rho[:, None]) * block.log_p(),
                     axis=1)
    terms = fluxes * np.where(np.isfinite(affinities), affinities, 0.0)
    return CovarianceTriple(cov=cov, cov_moment=float(moment[0]),
                            cov_fluxforce=float(np.sum(terms)),
                            term_scale=float(np.sum(np.abs(terms))))


@dataclass(frozen=True)
class TwoModeTransition:
    k_star: int                  # first step with slow fraction >= 1/2
    k_real: float                # real-valued crossing of the weight ratio
    entropy_at_crossing: float   # interpolated entropy there (= ln 2)


def two_mode_transition(lambda2: float, lambdaj: float,
                        w2: float, wj: float) -> TwoModeTransition:
    """Half-rigidity crossing of a two-mode trajectory: w2, wj > 0 and
    lambda2 > |lambdaj| > 0."""
    report = rigidity_time(profile_from_weights([lambda2, lambdaj], [w2, wj]), 0.5)
    k_real = math.log(wj / w2) / (2.0 * math.log(lambda2 / abs(lambdaj)))
    # continuous-time slow fraction at the crossing; exactly 1/2 up to roundoff
    ratio = (wj / w2) * (abs(lambdaj) / lambda2) ** (2.0 * k_real)
    alpha = 1.0 / (1.0 + ratio)
    entropy = float(entropy_rows(np.array([alpha, 1.0 - alpha])))
    return TwoModeTransition(k_star=report.t_rigid, k_real=k_real,
                             entropy_at_crossing=entropy)


@dataclass(frozen=True)
class GeneralThreshold:
    delta_star: float
    t_threshold: int


def general_threshold(profile: SpectralProfile) -> GeneralThreshold:
    """Rigidity level past which the covariance is negative and entropy falls."""
    split = split_slow_fast(profile)
    if split.fast_weight == 0.0:
        return GeneralThreshold(delta_star=0.5, t_threshold=0)
    if split.delta_star is None:
        raise Degenerate("threshold requires strict slow/fast separation")
    report = rigidity_time(profile, split.delta_star)
    if report.t_rigid is None:
        raise NonConvergent("rigidity threshold not reached within cap")
    return GeneralThreshold(delta_star=split.delta_star, t_threshold=report.t_rigid)


@dataclass(frozen=True)
class ClausiusCheck:
    lhs: float                   # accumulated KL divergences
    rhs: float                   # initial entropy + accumulated cov / rho
    residual: float
    steps_used: int
    entropy_at_stop: float


def clausius_check(profile: SpectralProfile, entropy_floor: float = 1e-12,
                   cap: int = 100_000) -> ClausiusCheck:
    """Sum the entropy balance over the whole trajectory and compare sides.

    Both series are truncated once the spectral entropy drops below
    `entropy_floor`; the telescoped identity bounds the truncation error by
    the remaining entropy.
    """
    split = split_slow_fast(profile)
    if split.degenerate:
        raise NonConvergent("degenerate slow cluster: spectral entropy does not vanish")
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
            cov = covariance_rows(used[:-1], split.slow_index)[0]
            cov_sum += float(np.sum(cov / used.rho[:-1]))
            kl_sum += float(np.sum(kl_rows(used)))
        if hits.size:
            break
    k = int(block.ks[end])
    S_here = float(S[end])
    if S_here >= entropy_floor and k < cap:
        S_here = 0.0                # the next step is dead: no entropy left
    return ClausiusCheck(lhs=kl_sum, rhs=S0 + cov_sum, residual=abs(kl_sum - (S0 + cov_sum)),
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
    block = ledger_block(profile, [k, k + 1])
    G = G_rows(block)[2]
    A, B = release_rows(block[:1])
    return SecondLawStep(k=k, G_k=float(G[0]), G_k1=float(G[1]),
                         A=float(A[0]), B=float(B[0]))


def helmholtz_like(profile: SpectralProfile, k: int) -> float:
    """E * (1 - S): the non-monotone negative control for the second law."""
    led = ledger_at(profile, k)
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
    alpha2 = float(led.p[split.slow_index])
    fast_p = np.delete(led.p, split.slow_index)
    rest = float(fast_p.sum())   # 1 - alpha2 without cancellation
    H_bin = float(entropy_rows(np.array([alpha2, rest])))
    H_fast = float(entropy_rows(fast_p / rest)) if rest > 0.0 else 0.0
    return EntropySplit(k=k, alpha2=alpha2, H_binary=H_bin, H_fast=H_fast,
                        total=H_bin + rest * H_fast)


# --- power iteration --------------------------------------------------------

def error_identity(alpha2: float) -> float:
    """Exact squared eigenvector error as a function of the slow fraction in (0, 1]."""
    return 2.0 * (1.0 - math.sqrt(min(alpha2, 1.0)))


def observable_variance(rho_k: float, rho_k1: float) -> float:
    """Modal variance of the squared eigenvalues, from two energy ratios."""
    return float(gamma_vhat(rho_k, rho_k1)[1])


@dataclass(frozen=True)
class AlphaBounds:
    """Observable bounds on the fast-energy share 1 - alpha_2."""

    lower: float                  # vhat / lambda2^4 <= 1 - alpha2
    upper: float                  # valid once alpha2 >= 1/2


def alpha_bounds_from_variance(vhat: float, lambda2: float, lambda3: float) -> AlphaBounds:
    """Sandwich the fast share between variance-derived bounds; |lambda3| < lambda2."""
    lam3 = abs(lambda3)
    gap_sq = (lambda2 ** 2 - lam3 ** 2) ** 2
    return AlphaBounds(lower=vhat / lambda2 ** 4, upper=2.0 * vhat / gap_sq)


def adaptive_stop(rho_stream, epsilon: float, tau: float | None = None) -> StoppingState:
    """Fold a rho sequence through the stopping rule.

    Returns the state at the stop step; raises StreamEnded, which carries
    the partial state, if the stream is exhausted first (verdict "running")
    or the fold settles anything else ("unresolvable", "tau-collapse").
    """
    state = StoppingState(epsilon=epsilon, tau=tau)
    for value in rho_stream:
        state.update(value)
        if state.verdict == "stopped":
            return state
        if state.verdict != "running":
            break
    raise StreamEnded(
        f"no certified stop after {state.steps} values (verdict {state.verdict})",
        state=state)


# --- acceleration -----------------------------------------------------------

def eps_m(plan: AccelPlan) -> float:
    """The plan's guarantee: max |Q| on its interval, 1 / |T_m| at the mapped 1."""
    return 1.0 / abs(plan.norm_value)


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
    padded = np.concatenate([[-np.inf], q, [-np.inf]])
    count = int(np.count_nonzero((q >= padded[:-2]) & (q >= padded[2:])
                                 & (q >= eps_m(plan) * (1.0 - 1e-6))))
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
        margin = min(margin, rival_max / eps_m(plan))
        tested += 1
    return MinimaxReport(
        grid_max=float(q.max()), eps_m=eps_m(plan), equioscillation_count=count,
        optimality_margin=margin if tested else math.nan, rivals_tested=tested,
    )


def accelerated_profile_step(profile: SpectralProfile, plan: AccelPlan) -> SpectralProfile:
    """One accelerated step: weights scale by the squared polynomial values.

    Eigenvalues are unchanged (the state still lives on the original modes);
    modes the polynomial kills are dropped.
    """
    qvals = np.asarray(plan(profile.lambdas), dtype=float)
    keep = qvals != 0.0
    return SpectralProfile(
        lambdas=profile.lambdas[keep],
        log_weights=profile.log_weights[keep] + 2.0 * np.log(np.abs(qvals[keep])),
        chain_lambda2=profile.chain_lambda2,
    )


def momentum_beta_star(lambda2: float) -> float:
    """Critical damping weight for the two-step momentum recurrence, 0 < lambda2 < 1."""
    return ((1.0 - math.sqrt(1.0 - lambda2 ** 2)) / lambda2) ** 2


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

    The per-step purification ratio is q_slow / q_fast, which the plan must
    keep above 1 (c2_sq > 0, R0 >= 0, 0 < delta < 1, lambda2 above the
    interval); the bound follows the plain two-sided argument on the mapped
    spectrum.  For the identity plan (degree 1 on a symmetric interval) it
    reduces to the plain bound plus one.
    """
    a, b = plan.interval
    q_fast = float(np.abs(plan(np.linspace(a, b, grid_size))).max())
    q_slow = abs(float(plan(lambda2)))
    if R0 <= c2_sq * delta:
        steps = 0.0
    else:
        steps = (math.log(R0 / (c2_sq * delta))
                 / (2.0 * math.log(q_slow / q_fast)) + 1.0)
    return AcceleratedRigidityBound(q_fast=q_fast, q_slow=q_slow, accel_steps=steps,
                                    plain_equivalent=plan.degree * steps)


# --- first passage ----------------------------------------------------------

@dataclass(frozen=True)
class TailValue:
    k: int
    spectral: float               # sum alpha_i nu_i^k
    matrix: float                 # survival mass after k block applications
    approx: float                 # the one-mode part alpha_2 nu_2^k
    coefficients: np.ndarray

    @property
    def relative_error(self) -> float:
        """|tail / one-mode tail - 1|, the rel_err column of `specrelax fpt`."""
        return abs(self.matrix / self.approx - 1.0)


def fpt_tail(model: AbsorbingModel, start, k: int) -> TailValue:
    """Probability the first passage to the target exceeds k steps, both ways."""
    matrix = float(tail_curve(model, start, k)[-1])
    alpha = tail_coefficients(model, start)
    spectral, approx = (float(c[0]) for c in spectral_tails(model, alpha, [k]))
    return TailValue(k=k, spectral=spectral, matrix=matrix, approx=approx,
                     coefficients=alpha)

