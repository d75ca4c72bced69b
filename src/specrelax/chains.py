"""Reversible chain construction, validation, and spectral decomposition.

All inner products live in the stationary-weighted space: <f, g> = sum_x
f(x) g(x) pi(x).  Eigenproblems are solved on the symmetrized kernel
D^{1/2} P D^{-1/2} (D = diag(pi)) so the spectrum is real and the returned
eigenvectors are orthonormal in the weighted inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePi,
    DimensionMismatch,
    EigensolveFailure,
    InvalidArguments,
    InvalidSize,
    NotReversible,
    Reducible,
    RowSumError,
)


@dataclass(frozen=True)
class Tolerances:
    """Validation tolerances; defaults are module policy, overridable per call."""

    row_sum: float = 1e-12
    detailed_balance: float = 1e-10
    pi_floor: float = 1e-14
    eigen_residual: float = 1e-9
    orthonormality: float = 1e-10

    def override(self, **kw) -> "Tolerances":
        unknown = set(kw) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidArguments(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kw)


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class ReversibleChain:
    """A validated reversible Markov kernel with its stationary distribution."""

    kernel: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        _freeze(self, "kernel", "pi")

    @property
    def n(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and pi-orthonormal eigenvectors of the kernel."""

    eigenvalues: np.ndarray      # lambda_1 = 1 >= lambda_2 >= ... >= -1
    eigenvectors: np.ndarray     # column i is the eigenvector for eigenvalues[i]

    def __post_init__(self):
        _freeze(self, "eigenvalues", "eigenvectors")


@dataclass(frozen=True)
class HypercubeProfile:
    """Analytic level spectrum of the n-dimensional hypercube walk.

    Level j carries eigenvalue 1 - 2j/n with log-multiplicity ln C(n, j);
    multiplicities are kept in log form so large n never overflows.
    """

    n: int
    lambdas: np.ndarray          # level eigenvalues, j = 0..n
    log_multiplicities: np.ndarray

    def __post_init__(self):
        _freeze(self, "lambdas", "log_multiplicities")


def _freeze(obj, *names: str, dtype=float):
    """Replace the named fields of a frozen dataclass by read-only array copies."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype, copy=True)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _bfs(M: np.ndarray):
    """Breadth-first levels (parents, children) from state 0 over the support
    M > 0; each child hangs off the frontier state with the largest
    M[parent, child].  Every row of M is read once, so a sweep is O(n^2)."""
    seen = np.zeros(M.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        rows = M[frontier]
        children = np.flatnonzero(rows.max(axis=0) > 0)
        children = children[~seen[children]]
        seen[children] = True
        yield frontier[rows[:, children].argmax(axis=0)], children
        frontier = children


def _stationary_law(P: np.ndarray) -> np.ndarray:
    """pi from pi_j / pi_i = P_ij / P_ji along a BFS spanning tree, in log space.

    Kolmogorov's criterion makes the ratio path-independent for a reversible
    kernel; the detailed-balance gate in build_chain checks every other edge.
    """
    n = P.shape[0]
    support = P > 0
    if not np.array_equal(support, support.T):
        # strongly connected iff state 0 reaches every state and is reached from it
        forward, backward = (1 + sum(c.size for _, c in _bfs(M)) for M in (P, P.T))
        if min(forward, backward) < n:
            raise Reducible(f"positive-entry digraph is not strongly connected: state 0 "
                            f"reaches {forward} and is reached from {backward} of {n} states")
        raise NotReversible("detailed balance violated: a transition has no reverse")
    log_pi = np.zeros(n)
    reached = 1
    for parents, children in _bfs(P):
        log_pi[children] = (log_pi[parents] + np.log(P[parents, children])
                            - np.log(P[children, parents]))
        reached += children.size
    if reached < n:  # on a symmetric support, connected means strongly connected
        raise Reducible(f"positive-entry digraph is not strongly connected: "
                        f"state 0 reaches {reached} of {n} states")
    pi = np.exp(log_pi - log_pi.max())
    return pi / pi.sum()


def _worst_balance_gap(flow: np.ndarray, tol: float) -> float:
    """Largest |F_ij - F_ji| / max(F_ij, F_ji) over the flows F, or 0 when all
    are within tol.  Row blocks meet their transposed column blocks in cache."""
    worst = 0.0
    for s in range(0, flow.shape[0], 128):
        a, b = flow[s:s + 128], flow[:, s:s + 128].T
        gap, scale = np.abs(a - b), np.maximum(a, b)
        if np.any(gap > tol * scale):
            worst = max(worst, float(np.max(gap[scale > 0] / scale[scale > 0])))
    return worst


def build_chain(kernel, tol: Tolerances = DEFAULT_TOLERANCES) -> ReversibleChain:
    """Validate a kernel and return it with its computed stationary distribution.

    Raises RowSumError, Reducible, DegeneratePi or NotReversible when the
    corresponding invariant fails.
    """
    P = np.array(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got shape {P.shape}")
    if P.shape[0] < 1:
        raise InvalidSize("kernel must have at least one state")
    if np.any(P < 0):
        raise RowSumError("kernel has negative entries")
    rows = P.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(rows - 1.0) <= tol.row_sum))   # nan is bad too
    if bad.size:
        raise RowSumError(
            f"row {bad[0]} sums to {rows[bad[0]]!r}, off by more than {tol.row_sum}"
        )

    pi = _stationary_law(P)
    if np.any(pi <= tol.pi_floor):
        raise DegeneratePi(f"stationary weight min {float(pi.min())!r} is at or below "
                           f"Tolerances.pi_floor = {tol.pi_floor!r}")

    worst = _worst_balance_gap(pi[:, None] * P, tol.detailed_balance)
    if worst > tol.detailed_balance:
        raise NotReversible(f"detailed balance violated, worst relative gap {worst!r}")

    return ReversibleChain(kernel=P, pi=pi)


def _symmetrized(kernel: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d = sqrt(weights) and the symmetric part (S + S^T)/2 of S = D^{1/2} K D^{-1/2},
    built in place in one n x n array."""
    d = np.sqrt(weights)
    sym = d[:, None] * kernel
    sym /= d
    sym += sym.T
    sym *= 0.5
    return d, sym


def _antisymmetry_bound(kernel: np.ndarray, d: np.ndarray, sym: np.ndarray) -> float:
    """b >= ||S - sym||_2: the smaller of the Frobenius norm and
    sqrt(||.||_1 ||.||_inf), from 128-row blocks so no n x n temporary is made."""
    n = kernel.shape[0]
    fro2, row_max, col_sums = 0.0, 0.0, np.zeros(n)
    for s in range(0, n, 128):
        a = d[s:s + 128, None] * kernel[s:s + 128]
        a /= d
        a -= sym[s:s + 128]
        fro2 += float(np.einsum("ij,ij->", a, a))
        np.abs(a, out=a)
        row_max = max(row_max, float(a.sum(axis=1).max()))
        col_sums += a.sum(axis=0)
    return min(math.sqrt(fro2), math.sqrt(row_max * float(col_sums.max())))


def _weighted_eigh(kernel: np.ndarray, weights: np.ndarray,
                   tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and weight-orthonormal eigenvectors of a kernel
    that is self-adjoint in the inner product weighted by `weights`.

    Solves the symmetrized D^{1/2} K D^{-1/2} (D = diag(weights)), then checks
    the weighted orthonormality of the eigenvectors and the weighted-norm
    eigen-residual of K itself.  Buffers are built in place and dropped once
    used, so beside the kernel and eigh's own buffers at most three n x n
    arrays are live.
    """
    d, sym = _symmetrized(kernel, weights)
    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise EigensolveFailure(str(exc)) from exc
    del sym
    order = np.argsort(-evals)
    evals = evals[order]
    # project_initial sums in this array's memory order: keep its layout
    phi = (evecs / d[:, None])[:, order]
    del evecs
    w = d[:, None] * phi
    gram = w.T @ w
    del w
    gram.flat[::gram.shape[0] + 1] -= 1.0
    if max(gram.max(), -gram.min()) > tol.orthonormality:
        raise EigensolveFailure("eigenvectors fail weighted orthonormality")
    del gram
    resid = kernel @ phi
    resid -= phi * evals
    resid *= d[:, None]
    worst = float(np.sqrt(np.max(np.einsum("xi,xi->i", resid, resid))))
    if worst > tol.eigen_residual:
        raise EigensolveFailure(f"eigen-residual {worst!r} too large")
    return evals, phi


def spectral_decomposition(chain: ReversibleChain,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Full eigensystem of the kernel in the stationary-weighted inner product."""
    evals, phi = _weighted_eigh(chain.kernel, chain.pi, tol)
    # sign-normalize so the stationary column is the positive constant vector
    if phi[:, 0].sum() < 0:
        phi = phi.copy()
        phi[:, 0] = -phi[:, 0]
    if abs(evals[0] - 1.0) > 1e-10:
        raise EigensolveFailure(f"top eigenvalue {evals[0]!r} is not 1")
    # in u-space (u = sqrt(pi) phi), as chain_spectrum tests it: phi_1 = u / sqrt(pi)
    # is off by roundoff / sqrt(pi_i) where pi_i is tiny, and ||sqrt(pi)||_2 = 1
    d = np.sqrt(chain.pi)
    if np.linalg.norm(d * phi[:, 0] - d) > 1e-8:
        raise EigensolveFailure("stationary eigenvector is not constant")
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=phi)


def chain_spectrum(chain: ReversibleChain,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Eigenvalues (descending) of the kernel, certified without eigenvectors.

    One `eigvalsh` of sym = (S + S^T)/2, S = D^{1/2} K D^{-1/2}, the matrix
    `spectral_decomposition` solves, in place of its checked `eigh`.  The
    certificate stands in for that solve's per-pair checks:

    * Symmetrization error.  With A = S - sym, let (lam, y), ||y||_2 = 1, be
      an exact eigenpair of sym and phi = D^{-1/2} y, so ||phi||_pi = 1.  Then
      D^{1/2}(K phi - lam phi) = S y - lam y = A y, so the weighted residual
      ||K phi - lam phi||_pi, which `_weighted_eigh` checks, is at most
      ||A||_2 <= b (`_antisymmetry_bound`).  LAPACK's eigenvalues are exact
      for sym + E with ||E||_2 about n 2^-52 ||sym||_2, which moves each
      residual by at most ||E||_2.  sym is nonnegative, so ||sym||_2 is its
      Perron root lambda_1, held to 1 +- 1e-10 below.  So b + n 2^-52 <=
      tol.eigen_residual certifies every eigenvalue as the full check would.
      Otherwise, or when tol.orthonormality is below the n 2^-52 to which
      LAPACK's eigenvectors are orthonormal, the full `spectral_decomposition`
      runs: no kernel it accepts is refused here and none it refuses passes.
    * Stationary mode.  lambda_1 must lie within 1e-10 of 1, and in place of
      "phi_1 is constant" ||sym sqrt(pi) - sqrt(pi)||_2 <= tol.eigen_residual
      (K 1 = 1 and pi K = pi give S sqrt(pi) = S^T sqrt(pi) = sqrt(pi)).
      Being relative to ||sqrt(pi)||_2 = 1, it does not fail where pi is tiny
      as the absolute test on phi_1 = u / sqrt(pi) does.
    * The list itself.  The exact eigenvalues have sum lam = tr sym and
      sum lam^2 = ||sym||_F^2.  The full check holds each computed eigenvalue
      within about tol.eigen_residual of its own exact one (residual plus
      orthonormality), and |lam| <= 1, so a list it passes has
      |sum lam - tr sym| <= n tol.eigen_residual and
      |sum lam^2 - ||sym||_F^2| <= 2 n tol.eigen_residual; a corrupted list
      fails them.

    Beside the kernel only sym and eigvalsh's copy of it are live.
    """
    n = chain.n
    d, sym = _symmetrized(chain.kernel, chain.pi)
    backward = n * 2.0 ** -52     # LAPACK's backward error on sym, ||sym||_2 = 1
    if (_antisymmetry_bound(chain.kernel, d, sym) + backward > tol.eigen_residual
            or backward > tol.orthonormality):
        del sym
        return spectral_decomposition(chain, tol).eigenvalues
    try:
        evals = np.linalg.eigvalsh(sym)[::-1].copy()
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh rarely fails
        raise EigensolveFailure(str(exc)) from exc
    if abs(evals[0] - 1.0) > 1e-10:
        raise EigensolveFailure(f"top eigenvalue {evals[0]!r} is not 1")
    stationary = float(np.linalg.norm(sym @ d - d))
    if stationary > tol.eigen_residual:
        raise EigensolveFailure(f"stationary mode residual {stationary!r} too large")
    trace_gap = abs(evals.sum() - np.trace(sym))
    square_gap = abs(evals @ evals - np.einsum("ij,ij->", sym, sym))
    if trace_gap > n * tol.eigen_residual or square_gap > 2 * n * tol.eigen_residual:
        raise EigensolveFailure(f"eigenvalues miss tr sym by {trace_gap!r} "
                                f"and ||sym||_F^2 by {square_gap!r}")
    return evals


def pi_inner(chain: ReversibleChain, f, g) -> float:
    """Stationary-weighted inner product of two functions on the state space."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (chain.n,) or g.shape != (chain.n,):
        raise DimensionMismatch(f"expected vectors of length {chain.n}")
    return float(np.sum(f * g * chain.pi))


# --- chain zoo ---

def complete_graph(n: int) -> ReversibleChain:
    """Uniform jump chain: every transition probability is 1/n."""
    if n < 2:
        raise InvalidSize("complete graph needs n >= 2")
    return build_chain(np.full((n, n), 1.0 / n))


def cycle_graph(n: int) -> ReversibleChain:
    """Simple random walk on the n-cycle, probability 1/2 to each neighbor."""
    if n < 2:
        raise InvalidSize("cycle needs n >= 2")
    P = np.zeros((n, n))
    for x in range(n):
        P[x, (x + 1) % n] += 0.5
        P[x, (x - 1) % n] += 0.5
    return build_chain(P)


def barbell_chain(clique_size: int = 3, bridge_weight: float = 0.1) -> ReversibleChain:
    """Two weighted cliques joined by a weak bridge edge; metastable by design."""
    if clique_size < 2:
        raise InvalidSize("cliques need at least 2 states")
    if bridge_weight <= 0:
        raise InvalidArguments("bridge weight must be positive")
    m = clique_size
    W = np.zeros((2 * m, 2 * m))
    W[:m, :m] = W[m:, m:] = 1.0
    np.fill_diagonal(W, 0.0)
    W[m - 1, m] = W[m, m - 1] = bridge_weight
    P = W / W.sum(axis=1, keepdims=True)
    return build_chain(P)


def hypercube_profile(n: int) -> HypercubeProfile:
    """Level eigenvalues and log-multiplicities of the n-dimensional hypercube."""
    if n < 1:
        raise InvalidSize("hypercube dimension must be >= 1")
    lam = 1.0 - 2.0 * np.arange(n + 1) / n
    log_factorial = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    logmult = log_factorial[n] - log_factorial - log_factorial[::-1]
    return HypercubeProfile(n=n, lambdas=lam, log_multiplicities=logmult)
