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
    OutOfRange,
    Reducible,
    RowSumError,
    ZeroProjection,
)


@dataclass(frozen=True)
class Tolerances:
    """Validation tolerances; defaults are module policy, overridable per call."""

    row_sum: float = 1e-12
    detailed_balance: float = 1e-10
    pi_floor: float = 1e-14
    eigen_residual: float = 1e-9
    orthonormality: float = 1e-10

    def __post_init__(self):
        for key in self.__dataclass_fields__:
            value = getattr(self, key)
            if not value >= 0:          # nan is refused too: it would pass every check
                raise InvalidArguments(f"tolerance {key} must be >= 0, got {value!r}")

    def override(self, **kw) -> "Tolerances":
        unknown = set(kw) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidArguments(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kw)


DEFAULT_TOLERANCES = Tolerances()

# A kernel of at least this many states has its eigenproblem solved once per
# content (the solve entries of `cache`), by LAPACK routine.  Under it LAPACK
# costs about what a lookup does (hashlib's first import, the OpenBLAS query,
# the hash and np.load): a hit breaks even with eigh near n = 200 and with
# eigvalsh, which costs a few times less, near n = 400.
CACHE_MIN_STATES = {"eigh": 200, "eigvalsh": 400}


@dataclass(frozen=True)
class ReversibleChain:
    """A validated reversible Markov kernel with its stationary distribution.
    The kernel is a read-only copy in C order, whatever the caller's layout:
    the solve key hashes its rows, and the products of the absorbed block and
    the power iteration follow its layout."""

    kernel: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        _freeze(self, "kernel", "pi", order="C")

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


def _freeze(obj, *names: str, dtype=float, order="K"):
    """Replace the named fields of a frozen dataclass by read-only array copies."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype, copy=True, order=order)
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
    are within tol.  The gap is symmetric in (i, j), so each pair is visited
    once: the 128 x 128 blocks on and above the diagonal meet their
    transposed blocks in cache."""
    worst, n = 0.0, flow.shape[0]
    for s in range(0, n, 128):
        for t in range(s, n, 128):
            a, b = flow[s:s + 128, t:t + 128], flow[t:t + 128, s:s + 128].T
            gap, scale = np.abs(a - b), np.maximum(a, b)
            if np.any(gap > tol * scale):
                worst = max(worst, float(np.max(gap[scale > 0] / scale[scale > 0])))
    return worst


def build_chain(kernel, tol: Tolerances = DEFAULT_TOLERANCES) -> ReversibleChain:
    """Validate a kernel and return it with its computed stationary distribution.

    Raises RowSumError, Reducible, DegeneratePi or NotReversible when the
    corresponding invariant fails.
    """
    P = np.asarray(kernel, dtype=float)     # ReversibleChain keeps its own C-order copy
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
            f"row {bad[0]} sums to {float(rows[bad[0]])!r}, off by more than {tol.row_sum}"
        )

    pi = _stationary_law(P)
    if np.any(pi <= tol.pi_floor):
        raise DegeneratePi(f"stationary weight min {float(pi.min())!r} is at or below "
                           f"Tolerances.pi_floor = {tol.pi_floor!r}")

    worst = _worst_balance_gap(pi[:, None] * P, tol.detailed_balance)
    if worst > tol.detailed_balance:
        raise NotReversible(f"detailed balance violated, worst relative gap {worst!r}")

    return ReversibleChain(kernel=P, pi=pi)


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


def _rank_one_update(a: np.ndarray, x: np.ndarray, y: np.ndarray):
    """a -= x y^T in place, in 128-row blocks so no n x n temporary is made."""
    for s in range(0, a.shape[0], 128):
        a[s:s + 128] -= x[s:s + 128, None] * y


def _certified_eigh(kernel: np.ndarray, weights: np.ndarray, tol: Tolerances,
                    vectors: bool, stationary: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (descending) and, with `vectors`, weight-orthonormal
    eigenvectors of a kernel self-adjoint in the `weights` inner product, each
    pair certified as the full check would: weighted residual ||K phi -
    lam phi||_w <= tol.eigen_residual, |Phi^T D Phi - I| <= tol.orthonormality.

    LAPACK solves sym = (S + S^T)/2, S = D^{1/2} K D^{-1/2}, D = diag(weights).
    With `stationary`, S sqrt(pi) = S^T sqrt(pi) = sqrt(pi) is known, and its
    one test is s = ||r||_2 <= tol.eigen_residual, r = sym sqrt(pi) - sqrt(pi).
    A Householder H with H sqrt(pi) = -e1 gives B = H sym H, of first column
    e1 - H r; LAPACK solves B[1:, 1:] alone, lambda_1 = 1 and phi_1 = 1 are
    exact, and the dropped row and column (Frobenius norm <= sqrt(2) s) are a
    backward error on sym.  A nontrivial eigenvalue computed within 1e-15 of
    1 is refused, since 1 - lambda2 keeps no correct digit there and the BLAS
    kernel decides which side of 1 it rounds to; the message prints no digit
    of it.  One within its certified error of 0 is returned as 0, its
    roundoff: within the gate's width b + n 2^-52 + sqrt(2) s under the gate,
    below, and within tol.eigen_residual outside it.

    The gate: LAPACK's pairs are exact for sym + E, ||E||_2 about n 2^-52
    (||sym||_2 <= 1, a nonnegative matrix's Perron root), and orthonormal to
    about n 2^-52; an exact pair (lam, y), ||y||_2 = 1, phi = D^{-1/2} y, has
    D^{1/2}(K phi - lam phi) = (S - sym) y - E y, and ||S - sym||_2 <= b
    (`_antisymmetry_bound`).  So b + n 2^-52 + sqrt(2) s <= tol.eigen_residual
    and n 2^-52 <= tol.orthonormality certify every pair.  Under it, a list of
    eigenvalues must match tr sym within n tol.eigen_residual and ||sym||_F^2
    within 2 n tol.eigen_residual (|lam| <= 1); eigenvectors get exact column
    norms and one probe each, ||(U^T U - I) z||_2 and ||D^{1/2}(K Phi - Phi
    Lambda) z||_2 against their tolerance t, z a seeded random unit vector.  A
    probe only backstops a corrupted output: it misses an error matrix F drawn
    independently of z with probability at most 1.6 sqrt(n) t / ||F||_2 +
    0.2^(n/2), and one within a factor sqrt(n) of t almost surely.  Outside
    the gate, eigh runs and the full O(n^3) check forms U^T U and every
    residual.  Under it, only sym (its buffer then holds U, then Phi) and
    LAPACK's output are n x n.  LAPACK's output must list its eigenvalues in
    ascending order, and a nan anywhere in it fails a check.

    The solve cache: for n >= CACHE_MIN_STATES[routine], LAPACK's raw output
    (before any check) is kept as a solve entry of `cache`, keyed
    (`cache.solve_entry`) on the bytes of the matrix LAPACK is handed, the
    routine, and the numpy and OpenBLAS build that decide LAPACK's bits.  A
    hit takes the place of the call, and every check above runs on it as on a
    fresh output, the snap to 0 too, so a command prints the same bytes cold,
    warm and with no cache.  A fresh output is streamed to a temporary file as
    LAPACK returns it, and renamed in only once every check has passed; a hit
    that fails a check is deleted and the matrix solved afresh.
    """
    return (_solve_and_check(kernel, weights, tol, vectors, stationary, reuse=True)
            or _solve_and_check(kernel, weights, tol, vectors, stationary, reuse=False))


def _solve_and_check(kernel: np.ndarray, weights: np.ndarray, tol: Tolerances,
                     vectors: bool, stationary: bool, reuse: bool) -> tuple | None:
    """`_certified_eigh` once: LAPACK's output is read from its solve entry
    when `reuse` and the entry holds, and otherwise solved and stored.  None
    when a hit fails a check: its entry is then deleted."""
    n = kernel.shape[0]
    d = np.sqrt(weights)
    sym = d[:, None] * kernel
    sym /= d
    sym += sym.T
    sym *= 0.5
    s = float(np.linalg.norm(sym @ d - d)) if stationary else 0.0
    if s > tol.eigen_residual:
        raise EigensolveFailure(f"stationary mode residual {s!r} too large")
    backward = n * 2.0 ** -52
    width = _antisymmetry_bound(kernel, d, sym) + backward + math.sqrt(2.0) * s
    gated = width <= tol.eigen_residual and backward <= tol.orthonormality
    k = int(stationary)         # the modes known before the solve
    if stationary:              # sym becomes B = H sym H, H = I - tau v v^T
        v = d.copy()
        v[0] += np.linalg.norm(d)
        tau = 2.0 / (v @ v)
        _rank_one_update(sym, v, tau * (sym @ v))
        _rank_one_update(sym, tau * (sym @ v), v)
    full = vectors or not gated     # eigh; else eigvalsh, for the eigenvalues alone
    routine, a = ("eigh" if full else "eigvalsh"), sym[k:, k:]
    entry = out = tmp = None
    if n >= CACHE_MIN_STATES[routine]:
        from . import cache

        entry = cache.solve_entry(a, routine)
        out = cache.load(entry, 1 + full) if entry and reuse else None
    hit = bool(out) and [x.shape for x in out] == [a.shape[:1], a.shape][:1 + full]
    if not hit:
        try:
            out = tuple(np.linalg.eigh(a)) if full else (np.linalg.eigvalsh(a),)
        except np.linalg.LinAlgError as exc:  # LAPACK did not converge
            raise EigensolveFailure(str(exc)) from exc
        tmp = entry and cache.write(entry, *out)
    lam, y = out if full else (out[0], None)
    del out             # y's buffer is freed once phi holds it
    try:
        if k and lam.size and lam[-1] > 1.0 - 1e-15:
            raise OutOfRange("lambda2 is within 1e-15 of 1, where the gap 1 - lambda2 is not resolved")
        lam = np.concatenate((np.ones(k), lam[::-1]))
        phi = None
        if y is None:
            trace_gap = abs(lam.sum() - np.trace(sym))
            square_gap = abs(lam @ lam - np.einsum("ij,ij->", sym, sym))
            if not (trace_gap <= n * tol.eigen_residual
                    and square_gap <= 2 * n * tol.eigen_residual):
                raise EigensolveFailure(f"eigenvalues miss tr sym by {float(trace_gap)!r} "
                                        f"and ||sym||_F^2 by {float(square_gap)!r}")
        else:
            phi = sym.T     # U = H diag(1, Y), or Y, in sym's buffer, column-major as LAPACK's
            phi[:k] = 0.0
            phi[k:, k:] = y[:, ::-1]
            del y
            if stationary:
                _rank_one_update(phi[:, 1:], v, tau * (v[1:] @ phi[1:, 1:]))
                phi[:, 0] = d
            if gated:
                z = np.random.default_rng(0).standard_normal(n)
                z /= np.linalg.norm(z)
                orth = max(np.max(np.abs(np.einsum("ij,ij->j", phi, phi) - 1.0)),
                           np.linalg.norm(phi.T @ (phi @ z) - z))
            else:
                orth = np.max(np.abs(phi.T @ phi - np.eye(n)))
            if not orth <= tol.orthonormality:
                raise EigensolveFailure("eigenvectors fail weighted orthonormality")
            phi /= d[:, None]
            if gated:
                worst = np.linalg.norm(d * (kernel @ (phi @ z) - phi @ (lam * z)))
            else:
                resid = (kernel @ phi - phi * lam) * d[:, None]
                worst = np.sqrt(np.max(np.einsum("xi,xi->i", resid, resid)))
            if not worst <= tol.eigen_residual:
                raise EigensolveFailure(f"eigen-residual {float(worst)!r} too large")
        if not np.all(lam[:-1] >= lam[1:]):
            raise EigensolveFailure("LAPACK's eigenvalues are not in ascending order")
        if stationary:      # after every check: a |lambda| within its certified error is 0
            lam[np.abs(lam) <= (width if gated else tol.eigen_residual)] = 0.0
        if tmp:         # stored only once every check has passed
            cache.commit(tmp, entry)
            tmp = None
    except (EigensolveFailure, OutOfRange):
        if not hit:
            raise
        cache.discard(entry)
        return None
    finally:
        if tmp:
            cache.discard(tmp)
    return lam, phi


def spectral_decomposition(chain: ReversibleChain,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Full eigensystem of the kernel in the stationary-weighted inner product."""
    evals, phi = _certified_eigh(chain.kernel, chain.pi, tol, vectors=True, stationary=True)
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=phi)


def chain_spectrum(chain: ReversibleChain,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Eigenvalues (descending) of the kernel, without eigenvectors."""
    return _certified_eigh(chain.kernel, chain.pi, tol, vectors=False, stationary=True)[0]


def pi_inner(chain: ReversibleChain, f, g) -> float:
    """Stationary-weighted inner product of two functions on the state space."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (chain.n,) or g.shape != (chain.n,):
        raise DimensionMismatch(f"expected vectors of length {chain.n}")
    return float(np.sum(f * g * chain.pi))


def pi_center(chain: ReversibleChain, g0) -> tuple[np.ndarray, float]:
    """g0 minus its pi-mean, and the energy ||.||^2_pi left; ZeroProjection when
    that is at most (1e-14)^2 ||g0||^2_pi, the roundoff of the mean."""
    g0 = np.asarray(g0, dtype=float)
    centered = g0 - pi_inner(chain, g0, np.ones(chain.n))
    energy = pi_inner(chain, centered, centered)
    if energy <= 1e-28 * pi_inner(chain, g0, g0):
        raise ZeroProjection("initial vector has no component off the stationary mode")
    return centered, energy


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
    x, P = np.arange(n), np.zeros((n, n))
    P[x, (x + 1) % n] += 0.5
    P[x, (x - 1) % n] += 0.5        # the same entry as the line above when n = 2
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
