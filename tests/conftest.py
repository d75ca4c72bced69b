"""Shared generators and brute-force oracles for the test suite.

Random chains come from symmetric positive weight matrices, which are
reversible by construction with stationary law proportional to row weight.
The plain-arithmetic modal oracle below recomputes every ledger quantity
without log-sum-exp; tests compare the package's log-domain path against it.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from specrelax import (
    ReversibleChain,
    build_chain,
    pi_inner,
    power_steps,
    profile_from_weights,
    spectral_decomposition,
)
from specrelax.cache import blas_identity


def random_reversible(n: int, rng: np.random.Generator,
                      lazy: bool = False) -> ReversibleChain:
    W = rng.uniform(0.1, 1.0, (n, n))
    W = 0.5 * (W + W.T)
    P = W / W.sum(axis=1, keepdims=True)
    if lazy:
        P = 0.5 * (np.eye(n) + P)
    return build_chain(P)


def random_profile(rng: np.random.Generator, n_modes: int | None = None,
                   ratio_bounds: tuple = (0.3, 0.9), lambda2_bounds=(0.5, 0.98),
                   allow_negative: bool = True):
    """Profile with a strict slow/fast separation and O(1) weights."""
    if n_modes is None:
        n_modes = int(rng.integers(2, 12))
    lam2 = float(rng.uniform(*lambda2_bounds))
    ratio = float(rng.uniform(*ratio_bounds))
    lam3 = ratio * lam2
    rest = rng.uniform(-lam3 if allow_negative else 0.05, lam3, n_modes - 2)
    lambdas = np.concatenate([[lam2, lam3], rest])
    weights = rng.uniform(0.05, 2.0, n_modes)
    return profile_from_weights(lambdas, weights)


def birth_death(n, ratio, move):
    """A path whose up and down steps have probabilities in the proportion
    `ratio` and sum `move`; pi changes by the factor `ratio` per state."""
    P = (np.diag(np.full(n - 1, move * ratio / (1 + ratio)), 1)
         + np.diag(np.full(n - 1, move / (1 + ratio)), -1))
    return P + np.diag(1.0 - P.sum(axis=1))


def modal_oracle(lambdas, weights, k):
    """Plain-arithmetic modal energies, total, distribution, decay rate."""
    lam = np.asarray(lambdas, dtype=float)
    w = np.asarray(weights, dtype=float)
    if k == 0:
        n = w.copy()
    else:
        n = w * np.abs(lam) ** (2 * k)
    E = n.sum()
    p = n / E
    rho = float((p * lam ** 2).sum())
    return n, float(E), p, rho


def entropy_oracle(p) -> float:
    p = np.asarray(p, dtype=float)
    live = p > 0
    return float(-(p[live] * np.log(p[live])).sum())


def centered_random_start(chain, rng):
    g0 = rng.standard_normal(chain.n)
    return g0 - pi_inner(chain, g0, np.ones(chain.n))


def power_stream(chain, g0, steps):
    """The first `steps` items of the power stream as (ln E, rho, iterates) arrays."""
    log_E, rho, iterates = zip(*itertools.islice(power_steps(chain, g0), steps))
    return np.array(log_E), np.array(rho), np.array(iterates)


def spectral_coefficients(chain, decomp, g0):
    """Projections of a centered vector on the nontrivial eigenvectors."""
    g0 = np.asarray(g0, dtype=float)
    return decomp.eigenvectors[:, 1:].T @ (chain.pi * g0)


@pytest.fixture(scope="session", autouse=True)
def private_kernel_cache(tmp_path_factory):
    """Every test, and every interpreter a test starts, caches parsed kernel
    files and LAPACK's solves in a session directory rather than in
    ~/.cache/specrelax."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


def record_solves(monkeypatch) -> list:
    """Wrap np.linalg.eigh and eigvalsh: each call appends (routine name, a
    copy of the matrix it was handed) to the returned list."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def recorded(a, *args, _real=getattr(np.linalg, name), _name=name, **kw):
            calls.append((_name, np.array(a)))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def solve_cache_off(monkeypatch):
    """Solve every matrix afresh, as the cache does below its thresholds."""
    from specrelax import chains

    monkeypatch.setattr(chains, "CACHE_MIN_STATES",
                        dict.fromkeys(chains.CACHE_MIN_STATES, math.inf))


# numpy's OpenBLAS (kernel, thread count), on which the solve entries are
# keyed; where it is not identified (numpy built from source, conda, macOS),
# the cache reads and writes no solve entry
BLAS = blas_identity()
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS is not identified, "
                                                     "so no solve entry is written")


def solve_entry_name(routine: str, a: np.ndarray) -> str:
    """The file name of the solve entry for LAPACK's `routine` on `a`, from the
    key README gives: SHA-256 of one header line and then a's bytes in C order."""
    kernel, threads = blas_identity()
    header = (f"{routine} {a.shape[0]}x{a.shape[1]} numpy {np.__version__} "
              f"{kernel} threads {threads}\n")
    digest = hashlib.sha256(header.encode() + np.ascontiguousarray(a).tobytes())
    return f"{digest.hexdigest()}-{routine}.npy"


def solve_entry_names(calls: list) -> list:
    """The solve entries that LAPACK's `calls`, as record_solves lists them, are
    stored under: one for each call, so every matrix must reach its routine's
    threshold; none where numpy's OpenBLAS is not identified."""
    return [solve_entry_name(routine, a) for routine, a in calls] if BLAS else []


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def hand_chain():
    """Two-state chain with stationary law (3/4, 1/4) and spectrum (1, 0.6)."""
    return build_chain([[0.9, 0.1], [0.3, 0.7]])


@pytest.fixture
def two_mode_profile():
    """Equal unit weights on eigenvalues 0.9 and 0.1."""
    return profile_from_weights([0.9, 0.1], [1.0, 1.0])


@pytest.fixture
def s8_two_mode():
    """Slow mode 0.95 with weight 0.1, fast mode 0.70 with weight 0.9."""
    return profile_from_weights([0.95, 0.70], [0.1, 0.9])
