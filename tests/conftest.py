"""Shared generators and brute-force oracles for the test suite.

Random chains come from symmetric positive weight matrices, which are
reversible by construction with stationary law proportional to row weight.
The plain-arithmetic modal oracle below recomputes every ledger quantity
without log-sum-exp; tests compare the package's log-domain path against it.
The cache harness at the end serves test_kernel_cache.py and
test_solve_cache.py: runs with either cache on or off, the entries' names,
and one table of damaged entries.
"""

import hashlib
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from specrelax import cache, chains
from specrelax import io as kio
from specrelax import (
    ReversibleChain,
    build_chain,
    pi_inner,
    power_steps,
    profile_from_weights,
    spectral_decomposition,
)
from specrelax.cache import blas_identity
from specrelax.cli import main


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


# --- the cache harness ---------------------------------------------------------

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


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    """An empty $XDG_CACHE_HOME of this test's own."""
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def cache_files(home: Path) -> list:
    directory = home / "specrelax"
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def run(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of one call of the CLI."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def uncached(argv, capsys, monkeypatch) -> tuple:
    """The call with both caches off, as on a small file and a small chain, and
    LAPACK's calls in it, as record_solves lists them."""
    with monkeypatch.context() as m:
        m.setattr(kio, "CACHE_MIN_BYTES", math.inf)
        solve_cache_off(m)
        calls = record_solves(m)
        out = run(argv, capsys)
    return out, calls


def solve_entry_names(calls: list) -> list:
    """The solve entry of each of LAPACK's `calls`, so each matrix must reach its
    routine's threshold; none where numpy's OpenBLAS is not identified."""
    return [solve_entry_name(routine, a) for routine, a in calls] if BLAS else []


def child_env(**extra) -> dict:
    """The environment of a child interpreter that runs this tree's package."""
    src = Path(chains.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src), **extra)


def _rewrite(entry: Path, change):
    """Store the entry's arrays as `change` returns or edits them, as the cache would."""
    arrays = [a.copy() for a in cache.load(str(entry), 2 if entry.name.endswith("-eigh.npy")
                                           else 1)]
    with open(entry, "wb") as fh:
        for a in change(arrays) or arrays:
            np.lib.format.write_array(fh, a)


def _swapped(arrays):
    # a true eigendecomposition still, with two pairs out of LAPACK's order
    i, j = arrays[0].size // 3, arrays[0].size // 2
    for a in arrays:
        a[..., [i, j]] = a[..., [j, i]]


# Each damage is a miss, or a hit that fails a check, and the run that finds
# it stores the entry again.  The first KERNEL_DAMAGES apply to either kind of
# entry; the rest are hits that only a solve entry's checks refuse, since the
# kernel cache trusts a float64 array of any values and shape.
DAMAGED = {
    "missing": lambda entry: entry.unlink(),
    "empty": lambda entry: entry.write_bytes(b""),
    "truncated": lambda entry: entry.write_bytes(entry.read_bytes()[:-8]),
    "a byte appended": lambda entry: entry.write_bytes(entry.read_bytes() + b"\0"),
    "pickled": lambda entry: np.save(entry, np.array([np.zeros(3)], dtype=object),
                                     allow_pickle=True),
    "float32": lambda entry: _rewrite(entry, lambda arrays: [a.astype(np.float32)
                                                              for a in arrays]),
    "wrong shape": lambda entry: _rewrite(entry, lambda arrays: [a[:-1, :-1] if a.ndim == 2
                                                                  else a[:-1] for a in arrays]),
    "one eigenvalue shifted by 1e-3": lambda entry: _rewrite(
        entry, lambda arrays: np.add.at(arrays[0], arrays[0].size // 2, 1e-3)),
    "two eigenpairs swapped": lambda entry: _rewrite(entry, _swapped),
    # in the eigenvectors where there are any
    "a nan": lambda entry: _rewrite(entry, lambda arrays: np.put(arrays[-1], 5, np.nan)),
}
KERNEL_DAMAGES = 6


def check_every_cache_state(argv, entry: Path, want: tuple, damages: int, warm, capsys,
                            monkeypatch):
    """After a cold run stored `entry`, a warm run under the patches `warm(m)`
    makes, runs on the entry damaged each of the first `damages` ways (each
    stored again as it was) and with $XDG_CACHE_HOME a regular file print `want`."""
    home = Path(os.environ["XDG_CACHE_HOME"])
    stored, files = entry.read_bytes(), cache_files(home)
    with monkeypatch.context() as m:
        warm(m)
        assert run(argv, capsys) == want
    for name, damage in list(DAMAGED.items())[:damages]:
        damage(entry)
        assert run(argv, capsys) == want, name
        assert entry.read_bytes() == stored and cache_files(home) == files, name
    blocker = home / "a-file"                       # no directory can be made there
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert run(argv, capsys) == want


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
