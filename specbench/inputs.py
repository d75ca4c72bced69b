"""Seeded input generation for the specrelax benchmark.

Everything the program reads is written here from one seed, into a work
directory that the benchmark deletes when it ends.  Alongside each file the
generator keeps what the checks need to judge the program's output without
asking the program: the symmetric weight matrix W of every generated chain
(pi is proportional to the row sums of W, and the spectrum is that of
D^{-1/2} W D^{-1/2}), and the eigenvalues and log-weights of every profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Documented constants of the `paper-s8` preset (slow mode, dominant fast
# mode, and 47 seeded uniform draws on [-0.3, 0.5] sharing 0.09 of the
# energy).  The checks rebuild the preset from this description.
S8_SLOW = (0.95, 0.1)
S8_FAST = (0.70, 0.81)
S8_TAIL = (-0.3, 0.5, 47, 0.09)


@dataclass(frozen=True)
class Profile:
    """Nontrivial eigenvalues and ln-weights of a relaxation trajectory."""

    lambdas: np.ndarray
    log_weights: np.ndarray

    @property
    def slow(self) -> int:
        return int(np.argmax(self.lambdas))


@dataclass(frozen=True)
class Chain:
    """A reversible chain given by its symmetric weight matrix W."""

    W: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.W.sum(axis=1)

    @property
    def pi(self) -> np.ndarray:
        d = self.degrees
        return d / d.sum()

    @property
    def kernel(self) -> np.ndarray:
        return self.W / self.degrees[:, None]

    def symmetric(self) -> np.ndarray:
        """D^{-1/2} W D^{-1/2}: same spectrum as the kernel, symmetric."""
        s = 1.0 / np.sqrt(self.degrees)
        return s[:, None] * self.W * s[None, :]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the kernel, descending."""
        return np.sort(np.linalg.eigvalsh(self.symmetric()))[::-1]

    def surviving_block_top(self, target: int) -> float:
        """Top eigenvalue of the kernel with `target` made absorbing."""
        keep = np.arange(self.n) != target
        return float(np.linalg.eigvalsh(self.symmetric()[np.ix_(keep, keep)])[-1])

    def profile_from_start(self, seed: int) -> Profile:
        """Profile of the centered standard-normal start drawn from `seed`.

        Mirrors what the CLI does for chain inputs: g0 ~ N(0, I) from
        numpy's default_rng(seed), centered in the pi-weighted inner
        product, projected on the pi-orthonormal eigenvectors; modes whose
        squared projection falls below 1e-14 times the centered energy are
        left out.
        """
        pi = self.pi
        g0 = np.random.default_rng(seed).standard_normal(self.n)
        centered = g0 - np.sum(pi * g0)
        total = float(np.sum(pi * centered * centered))
        evals, evecs = np.linalg.eigh(self.symmetric())
        order = np.argsort(-evals)
        evals, evecs = evals[order], evecs[:, order]
        coeffs = evecs[:, 1:].T @ (np.sqrt(pi) * centered)
        weights = coeffs ** 2
        keep = weights > 1e-14 * total
        return Profile(evals[1:][keep], np.log(weights[keep]))


def two_cluster_chain(n: int, rng: np.random.Generator, cross: float = 1e-3) -> Chain:
    """Two dense random clusters (2/5 and 3/5 of the states) joined weakly.

    Within-cluster weights are lognormal; cross weights are scaled by
    `cross`, so lambda2 is about 1 - cross, and the lazy step (W + D) / 2
    keeps every eigenvalue nonnegative.  The lognormal(0, 1) weights put
    the third eigenvalue near 0.56 for n between 500 and 2000.
    """
    m = (2 * n) // 5
    X = rng.lognormal(0.0, 1.0, (n, n))
    W = np.triu(X, 1)
    W = W + W.T + np.diag(np.diag(X))
    W[:m, m:] *= cross
    W[m:, :m] *= cross
    return Chain(0.5 * (W + np.diag(W.sum(axis=1))))


def barbell_chain() -> Chain:
    """`barbell-metastable`: two 3-cliques with unit weights, bridge 0.1."""
    W = np.zeros((6, 6))
    for block in (range(3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    W[i, j] = 1.0
    W[2, 3] = W[3, 2] = 0.1
    return Chain(W)


def paper_s8_profile(seed: int) -> Profile:
    lo, hi, count, share = S8_TAIL
    tail = np.random.default_rng(seed).uniform(lo, hi, count)
    lambdas = np.concatenate([[S8_SLOW[0], S8_FAST[0]], tail])
    weights = np.concatenate([[S8_SLOW[1], S8_FAST[1]], np.full(count, share / count)])
    return Profile(lambdas, np.log(weights))


def s8_two_mode_profile() -> Profile:
    return Profile(np.array([S8_SLOW[0], S8_FAST[0]]), np.log([0.1, 0.9]))


def random_profile(n_modes: int, rng: np.random.Generator) -> Profile:
    """Profile with a strictly dominant slow mode and awkward fast modes.

    About one mode in twenty has eigenvalue exactly zero, as many have
    |lambda| between 1e-150 and 1e-20, and the largest fast |lambda| belongs
    to a negative mode, so the rigidity bounds must use |lambda3|.
    """
    lam2 = rng.uniform(0.93, 0.97)
    lam3 = rng.uniform(0.80, 0.88) * lam2
    fast = rng.uniform(-0.75, 0.75, n_modes - 1) * lam2
    few = max(1, n_modes // 20)
    fast[:few] = 0.0
    fast[few:2 * few] = rng.choice([-1.0, 1.0], few) * 10.0 ** -rng.uniform(20, 150, few)
    fast[2 * few] = -lam3
    lw_fast = rng.normal(0.0, 2.0, n_modes - 1)
    lw_slow = math.log(np.exp(lw_fast).sum()) - rng.uniform(2.0, 4.0)
    order = rng.permutation(n_modes)
    lambdas = np.concatenate([[lam2], fast])[order]
    log_weights = np.concatenate([[lw_slow], lw_fast])[order]
    return Profile(lambdas, log_weights)


def nonreversible_kernel(rng: np.random.Generator, n: int = 6) -> np.ndarray:
    """Strictly positive, hence irreducible, kernel with a cyclic drift."""
    P = rng.uniform(0.1, 1.0, (n, n))
    for i in range(n):
        P[i, (i + 1) % n] += 2.0
    return P / P.sum(axis=1, keepdims=True)


def reducible_kernel(rng: np.random.Generator, sizes=(3, 4)) -> np.ndarray:
    """Block-diagonal kernel of two reversible blocks with no path between."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for m in sizes:
        B = rng.uniform(0.1, 1.0, (m, m))
        W[start:start + m, start:start + m] = B + B.T
        start += m
    return W / W.sum(axis=1, keepdims=True)


def write_kernel_csv(path: Path, kernel: np.ndarray):
    # repr() gives the shortest decimal that reads back as the same double,
    # so the program sees exactly the kernel the checks reason about.
    rows = (",".join(map(repr, row)) for row in kernel.tolist())
    path.write_text("\n".join(rows) + "\n")


def write_kernel_json(path: Path, kernel: np.ndarray):
    path.write_text(json.dumps({"kernel": kernel.tolist()}))


def write_profile_json(path: Path, profile: Profile):
    path.write_text(json.dumps({"eigenvalues": profile.lambdas.tolist(),
                                "log_weights": profile.log_weights.tolist()}))


def derive_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, count)]
