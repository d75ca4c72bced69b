import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax.cli import main
from specrelax.errors import (
    DegeneratePi,
    DimensionMismatch,
    EigensolveFailure,
    InvalidArguments,
    InvalidSize,
    NotReversible,
    OutOfRange,
    Reducible,
    RowSumError,
)

import oracles
from conftest import BLAS, child_env, random_reversible, solve_cache_off


class TestBuildChain:
    def test_symmetric_doubly_stochastic(self):
        chain = sr.build_chain([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(chain.pi, [0.5, 0.5], atol=1e-14)

    def test_hand_solved_stationary(self, hand_chain):
        np.testing.assert_allclose(hand_chain.pi, [0.75, 0.25], atol=1e-12)
        # detailed balance across the only off-diagonal pair
        assert abs(0.75 * 0.1 - 0.25 * 0.3) < 1e-15

    def test_rotation_is_not_reversible(self):
        P = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(NotReversible):
            sr.build_chain(P)

    def test_cyclic_drift_on_symmetric_support_is_not_reversible(self):
        # doubly stochastic, so pi is uniform, but the flow circulates 0->1->2
        P = [[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]]
        with pytest.raises(NotReversible, match="detailed balance"):
            sr.build_chain(P)

    def test_the_worst_gap_is_found_off_the_diagonal_blocks(self, rng):
        # 300 states: the pair (10, 250) sits in the block below the diagonal
        W = rng.uniform(0.1, 1.0, (300, 300))
        P = W + W.T
        P /= P.sum(axis=1, keepdims=True)
        P[250, 250] -= 1e-3 * P[250, 10]
        P[250, 10] *= 1.001
        F = sr.build_chain(P, sr.Tolerances(detailed_balance=1.0)).pi[:, None] * P
        worst = float(np.max(np.abs(F - F.T) / np.maximum(F, F.T)))
        assert 9e-4 < worst < 1.1e-3
        with pytest.raises(NotReversible, match=f"worst relative gap {worst!r}$"):
            sr.build_chain(P)

    def test_bad_row_sum(self):
        with pytest.raises(RowSumError):
            sr.build_chain([[0.5, 0.4], [0.5, 0.5]])

    def test_tolerance_below_zero_or_nan_is_refused(self):
        # nan makes every "x > tol" test false and so switches the check off
        for value in (math.nan, -1e-12):
            with pytest.raises(InvalidArguments, match="tolerance pi_floor must be >= 0"):
                sr.Tolerances(pi_floor=value)
        assert [sr.Tolerances(pi_floor=v).pi_floor for v in (0.0, math.inf)] == [0.0, math.inf]

    def test_negative_entry(self):
        with pytest.raises(RowSumError):
            sr.build_chain([[1.1, -0.1], [0.5, 0.5]])

    def test_reducible(self):
        P = np.zeros((4, 4))
        P[:2, :2] = 0.5
        P[2:, 2:] = 0.5
        with pytest.raises(Reducible):
            sr.build_chain(P)

    def test_random_chains_validate(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 25))
            chain = random_reversible(n, rng)
            assert chain.n == n
            assert abs(chain.pi.sum() - 1.0) < 1e-12


class TestSpectralDecomposition:
    def test_complete_graph_spectrum(self):
        dec = sr.spectral_decomposition(sr.complete_graph(4))
        np.testing.assert_allclose(dec.eigenvalues, [1, 0, 0, 0], atol=1e-12)

    def test_cycle_five_degenerate_pair(self):
        dec = sr.spectral_decomposition(sr.cycle_graph(5))
        lam = dec.eigenvalues
        assert abs(lam[1] - math.cos(2 * math.pi / 5)) < 1e-12
        assert abs(lam[1] - lam[2]) < 1e-12
        assert abs(lam[3] - math.cos(4 * math.pi / 5)) < 1e-12

    def test_two_state_eigenvalues(self, hand_chain):
        dec = sr.spectral_decomposition(hand_chain)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.6], atol=1e-12)

    def test_invariants_on_random_chains(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 30))
            chain = random_reversible(n, rng)
            dec = sr.spectral_decomposition(chain)
            lam, phi = dec.eigenvalues, dec.eigenvectors
            assert abs(lam[0] - 1.0) < 1e-10
            assert np.max(np.abs(phi[:, 0] - 1.0)) < 1e-8
            gram = phi.T @ (chain.pi[:, None] * phi)
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10
            resid = chain.kernel @ phi - phi * lam
            norms = np.sqrt(np.einsum("x,xi,xi->i", chain.pi, resid, resid))
            assert np.max(norms) < 1e-9
            mu = 1 - dec.eigenvalues
            assert np.all(np.diff(mu) > -1e-12)
            assert mu[0] == pytest.approx(0.0, abs=1e-10)
            assert np.all(mu <= 2.0 + 1e-12)


class TestPiInner:
    def test_unit_function(self, hand_chain):
        ones = np.ones(2)
        assert sr.pi_inner(hand_chain, ones, ones) == pytest.approx(1.0, abs=1e-14)

    def test_vectors_of_another_length_are_refused(self, hand_chain):
        with pytest.raises(DimensionMismatch):
            sr.pi_inner(hand_chain, [1.0, 2.0, 3.0], [1.0, 2.0])

    def test_hand_sum(self, hand_chain):
        f = np.array([1.0, -3.0])
        assert sr.pi_inner(hand_chain, f, f) == pytest.approx(3.0, abs=1e-14)

    def test_eigenvector_orthogonality(self, rng):
        chain = random_reversible(6, rng)
        dec = sr.spectral_decomposition(chain)
        val = sr.pi_inner(chain, dec.eigenvectors[:, 1], dec.eigenvectors[:, 2])
        assert abs(val) < 1e-10


class TestDirichletForm:
    def test_constant_vanishes(self, hand_chain):
        assert oracles.dirichlet_form(hand_chain, np.ones(2)) == pytest.approx(0.0, abs=1e-14)

    def test_eigenvector_gives_relaxation_rate(self, rng):
        chain = random_reversible(8, rng)
        dec = sr.spectral_decomposition(chain)
        for i in (1, 3, 7):
            val = oracles.dirichlet_form(chain, dec.eigenvectors[:, i])
            assert val == pytest.approx(1.0 - dec.eigenvalues[i], abs=1e-10)

    def test_two_state_hand_value(self):
        chain = sr.build_chain([[0.5, 0.5], [0.5, 0.5]])
        assert oracles.dirichlet_form(chain, [1.0, -1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_both_formulas_agree_on_random_pairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 20))
            chain = random_reversible(n, rng)
            f = rng.standard_normal(n)
            # dirichlet_form itself enforces 1e-12 relative agreement
            oracles.dirichlet_form(chain, f)


class TestZoo:
    def test_complete_graph_dissipates_in_one_step(self):
        dec = sr.spectral_decomposition(sr.complete_graph(5))
        assert np.all((1 - dec.eigenvalues)[1:] == pytest.approx(1.0, abs=1e-12))

    def test_size_guards(self):
        with pytest.raises(InvalidSize):
            sr.complete_graph(1)
        with pytest.raises(InvalidSize):
            sr.cycle_graph(1)
        with pytest.raises(InvalidSize):
            sr.barbell_chain(1)
        with pytest.raises(InvalidArguments):
            sr.barbell_chain(3, 0.0)
        with pytest.raises(InvalidSize):
            sr.build_chain(np.zeros((0, 0)))

    def test_cycle_kernel(self):
        # n = 2 puts both halves on one entry
        assert sr.cycle_graph(2).kernel.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert sr.cycle_graph(4).kernel.tolist() == [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
                                                     [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]

    def test_lazy_spectrum_scaling(self, rng):
        chain = random_reversible(7, rng)
        dec = sr.spectral_decomposition(chain)
        lazy = oracles.lazy_transform(chain, 0.5)
        dec_lazy = sr.spectral_decomposition(lazy)
        np.testing.assert_allclose(
            dec_lazy.eigenvalues, 1.0 - 0.5 * (1.0 - dec.eigenvalues), atol=1e-10)
        np.testing.assert_allclose(lazy.pi, chain.pi, atol=1e-12)

    def test_lazy_preserves_eigenspaces(self):
        # degenerate pair: compare spectral projectors, not individual vectors
        chain = sr.cycle_graph(5)
        dec = sr.spectral_decomposition(chain)
        lazy = oracles.lazy_transform(chain, 0.3)
        dec_lazy = sr.spectral_decomposition(lazy)
        for idx in ([0], [1, 2], [3, 4]):
            U = dec.eigenvectors[:, idx]
            V = dec_lazy.eigenvectors[:, idx]
            proj_u = U @ U.T @ np.diag(chain.pi)
            proj_v = V @ V.T @ np.diag(chain.pi)
            assert np.max(np.abs(proj_u - proj_v)) < 1e-9

    def test_barbell_is_metastable(self):
        chain = sr.barbell_chain(3, 0.1)
        dec = sr.spectral_decomposition(chain)
        assert dec.eigenvalues[1] > 0.9
        assert abs(dec.eigenvalues[2]) < dec.eigenvalues[1]


class TestChainFromSpectrum:
    def test_two_state_uniform(self):
        chain = oracles.chain_from_spectrum([1.0, 0.0], seed=1)
        np.testing.assert_allclose(chain.kernel, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_recovers_requested_spectrum(self, rng):
        # mild spectra keep rejection sampling cheap; realizability degrades
        # quickly with size and spectral radius
        for seed in range(10):
            n = int(rng.integers(3, 7))
            target = np.sort(rng.uniform(0.0, 0.5, n - 1))[::-1]
            lams = np.concatenate([[1.0], target])
            chain = oracles.chain_from_spectrum(lams, max_resample=5000, seed=seed)
            got = sr.spectral_decomposition(chain).eigenvalues
            np.testing.assert_allclose(np.sort(got), np.sort(lams), atol=1e-9)
            np.testing.assert_allclose(chain.pi, np.full(n, 1.0 / n), atol=1e-10)


class TestHypercubeProfile:
    """The point-mass start by level j = 1..n: eigenvalue 1 - 2j/n, weight C(n, j)."""

    def test_small_levels(self):
        prof = sr.hypercube_profile(2)
        np.testing.assert_allclose(prof.lambdas, [0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(np.exp(prof.log_weights), [2, 1], rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 64, 4096, 8192])
    def test_log_multiplicities_are_exact_log_binomials(self, n):
        # ln C(n, j) from exact integers; C(4096, 2048) ~ 1e1231 is far past DBL_MAX
        binomials = [1]
        for j in range(n):
            binomials.append(binomials[-1] * (n - j) // (j + 1))
        assert binomials[n // 2] == math.comb(n, n // 2)
        exact = np.array([math.log(c) for c in binomials[1:]])
        got = sr.hypercube_profile(n).log_weights
        # three lgamma terms, each within about an ulp of ln n!
        assert np.max(np.abs(got - exact)) <= 8 * np.spacing(math.lgamma(n + 1))

    def test_log_binomial_value(self):
        prof = sr.hypercube_profile(10)
        assert prof.log_weights[4] == pytest.approx(math.log(252), abs=1e-10)

    def test_multiplicities_sum_in_log_domain(self):
        prof = sr.hypercube_profile(20)
        total = np.logaddexp.reduce(prof.log_weights)
        assert total == pytest.approx(math.log(2 ** 20 - 1), abs=1e-10)

    def test_endpoints(self):
        prof = sr.hypercube_profile(11)
        assert prof.lambdas[0] == 1.0 - 2.0 / 11
        assert prof.lambdas[-1] == -1.0


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_complete_graph_rows_uniform(n):
    chain = sr.complete_graph(n)
    assert np.all(chain.kernel == 1.0 / n)
    np.testing.assert_allclose(chain.pi, np.full(n, 1.0 / n), atol=1e-12)


def test_degenerate_pi_unreachable_via_reducibility():
    # a kernel with an unreachable state is caught as reducible first
    P = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(Reducible):
        sr.build_chain(P)


def _max_relative_gap(pi, exact):
    return float(np.max(np.abs(pi / exact - 1.0)))


def _eig_pi(P):
    """Independent oracle: the left eigenvector of P for the eigenvalue nearest 1."""
    evals, evecs = np.linalg.eig(P.T)
    v = evecs[:, np.argmin(np.abs(evals - 1.0))].real
    return v / v.sum()


def _weighted_kernel(family, n, decades, seed):
    """Reversible kernel W / pi with a known pi spread over `decades` orders.

    W is symmetric on the family's support, W_ij <= min(pi_i, pi_j) / n off the
    diagonal, and the diagonal tops each row of W up to pi_i, so pi_i P_ij = W_ij
    holds by construction.  Paths and cycles visit the states in a random order,
    so the BFS tree from state 0 is n / 2 levels deep on a cycle and n / 2 to
    n - 1 on a path.
    """
    rng = np.random.default_rng(seed)
    pi = 10.0 ** -(decades * rng.permutation(n) / max(n - 1, 1))
    adj = np.zeros((n, n), dtype=bool)
    if family == "dense":
        adj[:] = True
    elif family == "barbell":
        m = n // 2
        adj[:m, :m] = adj[m:, m:] = True
        adj[m - 1, m] = True
    else:
        order = rng.permutation(n)
        adj[order[:-1], order[1:]] = True
        if family == "cycle":
            adj[order[-1], order[0]] = True
    adj = (adj | adj.T) & ~np.eye(n, dtype=bool)
    u = rng.uniform(0.1, 1.0, (n, n))
    W = np.where(adj, np.triu(u) + np.triu(u, 1).T, 0.0) * np.minimum.outer(pi, pi) / n
    W[np.diag_indices(n)] = pi - W.sum(axis=1)
    return W / pi[:, None], pi / pi.sum()


@given(st.sampled_from(["dense", "path", "cycle", "barbell"]),
       st.integers(min_value=4, max_value=200),
       st.sampled_from([0.0, 3.0, 12.0]),
       st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@example("cycle", 1500, 12.0, False, 0)
@example("path", 1000, 12.0, True, 1)
@settings(max_examples=60, deadline=None)
def test_tree_pi_matches_the_exact_law(family, n, decades, lazy, seed):
    P, exact = _weighted_kernel(family, n, decades, seed)
    chain = sr.build_chain(P)
    if lazy:
        chain = oracles.lazy_transform(chain, 0.5)
    assert _max_relative_gap(chain.pi, exact) <= 1e-12


def test_pi_below_the_floor_is_degenerate():
    # 16 decades of spread put the smallest weight near 1e-16, under pi_floor
    P, _ = _weighted_kernel("path", 10, 16.0, 0)
    with pytest.raises(DegeneratePi):
        sr.build_chain(P)


def test_pi_floor_rejection_names_the_floor():
    # lazy birth-death chain, n = 400, up/down ratio 0.9: pi spans 19 decades
    n = 400
    P = np.zeros((n, n))
    i = np.arange(n - 1)
    P[i, i + 1] = 0.225
    P[i + 1, i] = 0.25
    P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
    with pytest.raises(DegeneratePi, match=r"pi_floor = 1e-14"):
        sr.build_chain(P)
    chain = sr.build_chain(P, sr.Tolerances(pi_floor=0.0))
    assert 1e-20 < chain.pi.min() < 1e-19


def test_tree_pi_matches_an_eig_oracle(rng):
    # the oracle is only as good as the conditioning of the eigenvector for 1:
    # at 12 decades of spread its smallest weights are off by O(1), on
    # cycle-1500 by 3e-10 and on barbell(6, 1e-3) by 3e-12, so those cases
    # are checked against their exact laws instead
    chains = [sr.barbell_chain(3, 0.1), sr.cycle_graph(7)]
    for _ in range(20):
        chain = random_reversible(int(rng.integers(2, 40)), rng)
        chains += [chain, oracles.lazy_transform(chain, float(rng.uniform(0.05, 1.0)))]
    for chain in chains:
        assert _max_relative_gap(chain.pi, _eig_pi(chain.kernel)) <= 1e-12


def test_zoo_laws_are_exact():
    np.testing.assert_array_equal(sr.cycle_graph(1500).pi, np.full(1500, 1 / 1500))
    # barbell pi is proportional to weighted degree: m - 1 in the cliques,
    # m - 1 + bridge at the two bridge ends
    for m, bridge in ((3, 0.1), (6, 1e-3)):
        degree = np.full(2 * m, m - 1.0)
        degree[[m - 1, m]] += bridge
        exact = degree / degree.sum()
        assert _max_relative_gap(sr.barbell_chain(m, bridge).pi, exact) <= 1e-15


def test_import_needs_no_scipy():
    code = ("import sys, specrelax.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), check=True).stdout
    assert out.strip() == "[]"


# The checked eigensolves: (call, peak bound in units of one n x n double
# array).  The bounds leave room over the measured 2.65, 4.03 and 2.05, each
# on a process's first solve, cold, warm or uncached alike (2.05, 4.00 and
# 2.05 on later ones); a solve that keeps extra n x n temporaries reaches 6 to
# 7, and chain_spectrum with a whole antisymmetric part as a temporary 3.0.
CHECKED_SOLVES = {
    "spectral_decomposition": (sr.spectral_decomposition, 3.0),
    "absorb": (lambda chain: sr.absorb(chain, 0), 4.5),
    "chain_spectrum": (sr.chain_spectrum, 2.5),
}


def _peak(solve, chain) -> int:
    tracemalloc.start()
    try:
        solve(chain)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(CHECKED_SOLVES))
def test_eigensolve_peak_memory(name, tmp_path, monkeypatch):
    # cold, LAPACK's output is streamed to the solve cache; warm, it is read
    # back; uncached, as below the thresholds or with no cache, it is neither
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    solve, bound = CHECKED_SOLVES[name]
    chain = sr.cycle_graph(400)
    # chain_spectrum's eigvalsh and absorb's block of n - 1 are cached too
    assert chain.n >= sr.chains.CACHE_MIN_STATES["eigvalsh"]
    assert chain.n - 1 >= sr.chains.CACHE_MIN_STATES["eigh"]
    peaks = [_peak(solve, chain), _peak(solve, chain)]
    with monkeypatch.context() as m:
        solve_cache_off(m)
        peaks.append(_peak(solve, chain))
    directory = tmp_path / "specrelax"
    entries = list(directory.iterdir()) if directory.exists() else []
    assert len(entries) == (1 if BLAS else 0)
    assert max(peaks) <= bound * 8 * chain.n ** 2, [p / (8 * chain.n ** 2) for p in peaks]


@pytest.mark.parametrize("name", ["absorb", "spectral_decomposition"])
def test_perturbed_eigenvector_is_caught(name, monkeypatch):
    solve, _ = CHECKED_SOLVES[name]
    chain = sr.barbell_chain(4, 0.05)
    solve(chain)
    real_eigh = np.linalg.eigh

    def perturbed(a):
        evals, evecs = real_eigh(a)
        evecs[0, 1] += 1e-6
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(EigensolveFailure):
        solve(chain)


def test_lapack_that_does_not_converge_is_one_error_line(monkeypatch, capsys):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    assert main(["simulate", "k5", "--steps", "2"]) == 4
    assert capsys.readouterr() == ("", "error: EigensolveFailure: Eigenvalues did not converge\n")


class TestChainSpectrum:
    def test_matches_the_full_decomposition(self, rng, hand_chain):
        chains = [hand_chain, sr.cycle_graph(6), sr.cycle_graph(7), sr.complete_graph(5),
                  sr.barbell_chain(3, 0.1), sr.barbell_chain(6, 1e-3)]
        chains += [random_reversible(int(rng.integers(2, 60)), rng, lazy=bool(i % 2))
                   for i in range(10)]
        for chain in chains:
            want = sr.spectral_decomposition(chain).eigenvalues
            assert np.max(np.abs(sr.chain_spectrum(chain) - want)) <= 1e-12
        # the even cycle is periodic: its last eigenvalue is -1
        assert sr.chain_spectrum(sr.cycle_graph(6))[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_shifted_eigenvalue_is_caught(self, monkeypatch):
        chain = sr.barbell_chain(4, 0.05)
        sr.chain_spectrum(chain)
        real_eigvalsh = np.linalg.eigvalsh

        def shifted(a):
            evals = real_eigvalsh(a)
            evals[3] += 1e-6
            return evals

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(EigensolveFailure, match="tr sym") as caught:
            sr.chain_spectrum(chain)
        assert "np.float64" not in str(caught.value)

    def test_lambda2_solved_at_one_is_refused(self, monkeypatch):
        # some BLAS kernels round a bridge of 1e-16 to a computed lambda2 of 1;
        # the solve of B[1:, 1:] then returns 1 as its top eigenvalue
        chain = sr.barbell_chain(4, 0.05)
        real_eigvalsh, real_eigh = np.linalg.eigvalsh, np.linalg.eigh

        def eigvalsh(a):
            evals = real_eigvalsh(a)
            evals[-1] = 1.0
            return evals

        def eigh(a):
            evals, evecs = real_eigh(a)
            evals[-1] = 1.0
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for solve in (sr.chain_spectrum, sr.spectral_decomposition):
            with pytest.raises(OutOfRange, match=r"^lambda2 is within 1e-15 of 1, where the "
                                                 r"gap 1 - lambda2 is not resolved$"):
                solve(chain)

    def test_tight_residual_takes_the_full_check(self, monkeypatch):
        chain = sr.barbell_chain(4, 0.05)
        tol = sr.Tolerances(eigen_residual=1e-30)
        with pytest.raises(EigensolveFailure) as full:
            sr.spectral_decomposition(chain, tol)

        def refuse(a):
            raise AssertionError("the certificate cannot hold at this tolerance")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(EigensolveFailure) as fast:
            sr.chain_spectrum(chain, tol)
        assert str(fast.value) == str(full.value)

    def test_non_stationary_weights_are_caught(self):
        # symmetric, so S = sym and the certificate holds, and the top
        # eigenvalue is 1, but the second row sums to 1/2: pi is not stationary,
        # and both solves refuse it with the one shared stationary test
        chain = sr.ReversibleChain(kernel=[[1.0, 0.0], [0.0, 0.5]], pi=[0.5, 0.5])
        for solve in (sr.chain_spectrum, sr.spectral_decomposition):
            with pytest.raises(EigensolveFailure, match="stationary mode residual"):
                solve(chain)
