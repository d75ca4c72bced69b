import dataclasses
import json
import math

import numpy as np
import pytest

import specrelax as sr
from specrelax.cli import main
from specrelax.errors import BadStart, Degenerate, EigensolveFailure, InvalidArguments, InvalidState

import oracles
from conftest import random_reversible


def _two_like_parts(rng) -> np.ndarray:
    """The kernel of two copies of one random part of 3-7 states, each joined
    to state 0 alone by the same weights."""
    m = int(rng.integers(3, 8))
    inner, hub = rng.uniform(0.1, 1.0, (m, m)), rng.uniform(0.1, 1.0, m)
    w = np.zeros((2 * m + 1, 2 * m + 1))
    for s in (1, m + 1):
        w[s:s + m, s:s + m] = inner + inner.T
        w[0, s:s + m] = w[s:s + m, 0] = hub
    return w / w.sum(axis=1, keepdims=True)


class TestAbsorb:
    def test_complete_graph_block(self):
        model = sr.absorb(sr.complete_graph(3), 0)
        np.testing.assert_allclose(model.block, np.full((2, 2), 1 / 3), atol=1e-15)
        np.testing.assert_allclose(model.nu, [2 / 3, 0.0], atol=1e-12)

    def test_two_state_block_is_diagonal_entry(self, hand_chain):
        model = sr.absorb(hand_chain, 1)
        assert model.nu.shape == (1,)
        assert model.nu[0] == pytest.approx(0.9, abs=1e-14)

    def test_block_eigensolve_is_checked(self):
        chain = sr.cycle_graph(12)
        sr.absorb(chain, 0)
        with pytest.raises(EigensolveFailure, match="eigen-residual"):
            sr.absorb(chain, 0, tol=sr.Tolerances(eigen_residual=1e-30))

    def test_invalid_state(self, hand_chain):
        with pytest.raises(InvalidState):
            sr.absorb(hand_chain, 5)

    def test_interlacing_sweep(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 16))
            chain = random_reversible(n, rng)
            lam = sr.spectral_decomposition(chain).eigenvalues
            for target in range(n):
                model = sr.absorb(chain, target)
                for j in range(2, n + 1):
                    nu_j = model.nu[j - 2]
                    assert lam[j - 2] >= nu_j - 1e-9
                    assert nu_j >= lam[j - 1] - 1e-9

    def test_absorbed_spectrum_strictly_below_one(self, rng):
        for _ in range(10):
            chain = random_reversible(int(rng.integers(3, 12)), rng)
            model = sr.absorb(chain, 0)
            assert np.max(model.nu) < 1.0 - 1e-12


class TestFptTail:
    def test_no_step_is_certain_survival(self, rng):
        chain = random_reversible(6, rng)
        model = sr.absorb(chain, 2)
        out = oracles.fpt_tail(model, sr.uniform_start(model), 0)
        assert out.spectral == pytest.approx(1.0, abs=1e-12)
        assert out.matrix == 1.0

    def test_complete_graph_geometric_tail(self):
        model = sr.absorb(sr.complete_graph(3), 0)
        start = sr.uniform_start(model)
        for k in (0, 1, 5, 17):
            out = oracles.fpt_tail(model, start, k)
            assert out.matrix == pytest.approx((2 / 3) ** k, rel=1e-13)
            assert out.spectral == pytest.approx((2 / 3) ** k, rel=1e-12)

    def test_coefficients_sum_to_one(self, rng):
        for _ in range(10):
            chain = random_reversible(int(rng.integers(3, 14)), rng)
            model = sr.absorb(chain, int(rng.integers(chain.n)))
            for start in (sr.uniform_start(model),
                          sr.restricted_stationary_start(model)):
                alpha = sr.tail_coefficients(model, start)
                assert alpha.sum() == pytest.approx(1.0, abs=1e-10)

    def test_dual_computation_agreement(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 14))
            chain = random_reversible(n, rng)
            model = sr.absorb(chain, int(rng.integers(n)))
            start = sr.restricted_stationary_start(model)
            for k in (0, 1, 7, 40, 200):
                out = oracles.fpt_tail(model, start, k)
                assert abs(out.spectral - out.matrix) <= 1e-10 * max(out.matrix, 1e-300)

    def test_quasistationary_start_is_exactly_geometric(self, rng):
        chain = sr.barbell_chain(3, 0.1)
        model = sr.absorb(chain, 0)
        start = sr.quasistationary_start(model)
        nu2 = model.nu[0]
        for k in (1, 3, 10, 30):
            out = oracles.fpt_tail(model, start, k)
            assert out.matrix == pytest.approx(nu2 ** k, rel=1e-11)

    def test_bad_starts(self, rng):
        chain = random_reversible(5, rng)
        model = sr.absorb(chain, 0)
        for start in ([1.0, 0, 0, 0, 0],             # mass on the target
                      [0.3] * 4,                     # not normalized
                      [math.nan, 0, 0, 0, 1.0],      # nan on the target
                      [0, math.nan, 0, 0, 1.0]):     # nan elsewhere
            with pytest.raises(BadStart):
                sr.tail_curve(model, start, 3)

    def test_a_negative_horizon_is_refused(self, hand_chain):
        with pytest.raises(InvalidArguments):
            sr.tail_curve(sr.absorb(hand_chain, 1), [1.0], -1)

    def test_a_perron_mode_of_both_signs_is_refused(self):
        # absorbing the hub of two like leaves leaves the block I/2: its top
        # eigenvalue is double, so every pi-orthonormal basis is a correct
        # eigensolve, and a first mode that mixes the leaves with opposite
        # signs defines no quasistationary law
        model = sr.absorb(sr.build_chain([[0, 0.5, 0.5], [0.5, 0.5, 0], [0.5, 0, 0.5]]), 0)
        x = 1.0 / np.sqrt(2.0 * model.restricted_pi)
        mixed = dataclasses.replace(model, modes=[[x[0], x[0]], [-x[1], x[1]]])
        with pytest.raises(Degenerate, match="not sign-definite"):
            sr.quasistationary_start(mixed)

    def test_a_double_perron_root_is_refused(self, tmp_path, capsys):
        # two like parts joined only through the target: the block's top
        # eigenvalue is double, every law on its eigenspace is an answer, and
        # LAPACK's basis would pick one, here a law on one part alone
        star = sr.absorb(sr.build_chain([[0, 0.5, 0.5], [0.5, 0.5, 0], [0.5, 0, 0.5]]), 0)
        with pytest.raises(Degenerate, match="Perron vector is not determined"):
            sr.quasistationary_start(star)
        for seed in range(3):
            path = tmp_path / f"parts{seed}.csv"
            np.savetxt(path, _two_like_parts(np.random.default_rng(seed)), delimiter=",",
                       fmt="%.17g")
            assert main(["fpt", str(path), "--start", "quasistationary"]) == 4
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: Degenerate: ") and err.count("\n") == 1

    def test_the_perron_gap_is_read_to_the_tolerance_in_force(self, tmp_path, capsys):
        # the leaves of a star leak at rates 1/2 and 1/2 + 1e-6: nu_1 - nu_2 = 1e-6
        path = tmp_path / "star.csv"
        np.savetxt(path, [[0, 0.5, 0.5], [0.5, 0.5, 0], [0.5 + 1e-6, 0, 0.5 - 1e-6]],
                   delimiter=",", fmt="%.17g")
        argv = ["fpt", str(path), "--start", "quasistationary", "--kmax", "3"]
        assert main(argv) == 0
        assert main([*argv, "--tol", "eigen_residual=1e-6"]) == 4
        err = capsys.readouterr().err
        assert err.endswith("error: Degenerate: the block's top eigenvalue is within "
                            "2 tol.eigen_residual of the next, so its Perron vector is not "
                            "determined\n")

    def test_tail_log_linearity(self):
        chain = sr.barbell_chain(3, 0.1)
        model = sr.absorb(chain, 5)
        start = sr.restricted_stationary_start(model)
        nu2 = model.nu[0]
        K = 60
        values = [math.log(oracles.fpt_tail(model, start, k).spectral) - k * math.log(nu2)
                  for k in range(K, K + 21)]
        assert max(values) - min(values) <= 1e-6


def _tail_and_bound(model, start, k):
    tail = oracles.fpt_tail(model, start, k)
    return tail, sr.exponential_tail_bound(model, tail.coefficients, k, tail.matrix,
                                           tail.spectral, tail.approx)


class TestExponentialTailBound:
    def test_single_surviving_mode_exact(self, hand_chain):
        # one mode: r = 0 and q = 0, so only the roundoff terms remain
        model = sr.absorb(hand_chain, 1)
        tail, bound = _tail_and_bound(model, np.array([1.0]), 5)
        assert tail.relative_error <= 1e-12
        assert tail.relative_error <= bound <= 1e-14

    def test_zero_block(self, tmp_path, capsys):
        # state 1 of 0,1 / 1,0 absorbed leaves the block [0]: nu_1 = 0, so
        # q = 0, and every tail past k = 0 is 0
        model = sr.absorb(sr.build_chain(np.array([[0.0, 1.0], [1.0, 0.0]])), 1)
        assert model.nu.tolist() == [0.0]
        tail, bound = _tail_and_bound(model, np.array([1.0]), 0)
        assert tail.relative_error <= bound <= 1e-14
        path = tmp_path / "flip.csv"
        path.write_text("0,1\n1,0\n")
        assert main(["fpt", str(path), "--target", "1", "--kmax", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["rel_err"] is None, r["bound"] is None) for r in rows] == [
            (False, False), (True, True), (True, True)]
        assert rows[0]["rel_err"] <= rows[0]["bound"]

    def test_tied_top_pair(self):
        # two lazy leaves of a hub: absorbing the hub leaves the block I/2, so
        # q = 1 and the bound never decays, while rel_err stays at r
        model = sr.absorb(sr.build_chain(np.array(
            [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])), 0)
        assert model.nu.tolist() == [0.5, 0.5]
        for k in (0, 1, 10, 100):
            tail, bound = _tail_and_bound(model, np.array([0.3, 0.7]), k)
            alpha = np.abs(tail.coefficients)
            r = alpha[1] / alpha[0]
            assert tail.relative_error == pytest.approx(r, rel=1e-12)
            assert r <= bound and tail.relative_error <= bound

    def test_metastable_barbell_monitored(self):
        chain = sr.barbell_chain(3, 0.1)
        model = sr.absorb(chain, 5)
        start = sr.restricted_stationary_start(model)
        for k in range(8, 60):
            tail, bound = _tail_and_bound(model, start, k)
            assert tail.relative_error <= bound
            # the error should decay geometrically past the transient
            assert tail.relative_error <= 1.0

    def test_monitored_sweep_random_chains(self, rng):
        checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 12))
            chain = random_reversible(n, rng, lazy=True)
            dec = sr.spectral_decomposition(chain)
            lam = dec.eigenvalues
            lam2 = float(lam[1])
            lam3 = float(np.max(np.abs(lam[2:])))
            if lam2 - lam3 < 0.02:
                continue
            # the closed-form L with c2 = 1, R0 = n - 2 and delta = 0.1
            T = math.ceil(max(math.log((n - 2.0) / 0.1) / (2.0 * math.log(lam2 / lam3)), 1))
            model = sr.absorb(chain, 0)
            start = sr.restricted_stationary_start(model)
            alpha = sr.tail_coefficients(model, start)
            if abs(alpha[0]) < 1e-8 or model.nu[0] <= 0:
                continue
            for k in range(T, T + 50, 7):
                tail, bound = _tail_and_bound(model, start, k)
                checked += 1
                assert tail.relative_error <= bound
        assert checked > 50
