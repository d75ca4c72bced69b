import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax.errors import (DeadTrajectory, DimensionMismatch, InvalidArguments,
                              ZeroProjection)

import oracles
from conftest import (
    centered_random_start,
    modal_oracle,
    power_stream,
    random_profile,
    random_reversible,
    spectral_coefficients,
)


class TestProjectInitial:
    def test_single_eigenvector(self, rng):
        chain = random_reversible(6, rng)
        dec = sr.spectral_decomposition(chain)
        prof = sr.project_initial(dec, chain, dec.eigenvectors[:, 1])
        assert prof.n_modes == 1
        assert prof.lambdas[0] == pytest.approx(dec.eigenvalues[1], abs=1e-12)
        assert prof.log_weights[0] == pytest.approx(0.0, abs=1e-10)

    def test_weights_that_are_not_positive_are_refused(self):
        for weight in (0.0, -1.0):
            with pytest.raises(InvalidArguments):
                sr.profile_from_weights([0.5], [weight])

    def test_stationary_start_rejected(self, rng):
        chain = random_reversible(5, rng)
        dec = sr.spectral_decomposition(chain)
        with pytest.raises(ZeroProjection):
            sr.project_initial(dec, chain, np.ones(5))

    def test_parseval_weights(self, rng):
        chain = random_reversible(7, rng)
        dec = sr.spectral_decomposition(chain)
        g0 = 3.0 * dec.eigenvectors[:, 1] + 4.0 * dec.eigenvectors[:, 2]
        prof = sr.project_initial(dec, chain, g0)
        w = np.exp(prof.log_weights)
        np.testing.assert_allclose(np.sort(w), [9.0, 16.0], rtol=1e-10)
        assert oracles.ledger_at(prof, 0).energy == pytest.approx(25.0, rel=1e-12)

    def test_records_ambient_slow_eigenvalue(self, rng):
        chain = random_reversible(6, rng)
        dec = sr.spectral_decomposition(chain)
        prof = sr.project_initial(dec, chain, centered_random_start(chain, rng))
        assert prof.chain_lambda2 == pytest.approx(dec.eigenvalues[1])


class TestLedger:
    def test_single_mode(self):
        prof = sr.profile_from_weights([0.9], [1.0])
        led = oracles.ledger_at(prof, 10)
        assert led.energy == pytest.approx(0.9 ** 20, rel=1e-12)
        np.testing.assert_allclose(led.p, [1.0])
        assert led.rho == pytest.approx(0.81, abs=1e-15)

    def test_two_mode_start(self, two_mode_profile):
        led = oracles.ledger_at(two_mode_profile, 0)
        assert led.energy == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(led.p, [0.5, 0.5], atol=1e-15)
        assert led.rho == pytest.approx(0.41, abs=1e-15)

    def test_complete_graph_profile_dies(self):
        prof = sr.profile_from_weights([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        led = oracles.ledger_at(prof, 1)
        assert led.terminal
        assert led.log_energy == -math.inf
        assert np.all(led.p == 0.0)
        # k = 0 is still alive
        assert not oracles.ledger_at(prof, 0).terminal

    def test_huge_step_no_overflow(self):
        prof = sr.profile_from_weights([0.5, 0.1], [1.0, 1.0])
        led = oracles.ledger_at(prof, 10 ** 9)
        assert math.isfinite(led.rho)
        assert led.log_energy == pytest.approx(2e9 * math.log(0.5), rel=1e-12)
        np.testing.assert_allclose(led.p, [1.0, 0.0], atol=1e-300)

    def test_matches_plain_oracle(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            k = int(rng.integers(0, 40))
            n, E, p, rho = modal_oracle(prof.lambdas, np.exp(prof.log_weights), k)
            led = oracles.ledger_at(prof, k)
            assert led.energy == pytest.approx(E, rel=1e-11)
            np.testing.assert_allclose(led.p, p, atol=1e-12)
            assert led.rho == pytest.approx(rho, rel=1e-11)


class TestDissipation:
    def test_single_mode_constant_rate(self):
        prof = sr.profile_from_weights([0.9], [1.0])
        for k in (0, 3, 17):
            step = oracles.dissipation_step(prof, k)
            assert step.relative == pytest.approx(0.19, abs=1e-13)

    def test_two_mode_hand_values(self, two_mode_profile):
        step = oracles.dissipation_step(two_mode_profile, 0)
        assert step.delta_E == pytest.approx(1.18, rel=1e-12)
        np.testing.assert_allclose(step.modewise_terms, [0.19, 0.99], rtol=1e-12)

    def test_everything_dissipates_for_dead_spectrum(self):
        prof = sr.profile_from_weights([0.0, 0.0], [2.0, 3.0])
        step = oracles.dissipation_step(prof, 0)
        assert step.delta_E == pytest.approx(5.0, rel=1e-14)
        with pytest.raises(DeadTrajectory):
            oracles.dissipation_step(prof, 1)

    def test_modewise_sums_to_delta(self, rng):
        for _ in range(30):
            prof = random_profile(rng)
            k = int(rng.integers(0, 30))
            step = oracles.dissipation_step(prof, k)
            total = step.modewise_terms.sum()
            assert abs(total - step.delta_E) <= 1e-12 * max(step.delta_E, 1e-300)


class TestMatrixOracle:
    def test_stochasticity(self, rng):
        chain = random_reversible(9, rng)
        np.testing.assert_allclose(
            oracles.matrix_oracle_step(chain, np.ones( 9)), np.ones(9), atol=1e-12)

    def test_eigenrelation(self, rng):
        chain = random_reversible(12, rng)
        dec = sr.spectral_decomposition(chain)
        phi2 = dec.eigenvectors[:, 1]
        out = oracles.matrix_oracle_step(chain, phi2)
        diff = out - dec.eigenvalues[1] * phi2
        assert math.sqrt(sr.pi_inner(chain, diff, diff)) < 1e-9

    def test_quadratic_identity(self, rng):
        # <g, (2G - G^2) g> equals the one-step energy drop, straight matrices
        for _ in range(10):
            chain = random_reversible(20, rng)
            g = centered_random_start(chain, rng)
            Pg = oracles.matrix_oracle_step(chain, g)
            u = g - Pg
            q = u + oracles.matrix_oracle_step(chain, u)   # (2G - G^2) g = u + P u
            lhs = sr.pi_inner(chain, g, q)
            rhs = sr.pi_inner(chain, g, g) - sr.pi_inner(chain, Pg, Pg)
            assert abs(lhs - rhs) <= 1e-12 * sr.pi_inner(chain, g, g)

    def test_dimension_guard(self, rng):
        chain = random_reversible(4, rng)
        with pytest.raises(DimensionMismatch):
            oracles.matrix_oracle_step(chain, np.ones(5))


class TestTransport:
    def test_single_mode_exact_zero(self):
        prof = sr.profile_from_weights([0.7], [2.0])
        assert oracles.transport_residual(prof, 5) == 0.0

    def test_two_mode_hand_distribution(self, two_mode_profile):
        assert oracles.transport_residual(two_mode_profile, 0) <= 1e-15
        led1 = oracles.ledger_at(two_mode_profile, 1)
        np.testing.assert_allclose(led1.p, [81 / 82, 1 / 82], rtol=1e-14)

    def test_property_sweep(self, rng):
        prof = random_profile(rng, n_modes=12)
        for k in range(0, 101, 7):
            assert oracles.transport_residual(prof, k) <= 1e-12

    def test_fifty_mode_sweep(self, rng):
        lam = np.concatenate([[0.95, 0.9], rng.uniform(-0.5, 0.5, 48)])
        prof = sr.profile_from_weights(lam, rng.uniform(0.1, 1.0, 50))
        for k in range(101):
            assert oracles.transport_residual(prof, k) <= 1e-12


class TestOracleEquivalence:
    def test_spectral_vs_matrix_energies(self, rng):
        # smaller version of the acceptance sweep; full one lives there
        for _ in range(10):
            n = int(rng.integers(5, 31))
            chain = random_reversible(n, rng, lazy=True)
            dec = sr.spectral_decomposition(chain)
            g0 = centered_random_start(chain, rng)
            prof = sr.project_initial(dec, chain, g0)
            logs, _, _ = power_stream(chain, g0, 101)
            for k in range(0, 101, 10):
                led = oracles.ledger_at(prof, k)
                assert abs(led.log_energy - logs[k]) < 1e-10

    def test_monotone_energy_and_rho_bounds(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            lam_sq = prof.lambdas ** 2
            prev = math.inf
            for k in range(40):
                led = oracles.ledger_at(prof, k)
                alive = np.isfinite(led.log_modal_energies)
                assert led.log_energy <= prev + 1e-12
                assert led.rho <= lam_sq[alive].max() + 1e-12
                assert led.rho >= lam_sq[alive].min() - 1e-12
                prev = led.log_energy

    def test_second_moment_identity(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            for k in range(0, 30, 3):
                led = oracles.ledger_at(prof, k)
                led1 = oracles.ledger_at(prof, k + 1)
                fourth = float(np.sum(led.p * prof.lambdas ** 4))
                assert fourth == pytest.approx(led.rho * led1.rho, rel=1e-12, abs=1e-300)


@given(st.integers(min_value=0, max_value=200), st.data())
@settings(max_examples=40, deadline=None)
def test_ledger_distribution_properties(k, data):
    lam = data.draw(st.lists(
        st.floats(min_value=-0.99, max_value=0.99), min_size=1, max_size=8))
    weights = data.draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=len(lam), max_size=len(lam)))
    prof = sr.profile_from_weights(np.array(lam), np.array(weights))
    led = oracles.ledger_at(prof, k)
    if led.terminal:
        assert np.all(np.array(lam) == 0.0) and k >= 1
        return
    assert led.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= led.rho < 1.0
    # exact log-linearity of the modal energies
    alive = np.isfinite(led.log_modal_energies)
    if k == 0:
        expected = prof.log_weights[alive]
    else:
        expected = prof.log_weights[alive] + 2.0 * k * np.log(np.abs(prof.lambdas[alive]))
    np.testing.assert_allclose(led.log_modal_energies[alive], expected, rtol=0, atol=0)


@pytest.mark.parametrize("lam, k", [(1.0529500925097062e-165, 22), (2.9e-61, 59)])
def test_ledger_distribution_sums_to_one_deep_in_log_domain(lam, k):
    # counterexamples found by test_ledger_distribution_properties: with
    # log modal energies near -1.6e4, exp(log_n - log_E) drifted by 1.6e-12
    led = oracles.ledger_at(sr.profile_from_weights([lam, lam], [1.0, 1.0]), k)
    assert abs(led.p.sum() - 1.0) <= 1e-12


_lambda = st.one_of(
    st.just(0.0),
    st.floats(min_value=-0.99, max_value=0.99),
    st.builds(lambda mag, sign: sign * mag,
              st.floats(min_value=1e-300, max_value=1e-10), st.sampled_from([-1.0, 1.0])),
)


@given(st.lists(st.tuples(_lambda, st.floats(min_value=-700.0, max_value=700.0)),
                min_size=1, max_size=8),
       st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_ledger_at_is_a_row_of_the_block(modes, k0):
    # with pairs, ledger_blocks splits 40 steps into two blocks, the second
    # starting at the last step of the first; every row must equal the
    # one-row view.  Without pairs the blocks partition the steps.
    lam, lw = (np.array(v) for v in zip(*modes))
    prof = sr.SpectralProfile(lambdas=lam, log_weights=lw)
    ks = range(k0, k0 + 40)
    assert [int(k) for b in sr.ledger_blocks(prof, ks) for k in b.ks] == list(ks)
    blocks = list(sr.ledger_blocks(prof, ks, pairs=True))
    assert len(blocks) == 2 and blocks[1].ks[0] == blocks[0].ks[-1]
    for block in blocks:
        for i, k in enumerate(block.ks):
            row, led = oracles.ledger_row(block, i), oracles.ledger_at(prof, int(k))
            assert (row.k, row.log_energy, row.rho, row.d, row.terminal) == (
                led.k, led.log_energy, led.rho, led.d, led.terminal)
            np.testing.assert_array_equal(row.log_modal_energies, led.log_modal_energies)
            np.testing.assert_array_equal(row.p, led.p)
    assert [int(k) for b in blocks for k in b.ks[b is not blocks[0]:]] == list(ks)
