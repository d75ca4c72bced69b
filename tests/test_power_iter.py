import itertools
import math
import tracemalloc

import numpy as np
import pytest

import specrelax as sr
from specrelax.errors import (
    InvalidArguments,
    InvalidRho,
    OutOfRange,
    ZeroProjection,
)
from specrelax.power_iter import GAMMA_FLOOR

import oracles
from conftest import (
    centered_random_start,
    power_stream,
    random_profile,
    random_reversible,
)
from oracles import StreamEnded


def profile_rho_stream(profile, steps):
    return [oracles.ledger_at(profile, k).rho for k in range(steps)]


class TestRunPower:
    def test_eigenvector_start_is_fixed(self, rng):
        chain = random_reversible(8, rng, lazy=True)
        dec = sr.spectral_decomposition(chain)
        _, rho, iterates = power_stream(chain, dec.eigenvectors[:, 1], 30)
        lam2 = dec.eigenvalues[1]
        for k in range(30):
            assert rho[k] == pytest.approx(lam2 ** 2, rel=1e-11)
            err = sr.eigenvector_error(chain, dec, iterates[k])
            assert err < 1e-20

    def test_rho_matches_spectral_ledger(self, rng):
        chain = random_reversible(20, rng, lazy=True)
        dec = sr.spectral_decomposition(chain)
        g0 = centered_random_start(chain, rng)
        prof = sr.project_initial(dec, chain, g0)
        _, rho, _ = power_stream(chain, g0, 80)
        for k in range(80):
            assert rho[k] == pytest.approx(
                oracles.ledger_at(prof, k).rho, rel=1e-10)

    def test_two_component_moments(self, rng):
        chain = random_reversible(10, rng, lazy=True)
        dec = sr.spectral_decomposition(chain)
        g0 = dec.eigenvectors[:, 1] + dec.eigenvectors[:, 2]
        _, rho, _ = power_stream(chain, g0, 5)
        l2, l3 = dec.eigenvalues[1], dec.eigenvalues[2]
        rho0 = (l2 ** 2 + l3 ** 2) / 2.0
        rho1 = (l2 ** 4 + l3 ** 4) / (l2 ** 2 + l3 ** 2)
        assert rho[0] == pytest.approx(rho0, rel=1e-11)
        assert rho[1] == pytest.approx(rho1, rel=1e-11)
        prof = sr.project_initial(dec, chain, g0)
        assert oracles.ledger_at(prof, 0).rho == pytest.approx(rho0, rel=1e-11)
        assert oracles.ledger_at(prof, 1).rho == pytest.approx(rho1, rel=1e-11)

    def test_roundoff_iterate_ends_the_stream(self):
        # rank one with a non-uniform pi: every nontrivial eigenvalue is 0, but
        # fl(K v) leaves an iterate of energy ~1e-64 that is pure roundoff
        pi = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        chain = sr.build_chain(np.tile(pi, (5, 1)))
        g0 = np.random.default_rng(0).standard_normal(5)
        steps = list(itertools.islice(sr.power_steps(chain, g0), 10))
        assert len(steps) == 1 and steps[0][1] == 0.0

    def test_zero_projection(self, rng):
        chain = random_reversible(5, rng)
        steps = sr.power_steps(chain, np.ones(5))
        with pytest.raises(ZeroProjection):
            next(steps)


class TestErrorIdentity:
    def test_endpoints(self):
        assert oracles.error_identity(1.0) == 0.0
        assert oracles.error_identity(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            oracles.error_identity(0.0)
        with pytest.raises(OutOfRange):
            oracles.error_identity(1.5)

    def test_matrix_path_agreement(self, rng):
        for _ in range(8):
            n = int(rng.integers(6, 31))
            chain = random_reversible(n, rng, lazy=True)
            dec = sr.spectral_decomposition(chain)
            g0 = centered_random_start(chain, rng)
            prof = sr.project_initial(dec, chain, g0)
            _, _, iterates = power_stream(chain, g0, 150)
            slow = prof.slow_index()
            for k in range(0, 150, 5):
                led = oracles.ledger_at(prof, k)
                alpha2 = float(np.exp(led.log_modal_energies[slow] - led.log_energy))
                true_err = sr.eigenvector_error(chain, dec, iterates[k])
                assert abs(true_err - oracles.error_identity(alpha2)) <= 1e-10


class TestObservableVariance:
    def test_single_mode_zero(self):
        prof = sr.profile_from_weights([0.9], [1.0])
        rhos = profile_rho_stream(prof, 3)
        assert oracles.observable_variance(rhos[0], rhos[1]) == 0.0
        assert oracles.gamma(rhos[0], rhos[1]) == 0.0

    def test_hand_case_exact(self, two_mode_profile):
        r0 = oracles.ledger_at(two_mode_profile, 0).rho
        r1 = oracles.ledger_at(two_mode_profile, 1).rho
        vhat = oracles.observable_variance(r0, r1)
        assert abs(vhat - 0.16) <= 1e-15
        assert r0 == pytest.approx(0.41, abs=1e-16)

    def test_matches_spectral_variance(self, rng):
        for _ in range(10):
            prof = random_profile(rng)
            lam_sq = prof.lambdas ** 2
            for k in range(0, 100, 7):
                led = oracles.ledger_at(prof, k)
                led1 = oracles.ledger_at(prof, k + 1)
                vhat = oracles.observable_variance(led.rho, led1.rho)
                spectral = float(np.sum(led.p * lam_sq ** 2) - led.rho ** 2)
                assert abs(vhat - spectral) <= 1e-12

    def test_gamma_nonnegative_along_trajectories(self, rng):
        for _ in range(15):
            prof = random_profile(rng)
            rhos = profile_rho_stream(prof, 60)
            for r0, r1 in zip(rhos, rhos[1:]):
                assert r1 >= r0 - 1e-12
                assert oracles.gamma(r0, r1) >= 0.0

    def test_rejects_decreasing_rho(self):
        with pytest.raises(InvalidRho):
            oracles.observable_variance(0.9, 0.5)
        with pytest.raises(InvalidRho):
            oracles.gamma(0.5, 1.5)


class TestAlphaBounds:
    def test_zero_variance_is_rigid(self):
        bounds = oracles.alpha_bounds_from_variance(0.0, 0.9, 0.2)
        assert bounds.upper == 0.0
        assert bounds.lower == 0.0

    def test_two_mode_sandwich(self):
        alpha, l2, l3 = 0.75, 0.9, 0.1
        prof = sr.profile_from_weights([l2, l3], [alpha, 1 - alpha])
        led = oracles.ledger_at(prof, 0)
        led1 = oracles.ledger_at(prof, 1)
        vhat = oracles.observable_variance(led.rho, led1.rho)
        lower_product = alpha * (1 - alpha) * (l2 ** 2 - l3 ** 2) ** 2
        assert lower_product <= vhat * (1 + 1e-12)
        assert vhat <= (1 - alpha) * l2 ** 4 * (1 + 1e-12)
        bounds = oracles.alpha_bounds_from_variance(vhat, l2, l3)
        assert 1 - alpha <= bounds.upper * (1 + 1e-12)
        assert bounds.lower <= (1 - alpha) * (1 + 1e-12)

    def test_upper_bound_valid_past_half(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            slow = prof.slow_index()
            lam = prof.lambdas
            fast = np.arange(lam.size) != slow
            l2 = lam[slow]
            l3 = float(np.max(np.abs(lam[fast])))
            if l3 == 0.0:
                continue
            for k in range(0, 60, 5):
                led = oracles.ledger_at(prof, k)
                if led.p[slow] < 0.5:
                    continue
                vhat = oracles.observable_variance(led.rho, oracles.ledger_at(prof, k + 1).rho)
                true_fast = float(led.p[fast].sum())
                upper = oracles.alpha_bounds_from_variance(vhat, l2, l3).upper
                assert true_fast <= upper * (1 + 1e-10) + 1e-15


class TestAdaptiveStop:
    def test_rigid_trajectory_stops_at_k_min(self):
        prof = sr.profile_from_weights([0.8], [1.0])
        state = oracles.adaptive_stop(profile_rho_stream(prof, 20), epsilon=0.1, tau=0.5)
        assert state.verdict == "stopped"
        assert state.stopped_at == 3
        assert state.gamma == 0.0      # Gamma of the last pair, the one at the stop

    def test_eta_below_gamma_floor_is_unresolvable(self):
        # eta = 0.25 * 1e-36 / 8 is far below the ~2e-15 that Gamma resolves; on
        # this stream Gamma reads exactly 0 at k = 30 while the error is 1.9e-8
        chain = sr.barbell_chain(clique_size=3, bridge_weight=0.1)
        dec = sr.spectral_decomposition(chain)
        g0 = np.random.default_rng(3).standard_normal(chain.n)
        _, rho, iterates = power_stream(chain, g0, 40)
        with pytest.raises(StreamEnded) as exc:
            oracles.adaptive_stop(rho, epsilon=1e-9, tau=0.5)
        state = exc.value.state
        assert state.verdict == "unresolvable" and state.stopped_at is None
        assert state.gamma == 0.0 and state.eta() < GAMMA_FLOOR
        k = state.steps - 2
        assert math.sqrt(sr.eigenvector_error(chain, dec, iterates[k])) > 1e-9
        # at a resolvable eta the same stream stops, and soundly
        state = oracles.adaptive_stop(rho, epsilon=0.2, tau=0.5)
        err = math.sqrt(sr.eigenvector_error(chain, dec, iterates[state.stopped_at]))
        assert err <= 0.2

    def test_no_estimate_from_a_pair_after_zero_variance(self):
        # Vhat_0 = 0 (rho flat), Vhat_1 > 0: their ratio has no value, so tau
        # is first estimated from the next pair
        state = sr.StoppingState(epsilon=0.1, tau=None)
        for rho in (0.5, 0.5, 0.6):
            state.update(rho)
        assert state.vhat > 0.0 and state.tau_hat is None

    def test_state_does_not_grow(self):
        # 10^5 updates that never stop (Gamma stays above eta to k ~ 121,000):
        # the fold's memory stays flat
        state = sr.StoppingState(epsilon=0.01, tau=0.5)
        rhos = (0.9 - 0.5 * 0.9999 ** k for k in range(100_000))
        tracemalloc.start()
        try:
            for i, r in enumerate(rhos):
                state.update(r)
                if i == 1000:
                    early = tracemalloc.get_traced_memory()[0]
            late = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert state.verdict == "running" and state.steps == 100_000
        assert late - early < 4096

    def test_benchmark_profile_stop_is_sound(self, s8_two_mode):
        tau = 1.0 - (0.70 / 0.95) ** 2
        assert tau == pytest.approx(0.4570637, abs=1e-6)
        state = oracles.adaptive_stop(profile_rho_stream(s8_two_mode, 400),
                                 epsilon=0.1, tau=tau)
        k = state.stopped_at
        alpha2 = oracles.slow_fraction(s8_two_mode, k)
        assert alpha2 >= 0.5
        assert math.sqrt(oracles.error_identity(alpha2)) <= 0.1

    def test_rejects_epsilon_and_tau_outside_unit_interval(self):
        for eps, tau in ((0.0, None), (2.0, None), (0.1, 0.0), (0.1, 5.0)):
            with pytest.raises(InvalidArguments):
                sr.StoppingState(epsilon=eps, tau=tau)
            with pytest.raises(InvalidArguments):
                oracles.adaptive_stop([0.5, 0.6], epsilon=eps, tau=tau)

    def test_stream_ended(self, s8_two_mode):
        with pytest.raises(StreamEnded) as exc:
            oracles.adaptive_stop(profile_rho_stream(s8_two_mode, 5),
                             epsilon=0.01, tau=0.45)
        assert exc.value.state.verdict == "running"

    def test_tau_collapse_on_near_degenerate_pair(self):
        prof = sr.profile_from_weights([0.9, 0.9 * (1 - 1e-7)], [0.2, 0.8])
        with pytest.raises(StreamEnded) as exc:
            oracles.adaptive_stop(profile_rho_stream(prof, 3000), epsilon=0.05)
        assert exc.value.state.verdict == "tau-collapse"

    @staticmethod
    def _collapsed():
        """The fold of a near-degenerate pair's stream up to its collapse, and
        what the collapsing update returned."""
        prof = sr.profile_from_weights([0.9, 0.9 * (1 - 1e-7)], [0.2, 0.8])
        state = sr.StoppingState(epsilon=0.05, tau=None)
        for r in profile_rho_stream(prof, 3000):
            pair = state.update(r)
            if state.verdict != "running":
                return state, pair

    def test_collapse_returns_its_pair(self):
        state, pair = self._collapsed()
        assert state.verdict == "tau-collapse" and state.stopped_at is None
        assert state.detail
        assert pair == (state.gamma, state.vhat) and pair[0] is not None

    def test_collapse_is_final(self):
        # after the collapse the stream turns rigid: Gamma = 0 meets any eta,
        # at a supplied tau as well, yet no later update settles anything
        state, _ = self._collapsed()
        settled = (state.verdict, state.detail, state.steps, state.gamma, state.tau_hat)
        fresh = sr.StoppingState(epsilon=0.05, tau=0.5)
        for _ in range(50):
            assert state.update(0.81) is None
            fresh.update(0.81)
        assert fresh.verdict == "stopped"
        assert (state.verdict, state.detail, state.steps, state.gamma,
                state.tau_hat) == settled
        assert state.stopped_at is None

    def test_online_tau_converges(self, rng):
        # distinct dominant pair with a weak extra mode
        prof = sr.profile_from_weights([0.95, 0.70, 0.30], [0.2, 0.7, 0.1])
        L001 = sr.rigidity_time(prof, 0.01).bound
        horizon = int(3 * L001)
        state = sr.StoppingState(epsilon=1e-6, tau=None)
        for r in profile_rho_stream(prof, horizon + 2):
            state.update(r)
            assert state.verdict != "tau-collapse", "spurious collapse"
        target = 1.0 - 0.70 / 0.95
        assert state.tau_hat == pytest.approx(target, rel=0.05)

    def test_soundness_sweep(self, rng):
        stops = 0
        for _ in range(30):
            n = int(rng.integers(6, 25))
            chain = random_reversible(n, rng, lazy=True)
            dec = sr.spectral_decomposition(chain)
            lam = dec.eigenvalues
            l2 = lam[1]
            l3 = max(abs(lam[2]), abs(lam[-1]))
            if l2 - l3 < 1e-6:
                continue
            tau = 1.0 - (l3 / l2) ** 2
            g0 = centered_random_start(chain, rng)
            _, rho, iterates = power_stream(chain, g0, 300)
            # at eps = 1e-6 and 1e-12 eta is below Gamma's float floor for every
            # tau: those runs must end unresolvable, never in an unsound stop
            for eps in (0.2, 0.1, 1e-6, 1e-12):
                try:
                    state = oracles.adaptive_stop(rho, epsilon=eps, tau=tau)
                except StreamEnded:
                    continue
                k = state.stopped_at
                err = math.sqrt(sr.eigenvector_error(chain, dec, iterates[k]))
                assert err <= eps
                stops += 1
        assert stops >= 20
