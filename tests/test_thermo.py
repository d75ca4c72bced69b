import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax.errors import OutOfRange
from specrelax.presets import resolve_preset
from specrelax.thermo import covariance_rows, entropy_rows, release_rows

import oracles
from conftest import entropy_oracle, random_profile
from oracles import NonConvergent, helmholtz_like

LN2 = math.log(2.0)


def cov_scale(forms):
    """Conditioning scale of the covariance sum, for relative comparisons;
    `forms` is an `oracles.covariance_forms` triple."""
    return max(forms.term_scale, abs(forms.cov), 1e-30)


class TestSpectralEntropy:
    def test_point_mass(self):
        assert entropy_rows(np.array([1.0])) == 0.0
        assert entropy_rows(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_point_mass_is_positive_zero(self):
        # -0.0 == 0.0, so the sign is checked on its own: a -0.0 prints as "-0"
        assert math.copysign(1.0, entropy_rows(np.array([1.0]))) == 1.0

    def test_fair_coin(self):
        assert entropy_rows(np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)

    def test_uniform(self):
        for m in (3, 7, 20):
            assert entropy_rows(np.full(m, 1.0 / m)) == pytest.approx(math.log(m), abs=1e-12)


class TestEntropyBalance:
    def test_single_mode_all_zero(self):
        prof = sr.profile_from_weights([0.9], [2.0])
        bal = oracles.entropy_balance(prof, 4)
        assert bal.dS == 0.0
        assert bal.cov == 0.0
        assert bal.kl == 0.0

    def test_two_mode_hand_values(self, two_mode_profile):
        bal = oracles.entropy_balance(two_mode_profile, 0)
        S1 = entropy_oracle([81 / 82, 1 / 82])
        assert S1 == pytest.approx(0.06586093594147827, abs=1e-15)
        assert bal.dS == pytest.approx(S1 - LN2, abs=1e-13)
        assert bal.cov == pytest.approx(0.0, abs=1e-15)  # equal weights
        assert bal.kl == pytest.approx(LN2 - S1, abs=1e-12)
        assert bal.residual <= 1e-12

    def test_residual_sweep_fifty_modes(self, rng):
        lam = np.concatenate([[0.95, 0.85], rng.uniform(-0.6, 0.6, 48)])
        prof = sr.profile_from_weights(lam, rng.uniform(0.05, 2.0, 50))
        for k in range(101):
            assert oracles.entropy_balance(prof, k).residual <= 1e-11

    def test_residual_random_profiles(self, rng):
        for _ in range(30):
            prof = random_profile(rng)
            for k in range(0, 60, 4):
                assert oracles.entropy_balance(prof, k).residual <= 1e-11


class TestCanonicalCovariance:
    def test_equal_weights_exactly_zero(self):
        prof = sr.profile_from_weights([0.9, 0.4], [1.3, 1.3])
        forms = oracles.covariance_forms(prof, 0)
        assert forms.cov == 0.0
        assert forms.cov_fluxforce == 0.0

    def test_benchmark_sign_flip(self, s8_two_mode):
        cov = covariance_rows(sr.ledger_block(s8_two_mode, [0, 8]), 0)[0]
        assert cov[0] > 0 and cov[1] < 0        # alpha2 = 0.1, then alpha2 > 1/2

    def test_three_forms_agree(self, rng):
        for _ in range(40):
            prof = random_profile(rng)
            for k in range(0, 40, 3):
                forms = oracles.covariance_forms(prof, k)
                scale = cov_scale(forms)
                assert abs(forms.cov - forms.cov_moment) <= 1e-11 * scale
                assert abs(forms.cov - forms.cov_fluxforce) <= 1e-11 * scale

    def test_flux_force_terms_structure(self, s8_two_mode):
        cov, fluxes, affinities = (c[0] for c in covariance_rows(
            sr.ledger_block(s8_two_mode, [0]), s8_two_mode.slow_index()))
        led = oracles.ledger_at(s8_two_mode, 0)
        # fast flux: p_j (rho - lambda_j^2); affinity ln(n_j / n_2)
        J = led.p[1] * (led.rho - 0.70 ** 2)
        A = math.log(0.9 / 0.1)
        assert fluxes[1] == pytest.approx(J, rel=1e-12)
        assert affinities[1] == pytest.approx(A, rel=1e-12)
        assert cov == pytest.approx(J * A, rel=1e-12)

    def test_sign_law_on_alpha_grid(self):
        # two modes, weights (alpha, 1 - alpha) at step 0
        for alpha in np.linspace(0.01, 0.99, 99):
            prof = sr.profile_from_weights([0.9, 0.2], [alpha, 1.0 - alpha])
            cov = covariance_rows(sr.ledger_block(prof, [0]), prof.slow_index())[0][0]
            ref = math.log((1.0 - alpha) / alpha)
            if abs(ref) < 1e-14:
                assert abs(cov) < 1e-16
            else:
                assert math.copysign(1, cov) == math.copysign(1, ref)


class TestTwoModeTransition:
    def test_symmetric_start(self):
        result = oracles.two_mode_transition(0.9, 0.3, 1.0, 1.0)
        assert result.k_star == 0
        assert result.k_real == pytest.approx(0.0, abs=1e-15)
        assert result.entropy_at_crossing == pytest.approx(LN2, abs=1e-15)

    def test_benchmark_crossing(self):
        result = oracles.two_mode_transition(0.95, 0.70, 0.1, 0.9)
        assert result.k_star == 4
        assert result.k_real == pytest.approx(3.597505908697315, rel=1e-12)
        assert result.entropy_at_crossing == pytest.approx(LN2, abs=1e-12)

    def test_heavy_slow_start(self):
        result = oracles.two_mode_transition(0.9, 0.1, 1.0, 1.0)
        assert result.k_star == 0
        prof = sr.profile_from_weights([0.9, 0.1], [1.0, 1.0])
        assert covariance_rows(sr.ledger_block(prof, [0]), prof.slow_index())[0][0] == 0.0


class TestGeneralThreshold:
    def test_benchmark_threshold(self, s8_two_mode):
        result = oracles.general_threshold(s8_two_mode)
        assert result.delta_star == pytest.approx(1.0 - 0.49 / 0.9025, rel=1e-12)
        assert result.delta_star == pytest.approx(0.4570637, abs=1e-6)

    def test_well_separated_regime(self):
        prof = sr.profile_from_weights([0.95, 0.50], [0.5, 0.5])
        result = oracles.general_threshold(prof)
        assert result.delta_star == 0.5

    def test_single_mode(self):
        prof = sr.profile_from_weights([0.8], [1.0])
        result = oracles.general_threshold(prof)
        assert result.delta_star == 0.5
        assert result.t_threshold == 0
        for k in range(5):
            assert entropy_oracle(oracles.ledger_at(prof, k).p) == 0.0

    def test_post_threshold_monotone_decay(self, rng):
        # light version of the acceptance sweep
        for _ in range(10):
            prof = random_profile(rng)
            result = oracles.general_threshold(prof)
            t = result.t_threshold
            for k in range(t, t + 60):
                bal = oracles.entropy_balance(prof, k)
                assert bal.cov < 0
                assert bal.dS < 0


class TestClausius:
    def test_single_mode_exact(self):
        prof = sr.profile_from_weights([0.7], [1.0])
        result = oracles.clausius_check(prof)
        assert result.lhs == 0.0
        assert result.rhs == 0.0
        assert result.steps_used == 0

    def test_two_mode_fast_collapse(self, two_mode_profile):
        result = oracles.clausius_check(two_mode_profile)
        assert result.residual <= 1e-10
        assert result.steps_used <= 12

    def test_truncation_bounded_by_remaining_entropy(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            result = oracles.clausius_check(prof)
            assert result.residual <= max(1e-8, 10 * result.entropy_at_stop)

    def test_degenerate_cluster_rejected(self):
        prof = sr.profile_from_weights([0.8, 0.8], [1.0, 1.0])
        with pytest.raises(NonConvergent):
            oracles.clausius_check(prof)


class TestSecondLaw:
    def test_two_mode_hand_values(self, two_mode_profile):
        step = oracles.G_step(two_mode_profile, 0)
        assert step.G_k == pytest.approx(2 * LN2, rel=1e-14)
        assert step.G_k1 == pytest.approx(0.05400596747201218, rel=1e-12)
        assert step.A == pytest.approx(0.8179136730607354, rel=1e-12)
        assert step.B == pytest.approx(0.5143747205871431, rel=1e-12)
        assert step.G_k - step.G_k1 == pytest.approx(step.A + step.B, rel=1e-12)

    def test_helmholtz_negative_control(self, two_mode_profile):
        F0 = helmholtz_like(two_mode_profile, 0)
        F1 = helmholtz_like(two_mode_profile, 1)
        assert F0 == pytest.approx(0.6137056388801094, abs=1e-12)
        assert F1 == pytest.approx(0.7659940325279879, abs=1e-12)
        assert F1 > F0  # not monotone, unlike G

    def test_energy_beyond_the_doubles_is_refused(self):
        prof = sr.SpectralProfile(lambdas=[0.9, 0.5], log_weights=[800.0, 0.0])
        with pytest.raises(OutOfRange):
            oracles.G_step(prof, 0)
        # by k = 2000, E = e^800 0.81^k is back inside the doubles
        step = oracles.G_step(prof, 2000)
        assert all(math.isfinite(x) for x in (step.G_k, step.G_k1, step.A, step.B))

    def test_single_mode_identically_zero(self):
        prof = sr.profile_from_weights([0.6], [5.0])
        step = oracles.G_step(prof, 2)
        assert step.G_k == 0.0 and step.G_k1 == 0.0
        assert step.A == 0.0 and step.B == 0.0

    def test_monotone_with_nonnegative_split(self, rng):
        for _ in range(25):
            prof = random_profile(rng)
            G0 = oracles.G_step(prof, 0).G_k
            for k in range(0, 80, 2):
                step = oracles.G_step(prof, k)
                E_k = oracles.ledger_at(prof, k).energy
                # the split's conditioning scale is the energy, not G itself;
                # B sums nonnegative terms, so it is never below 0
                assert step.A >= 0.0
                assert step.B >= 0.0
                assert step.G_k1 <= step.G_k + 1e-12 * max(G0, 1.0)
                gap = step.G_k - step.G_k1
                assert abs(gap - (step.A + step.B)) <= (
                    1e-11 * max(gap, step.G_k) + 1e-14 * E_k)

    def test_release_B_against_mpmath(self):
        # B = E (sum p x ln x - rho ln rho), x = lambda^2, is a Jensen gap: it
        # is >= 0, and it falls far below E once one mode holds the energy.
        # A sum of terms of both signs printed B < 0 on `simulate paper-s8
        # --steps 1000` from k = 64 and `simulate cycle-5 --seed 3` from k = 18.
        cases = [("paper-s8", 0), ("cycle-5", 3), ("cycle-20", 1),
                 ("barbell-metastable", 2), ("s8-two-mode", 0)]
        profiles = []
        for name, seed in cases:    # as the CLI builds them
            obj = resolve_preset(name, seed=seed)
            if not isinstance(obj, sr.SpectralProfile):
                start = np.random.default_rng(seed).standard_normal(obj.n)
                obj = sr.project_initial(sr.spectral_decomposition(obj), obj, start)
            profiles.append(obj)
        rng = np.random.default_rng(5)
        for _ in range(6):
            m = int(rng.integers(2, 30))
            profiles.append(sr.SpectralProfile(lambdas=rng.uniform(-0.99, 0.99, m),
                                               log_weights=rng.normal(0.0, 3.0, m)))
        cells = [(prof, [0, 1, 5, 20, 64, 150, 300]) for prof in profiles]
        # equal weights on lambda = 0.9 and 0.9 (1 - eps): x - rho is far below x,
        # and B was off by 1e-12, 3e-8 and 1e-4 relative from the rounding of
        # lambda^2 and the cancellation of x ln(x/rho) - (x - rho) to rho u^2/2
        for eps in (1e-4, 1e-8, 1e-12):
            cells.append((sr.SpectralProfile(lambdas=[0.9, 0.9 * (1 - eps)],
                                             log_weights=[0.0, 0.0]), [0, 5, 50]))
        worst = 0.0
        with mpmath.workdps(400):
            for prof, ks in cells:
                _, B = release_rows(sr.ledger_block(prof, ks))
                lam = [mpmath.mpf(float(v)) for v in prof.lambdas]
                x = [v ** 2 for v in lam]
                for k, b in zip(ks, B.tolist()):
                    n = [mpmath.exp(float(w)) * xi ** k for w, xi in zip(prof.log_weights, x)]
                    E = mpmath.fsum(n)
                    rho = mpmath.fsum(ni * xi for ni, xi in zip(n, x)) / E
                    ref = mpmath.fsum(ni * xi * mpmath.log(xi / rho)   # 0 ln 0 = 0
                                      for ni, xi in zip(n, x) if ni * xi != 0)
                    assert b >= 0.0 and ref > 0
                    worst = max(worst, float(abs(b - ref) / ref))
        assert worst <= 1e-12

    def test_two_phase_sign_condition(self, rng):
        # entropy rises exactly when the covariance outweighs rho * KL
        for _ in range(20):
            prof = random_profile(rng)
            for k in range(0, 40, 3):
                bal = oracles.entropy_balance(prof, k)
                led = oracles.ledger_at(prof, k)
                lhs = bal.dS
                rhs = bal.cov - led.rho * bal.kl
                if lhs > 1e-11:
                    assert rhs >= -1e-11
                if lhs < -1e-11:
                    assert rhs <= 1e-11


class TestEntropyDecomposition:
    def test_two_mode_no_fast_disorder(self, s8_two_mode):
        for k in (0, 4, 9):
            split = oracles.entropy_decomposition(s8_two_mode, k)
            assert split.H_fast == pytest.approx(0.0, abs=1e-15)
            S = entropy_oracle(oracles.ledger_at(s8_two_mode, k).p)
            assert split.total == pytest.approx(S, abs=1e-13)

    def test_half_slow_uniform_fast(self):
        m = 8
        lam = np.concatenate([[0.9], np.full(m, 0.5)])
        w = np.concatenate([[0.5], np.full(m, 0.5 / m)])
        prof = sr.profile_from_weights(lam, w)
        split = oracles.entropy_decomposition(prof, 0)
        assert split.alpha2 == pytest.approx(0.5, abs=1e-14)
        assert split.total == pytest.approx(LN2 + 0.5 * math.log(m), abs=1e-12)

    def test_single_mode(self):
        prof = sr.profile_from_weights([0.4], [1.0])
        split = oracles.entropy_decomposition(prof, 0)
        assert split.alpha2 == 1.0
        assert split.H_binary == 0.0
        assert split.H_fast == 0.0

    def test_identity_on_random_profiles(self, rng):
        for _ in range(30):
            prof = random_profile(rng)
            for k in range(0, 30, 5):
                split = oracles.entropy_decomposition(prof, k)
                S = entropy_oracle(oracles.ledger_at(prof, k).p)
                assert abs(split.total - S) <= 1e-12 * max(1.0, S)


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(raw):
    p = np.array(raw) / np.sum(raw)
    s = entropy_oracle(p)
    assert -1e-12 <= s <= math.log(len(raw)) + 1e-12
