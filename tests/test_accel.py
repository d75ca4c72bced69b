import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax.errors import InvalidArguments, InvalidInterval
from specrelax.rigidity import split_slow_fast

import oracles
from conftest import random_profile


def t4_monomial(x):
    return 8.0 * x ** 4 - 8.0 * x ** 2 + 1.0


class TestChebyshevT:
    def test_degree_four_monomial_expansion(self):
        for x in (-1.3, -0.4, 0.0, 0.97, 1 / 0.95, 2.5):
            assert sr.chebyshev_T(4, x) == pytest.approx(t4_monomial(x), rel=1e-13)

    def test_negative_degree_is_refused(self):
        with pytest.raises(InvalidArguments):
            sr.chebyshev_T(-1, 0.5)

    def test_value_above_one(self):
        assert sr.chebyshev_T(4, 1 / 0.95) == pytest.approx(1.9576353772607624,
                                                            rel=1e-12)

    def test_fixed_point_at_one(self):
        for m in range(12):
            assert sr.chebyshev_T(m, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_identity(self):
        theta = math.pi / 5
        assert sr.chebyshev_T(3, math.cos(theta)) == pytest.approx(
            math.cos(3 * theta), abs=1e-14)

    @given(st.integers(min_value=0, max_value=30),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_cosine_form_inside_unit_interval(self, m, x):
        assert sr.chebyshev_T(m, x) == pytest.approx(
            math.cos(m * math.acos(x)), abs=1e-12)


class TestBuildPlan:
    def test_simple_mode_guarantee_value(self):
        plan = sr.build_Qm(4, a=-0.95, b=0.95)
        assert 1 / abs(plan.norm_value) == pytest.approx(0.510820355831155, rel=1e-12)
        assert plan.interval == (-0.95, 0.95)
        assert plan(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_degree_one_interval_is_affine(self):
        plan = sr.build_Qm(1, a=-1.0, b=0.0)
        assert 1 / abs(plan.norm_value) == pytest.approx(1.0 / 3.0, rel=1e-14)
        for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert plan(lam) == pytest.approx((2 * lam + 1) / 3, abs=1e-14)

    def test_normalization_across_modes_and_degrees(self):
        for m in (0, 1, 2, 5, 9):
            assert sr.build_Qm(m, a=-0.8, b=0.6)(1.0) == pytest.approx(1.0, abs=1e-14)
            assert sr.build_Qm(m, a=-0.9, b=0.9)(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_degree_zero(self):
        plan = sr.build_Qm(0, a=-0.5, b=0.5)
        assert abs(plan.norm_value) == 1.0
        assert plan(0.3) == 1.0

    def test_interval_guards(self):
        with pytest.raises(InvalidInterval):
            sr.build_Qm(2, a=0.5, b=0.5)
        with pytest.raises(InvalidInterval):
            sr.build_Qm(2, a=0.0, b=1.0)
        with pytest.raises(InvalidInterval):
            sr.build_Qm(2, a=-1.0, b=1.0)


class TestMinimaxVerify:
    def test_grid_max_and_equioscillation(self):
        plan = sr.build_Qm(4, a=-1.0, b=0.7)
        report = oracles.minimax_verify(plan)
        assert report.grid_max <= (1 + 1e-10) / abs(plan.norm_value)
        assert report.grid_max == pytest.approx(1 / abs(plan.norm_value), rel=1e-10)
        assert report.equioscillation_count >= 5

    def test_no_rival_beats_the_plan(self):
        plan = sr.build_Qm(3, a=-1.0, b=0.6)
        report = oracles.minimax_verify(plan, rival_samples=100, seed=7)
        assert report.optimality_margin >= 1.0 - 1e-8

    def test_degenerate_degree_zero(self):
        plan = sr.build_Qm(0, a=-0.9, b=0.4)
        report = oracles.minimax_verify(plan, rival_samples=10)
        assert report.grid_max == 1.0
        assert report.eps_m == 1.0


class TestAcceleratedTrajectories:
    def test_degree_one_symmetric_plan_is_plain_step(self, s8_two_mode):
        plan = sr.build_Qm(1, a=-0.7, b=0.7)
        stepped = oracles.accelerated_profile_step(s8_two_mode, plan)
        led = oracles.ledger_at(stepped, 0)
        led_plain = oracles.ledger_at(s8_two_mode, 1)
        assert led.log_energy == pytest.approx(led_plain.log_energy, rel=1e-12)
        np.testing.assert_allclose(led.p, led_plain.p, atol=1e-14)

    def test_one_accelerated_step_beats_four_plain(self):
        prof = sr.profile_from_weights([0.95, 0.70], [0.1, 0.9])
        plan = sr.build_Qm(4, a=-0.7, b=0.7)
        stepped = oracles.accelerated_profile_step(prof, plan)
        slow = stepped.slow_index()
        led = oracles.ledger_at(stepped, 0)
        alpha_acc = float(np.exp(led.log_modal_energies[slow] - led.log_energy))
        alpha_plain = oracles.slow_fraction(prof, 4)
        assert alpha_acc > alpha_plain

    def test_simple_mode_cannot_purify_this_spectrum(self):
        # |Q(0.70)| nearly attains the guarantee at the fast eigenvalue, so the
        # lambda2-normalized variant contracts slow and fast almost equally;
        # the guarantee on [-lambda2, lambda2] itself still holds
        plan = sr.build_Qm(4, a=-0.95, b=0.95)
        assert abs(plan(0.70)) == pytest.approx(0.5032, abs=1e-3)
        assert abs(plan(0.70)) <= 1 / abs(plan.norm_value)
        xs = np.linspace(-0.95, 0.95, 2001)
        assert np.max(np.abs(plan(xs))) <= (1 + 1e-10) / abs(plan.norm_value)

    def test_mode_at_polynomial_zero_is_dropped(self):
        plan = sr.build_Qm(1, a=-0.5, b=0.5)   # Q(lambda) = lambda
        prof = sr.profile_from_weights([0.9, 0.0], [1.0, 1.0])
        stepped = oracles.accelerated_profile_step(prof, plan)
        assert stepped.n_modes == 1
        assert stepped.lambdas[0] == pytest.approx(0.9)

    def test_mapped_spectrum_reuses_ledger_machinery(self, s8_two_mode):
        plan = sr.build_Qm(4, a=-0.3, b=0.7)
        mapped = sr.accelerated_spectrum(s8_two_mode, plan)
        # K accelerated steps = ledger at step K of the mapped profile
        stepped = s8_two_mode
        for K in range(1, 4):
            stepped = oracles.accelerated_profile_step(stepped, plan)
            led_iter = oracles.ledger_at(stepped, 0)
            led_map = oracles.ledger_at(mapped, K)
            assert led_iter.log_energy == pytest.approx(led_map.log_energy,
                                                        rel=1e-12)

    def test_interval_must_cover_fast_spectrum(self):
        # |Q| grows fast outside the interval: a mode at -0.95 under a plan
        # for [-0.3, 0.5] maps beyond (-1, 1) and cannot form a trajectory
        prof = sr.profile_from_weights([0.9, -0.95], [1.0, 1.0])
        plan = sr.build_Qm(3, a=-0.3, b=0.5)
        assert abs(plan(-0.95)) > 1.0
        with pytest.raises(InvalidInterval):
            sr.accelerated_spectrum(prof, plan)

    def test_acceleration_dominance_sweep(self, rng):
        for _ in range(25):
            prof = random_profile(rng, ratio_bounds=(0.3, 0.85))
            slow = prof.slow_index()
            fast = np.delete(prof.lambdas, slow)
            lo, hi = float(fast.min()), float(np.max(np.abs(fast)))
            if lo >= hi:
                lo = -hi
            m = int(rng.integers(2, 6))
            plan = sr.build_Qm(m, a=lo, b=hi)
            mapped = sr.accelerated_spectrum(prof, plan)
            led_acc = oracles.ledger_at(mapped, 1)
            led_plain = oracles.ledger_at(prof, m)
            a_acc = np.exp(led_acc.log_modal_energies[slow]
                           - led_acc.log_energy)
            a_plain = np.exp(led_plain.log_modal_energies[slow]
                             - led_plain.log_energy)
            assert a_acc >= a_plain - 1e-12


class TestAcceleratedRigidityBound:
    def test_identity_plan_reduces_to_plain_bound(self, s8_two_mode):
        plan = sr.build_Qm(1, a=-0.7, b=0.7)
        out = oracles.accelerated_rigidity_bound(plan, lambda2=0.95, c2_sq=0.1,
                                            R0=0.9, delta=0.1)
        L = sr.rigidity_bound(split_slow_fast(s8_two_mode), 0.1)
        assert out.accel_steps == pytest.approx(L + 1.0, rel=1e-10)
        assert out.q_fast == pytest.approx(0.7, rel=1e-12)
        assert out.q_slow == pytest.approx(0.95, rel=1e-12)

    def test_scan_respects_bound(self, s8_two_mode):
        plan = sr.build_Qm(4, a=-0.7, b=0.7)
        out = oracles.accelerated_rigidity_bound(plan, lambda2=0.95, c2_sq=0.1,
                                            R0=0.9, delta=0.1)
        mapped = sr.accelerated_spectrum(s8_two_mode, plan)
        report = sr.rigidity_time(mapped, 0.1)
        assert report.t_rigid is not None
        assert report.t_rigid <= math.ceil(out.accel_steps)

    def test_higher_degree_improves_per_step_rate(self):
        # the crossing-rate part of the bound, m * (steps - 1), tightens with
        # the degree; the trailing +1 is a per-accelerated-step integerization
        # whose plain-equivalent cost m can dominate once one step suffices
        rates = []
        for m in (2, 4, 6, 8):
            plan = sr.build_Qm(m, a=-0.7, b=0.7)
            out = oracles.accelerated_rigidity_bound(plan, lambda2=0.95, c2_sq=0.1,
                                                R0=0.9, delta=0.1)
            rates.append(m * (out.accel_steps - 1.0))
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
