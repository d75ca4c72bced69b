import math
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax import rigidity
from specrelax.errors import NoSlowMode

import oracles
from conftest import random_profile, random_reversible
from oracles import PreconditionUnmet, TooShort


class TestSlowFraction:
    def test_single_mode_is_one(self):
        prof = sr.profile_from_weights([0.8], [3.0])
        for k in (0, 5, 50):
            assert oracles.slow_fraction(prof, k) == pytest.approx(1.0, abs=1e-15)

    def test_benchmark_start(self, s8_two_mode):
        assert oracles.slow_fraction(s8_two_mode, 0) == pytest.approx(0.1, abs=1e-14)

    def test_half_crossing_at_four(self, s8_two_mode):
        # real crossing solves (19/14)^(2k) = 9, k ~ 3.5975
        assert oracles.slow_fraction(s8_two_mode, 3) < 0.5
        assert oracles.slow_fraction(s8_two_mode, 4) >= 0.5

    def test_missing_slow_mode_flagged(self, rng):
        chain = random_reversible(6, rng)
        dec = sr.spectral_decomposition(chain)
        # start orthogonal to the slow eigenvector: its weight is pruned
        g0 = dec.eigenvectors[:, 2] + 0.5 * dec.eigenvectors[:, 3]
        prof = sr.project_initial(dec, chain, g0)
        with pytest.raises(NoSlowMode):
            oracles.slow_fraction(prof, 0)


class TestRigidityBoundL:
    @staticmethod
    def bound(lambdas, weights, delta):
        prof = sr.profile_from_weights(lambdas, weights)
        return sr.rigidity_bound(rigidity.split_slow_fast(prof), delta)

    def test_already_rigid(self):
        assert self.bound([0.9], [1.0], 0.1) == 0.0
        assert self.bound([0.9, 0.5], [1.0, 0.05], 0.1) == 0.0

    def test_benchmark_value(self, s8_two_mode):
        L = sr.rigidity_bound(rigidity.split_slow_fast(s8_two_mode), 0.1)
        assert L == pytest.approx(math.log(90) / (2 * math.log(19 / 14)), rel=1e-12)
        assert L == pytest.approx(7.3675, abs=1e-3)

    def test_degenerate_pair_infinite(self):
        assert self.bound([0.5, 0.5], [1.0, 1.0], 0.1) == math.inf

    def test_absolute_value_convention(self):
        # a negative fast eigenvalue enters through its magnitude
        a = self.bound([0.9, -0.6], [1.0, 1.0], 0.2)
        b = self.bound([0.9, 0.6], [1.0, 1.0], 0.2)
        assert a == b


class TestRigidityTime:
    def test_benchmark_crossing(self, s8_two_mode):
        report = sr.rigidity_time(s8_two_mode, 0.1)
        assert report.t_rigid == 8
        assert report.bound == pytest.approx(7.367518, abs=1e-3)
        alpha = sr.ledger_block(s8_two_mode, range(9)).p[:, s8_two_mode.slow_index()]
        assert alpha[7] < 0.9 <= alpha[8]
        assert report.ratio == pytest.approx(0.70 / 0.95, rel=1e-12)
        assert report.init_ratio == pytest.approx(9.0, rel=1e-12)

    def test_degenerate_cycle_pair_never_rigid(self):
        lam = math.cos(2 * math.pi / 5)
        prof = sr.profile_from_weights([lam, lam], [1.0, 1.0])
        report = sr.rigidity_time(prof, 0.1)
        assert report.t_rigid is None
        assert report.bound == math.inf
        assert rigidity.split_slow_fast(prof).degenerate

    def test_ceiling_met_to_the_last_ulp_is_reached(self):
        # the lambda = 0 mode dies at k = 1, where the tied pair holds exactly
        # 1 - delta = 1/2 in the ledger; the tied pair's share computed apart,
        # exp(lw_slow - logaddexp(lw_tied)), rounds to 0.49999999999999994 and
        # must not decide it
        prof = sr.SpectralProfile(lambdas=[0.1, 0.1, 0.0], log_weights=[1.0, 1.0, 0.0])
        assert sr.ledger_block(prof, [1]).p.tolist() == [[0.5, 0.5, 0.0]]
        assert sr.rigidity_time(prof, 0.5).t_rigid == 1

    def test_complete_graph_terminal(self):
        prof = sr.profile_from_weights([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        report = sr.rigidity_time(prof, 0.25)
        assert report.t_rigid == 1

    def test_dominating_negative_mode_diagnosed(self):
        prof = sr.profile_from_weights([0.3, -0.8], [1.0, 1.0])
        report = sr.rigidity_time(prof, 0.1)
        assert report.t_rigid is None
        assert report.ratio > 1 and "peaks below" in report.diagnostic

    def test_born_rigid(self):
        prof = sr.profile_from_weights([0.9, 0.2], [1.0, 1e-9])
        report = sr.rigidity_time(prof, 0.3)
        assert report.t_rigid == 0

    def test_delta_monotonicity(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            ts = [sr.rigidity_time(prof, d).t_rigid
                  for d in (0.4, 0.2, 0.1, 0.05, 0.01)]
            assert all(t is not None for t in ts)
            assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_alpha_converges_past_bound(self, rng):
        for _ in range(10):
            prof = random_profile(rng, ratio_bounds=(0.3, 0.8))
            report = sr.rigidity_time(prof, 0.01)
            k_far = 4 * math.ceil(report.bound)
            assert oracles.slow_fraction(prof, k_far) >= 0.99


def scan_oracle(prof, delta, cap):
    """First k in 0..cap whose fast share, as the search reads it, is <= delta,
    testing every step."""
    hit = np.flatnonzero(rigidity.fast_share(prof, range(cap + 1))[0] <= delta)
    return int(hit[0]) if hit.size else None


@st.composite
def search_profiles(draw):
    """Profiles around a slow eigenvalue of any magnitude down to 1e-300."""
    lam_s = 10.0 ** draw(st.floats(-300.0, -1e-6))
    modes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["ratio", "near-tie", "tie", "above", "tiny", "zero"]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind == "ratio":
            modes.append(sign * lam_s * draw(st.floats(0.0, 1.0)))
        elif kind == "near-tie":        # lambda3 -> lambda2
            modes.append(sign * lam_s * (1.0 - 10.0 ** draw(st.floats(-15.0, -1.0))))
        elif kind == "tie":
            modes.append(sign * lam_s)
        elif kind == "above":           # negative mode up to DEGENERACY_TOL above lam_s
            modes.append(-(lam_s + draw(st.floats(0.0, rigidity.DEGENERACY_TOL))))
        elif kind == "tiny":
            modes.append(sign * max(lam_s * 10.0 ** draw(st.floats(-300.0, 0.0)), 1e-300))
        else:
            modes.append(0.0)
    lam = np.array([lam_s, *modes])
    log_w = np.array(draw(st.lists(st.floats(-700.0, 700.0), min_size=lam.size,
                                   max_size=lam.size)))
    return sr.SpectralProfile(lambdas=lam, log_weights=log_w)


class TestRigiditySearch:
    """The O(log T) search against a scan of every step."""

    @given(search_profiles(),
           st.one_of(st.sampled_from([0.5, 0.3, 1e-2, 1e-6, 1e-12]),
                     st.floats(1e-12, 0.99)),
           st.integers(1, 3000))
    @example(sr.profile_from_weights([1e-11, -1.1e-11, 5e-12], [1.0, 0.05, 30.0]), 0.3, 3000)
    @example(sr.profile_from_weights([1e-200, 5e-201], [1.0, 100.0]), 0.01, 3000)
    @example(sr.profile_from_weights([0.5, -0.6, 0.1], [1.0, 1e-3, 10.0]), 0.3, 3000)
    @example(sr.SpectralProfile(lambdas=[0.5, 0.1], log_weights=[-700.0, 700.0]), 0.3, 3000)
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_matches_the_step_by_step_scan(self, prof, delta, cap):
        # the search's cap is max(DEFAULT_CAP, 10 ceil(L)): with DEFAULT_CAP at the
        # drawn cap it may still search past it where L is finite
        with patch.object(rigidity, "DEFAULT_CAP", cap):
            report = sr.rigidity_time(prof, delta)
        expected = scan_oracle(prof, delta, cap)
        if expected is None:
            assert report.t_rigid is None or report.t_rigid > cap
        else:
            assert report.t_rigid == expected

    @staticmethod
    def interval_profile(u2_scale):
        # f(k) = u1 2.25^k + u2 0.25^k meets delta/(1 - delta) only at k = 6, 7
        # when u2_scale = 1/2.5, and never when u2_scale = 2; galloping past 7
        # must still find 6
        c = 0.3 / 0.7
        return sr.profile_from_weights([1e-12, -1.5e-12, 0.5e-12],
                                       [1.0, 2.25 ** -6 * c / 3, 4 ** 6 * c * u2_scale])

    def test_rising_mode_interval(self):
        prof = self.interval_profile(1 / 2.5)
        assert scan_oracle(prof, 0.3, 100) == 6
        assert sr.rigidity_time(prof, 0.3).t_rigid == 6
        with patch.object(rigidity, "DEFAULT_CAP", 5):    # L is inf: the cap is 5
            assert sr.rigidity_time(prof, 0.3).t_rigid is None

    def test_rising_mode_peak_below_threshold(self):
        prof = self.interval_profile(2.0)
        report = sr.rigidity_time(prof, 0.3)
        assert scan_oracle(prof, 0.3, 1000) is None
        assert report.t_rigid is None and "peaks below" in report.diagnostic

    def test_rise_hidden_by_a_saturated_share(self):
        # the fast share dips to 1/3 at k = 5 between reads of 1.0 at k <= 2 and
        # k >= 7, where a dominating mode takes over: f rises at 7 while both
        # shares round to 1, so a rise read from the shares missed the dip
        prof = sr.SpectralProfile(lambdas=[1e-19, -8.291596839914238e-13, 0.0, 1e-24],
                                  log_weights=[0.0, -160.0, 0.0, 93.0])
        share = 1.0 - sr.ledger_block(prof, range(9)).p[:, 0]
        assert share[[1, 2, 7, 8]].tolist() == [1.0] * 4 and share[5] < 0.34
        assert scan_oracle(prof, 0.5, 1000) == 5
        assert sr.rigidity_time(prof, 0.5).t_rigid == 5

    def test_tiny_separated_pair_is_reached(self):
        # |lambda| below DEGENERACY_TOL is no tie: lambda3/lambda2 = 0.5 crosses at 7
        prof = sr.profile_from_weights([1e-200, 5e-201], [1.0, 100.0])
        assert sr.rigidity_time(prof, 0.01).t_rigid == 7

    def test_light_dominating_mode_crosses_transiently(self):
        prof = sr.profile_from_weights([0.5, -0.6, 0.1], [1.0, 1e-3, 10.0])
        assert sr.rigidity_time(prof, 0.3).t_rigid == 1

    def test_weight_ratio_beyond_the_double_range(self):
        # R0 / c2 = e^1400: init_ratio is inf and L is taken in logs
        prof = sr.SpectralProfile(lambdas=[0.5, 0.1], log_weights=[-700.0, 700.0])
        report = sr.rigidity_time(prof, 0.3)
        assert report.init_ratio == math.inf
        assert report.bound == pytest.approx((1400 - math.log(0.3)) / (2 * math.log(5)),
                                             rel=1e-12)
        assert report.t_rigid == 436       # ceil of the exact two-mode crossing 435.198
        for k in (436, 500):
            result = oracles.closure_bound(prof, 0.3, k)
            assert math.isfinite(result.bound) and result.actual <= result.bound

    def test_a_near_tie_is_read_to_its_last_digits(self):
        # lambda3/lambda2 = 1 - 1e-13: the exact fast share (60-digit mpmath)
        # is 1/2 + 2.3e-13, + 8.6e-14 and - 4.9e-14 at k = 396, 397 and 398,
        # gaps below the ulp (9.1e-13) of 2k ln|lambda| = -7294 that the
        # ledger's log energies carry
        lam = [1e-4, 9.9999999999999e-05, 9.683772233983162e-05]
        prof = sr.profile_from_weights(lam, [1.0, 1.0, 1.0])
        ks = [396, 397, 398]
        share = rigidity.fast_share(prof, ks)[0]
        for k, got in zip(ks, share):
            with mpmath.workdps(60):
                n = [abs(mpmath.mpf(x)) ** (2 * k) for x in lam]
                exact = (n[1] + n[2]) / sum(n)
            assert abs(got - exact) <= 1e-15 * exact, k
            assert (got <= 0.5) == (exact <= 0.5), k
        assert scan_oracle(prof, 0.5, 415) == 398
        assert sr.rigidity_time(prof, 0.5).t_rigid == 398
        with patch.object(rigidity, "DEFAULT_CAP", 415):
            assert sr.rigidity_time(prof, 0.5).t_rigid == 398

    def test_near_tie_rows_evaluated(self, monkeypatch):
        # 2000 modes, lambda2 = 0.999999, lambda3 = 0.99999: T from a full scan
        # of every step is 47,072, 383,707 and 1,023,366
        lam = np.concatenate([[0.999999, 0.99999], np.linspace(-0.9, 0.9, 1998)])
        prof = sr.profile_from_weights(lam, np.ones(lam.size))
        rows = []
        real = rigidity.fast_share

        def counted(profile, ks):
            rows.append(len(ks))
            return real(profile, ks)

        monkeypatch.setattr(rigidity, "fast_share", counted)
        for delta, T in ((0.3, 47_072), (1e-3, 383_707), (1e-8, 1_023_366)):
            rows.clear()
            assert sr.rigidity_time(prof, delta).t_rigid == T
            assert sum(rows) <= 100


class TestSandwich:
    """The provable halves of the two-sided crossing bound.

    The upper half T <= floor(L) + 1 is rigorous.  A matching lower half
    L <= T does not hold in general: the exact two-mode crossing sits below
    L by -ln(1-delta) / (2 ln(lambda2/lambda3)), so T undershoots L whenever
    an integer lands in that window.  Here we assert the upper half plus a
    sound lower bound; the acceptance suite runs the two-sided form verbatim
    and documents its failure.
    """

    @staticmethod
    def corrected_lower(prof) -> float:
        lam = prof.lambdas
        w = np.exp(prof.log_weights)
        slow = prof.slow_index()
        fast = np.arange(lam.size) != slow
        lam3 = np.max(np.abs(lam[fast]))
        w3 = w[fast][np.argmax(np.abs(lam[fast]))]
        E0 = w.sum()
        return math.log(w3 / (E0 * 0.1)) / (2 * math.log(lam[slow] / lam3)) \
            if lam3 > 0 else 0.0

    def test_upper_bound_never_violated(self, rng):
        for _ in range(200):
            prof = random_profile(rng)
            for delta in (0.3, 0.1, 0.01):
                report = sr.rigidity_time(prof, delta)
                assert report.t_rigid is not None
                assert report.t_rigid <= math.floor(report.bound) + 1

    def test_pointwise_residual_bound(self, rng):
        for _ in range(50):
            prof = random_profile(rng)
            lam = prof.lambdas
            w = np.exp(prof.log_weights)
            slow = prof.slow_index()
            fast = np.arange(lam.size) != slow
            ratio = np.max(np.abs(lam[fast])) / lam[slow]
            init = w[fast].sum() / w[slow]
            for k in range(0, 60, 5):
                bound = init * ratio ** (2 * k)
                # fast mass summed directly: 1 - alpha2 without cancellation
                fast_mass = oracles.ledger_at(prof, k).p[fast].sum()
                assert fast_mass <= bound * (1 + 1e-10)

    def test_known_counterexample_to_printed_lower_bound(self, s8_two_mode):
        # delta = 0.3 on the benchmark pair: T = 5 but L = 5.5688
        report = sr.rigidity_time(s8_two_mode, 0.3)
        assert report.t_rigid == 5
        assert report.bound > report.t_rigid


class TestRelativeDegeneracy:
    """A tie is DEGENERACY_TOL relative to |lambda_slow| for a profile's exact
    eigenvalues, and DEGENERACY_TOL absolute for a chain's computed ones."""

    def test_tiny_separated_pair_has_a_finite_bound(self):
        prof = sr.profile_from_weights([1e-200, 5e-201], [1.0, 100.0])
        assert not rigidity.split_slow_fast(prof).degenerate
        report = sr.rigidity_time(prof, 0.01)
        # criterion 3's sandwich L- <= T <= floor(L) + 1: 6.637 <= 7 <= 7, with
        # L = ln(R0 / (c2 delta)) / (2 ln 2) and L- = ln(w3 (1-delta) / (c2 delta)) / (2 ln 2)
        assert report.bound == pytest.approx(math.log(1e4) / (2 * math.log(2)), rel=1e-12)
        lower = math.log(100.0 * 0.99 / 0.01) / (2 * math.log(2))
        assert lower <= report.t_rigid == 7 <= math.floor(report.bound) + 1
        assert oracles.general_threshold(prof).delta_star == 0.5

    def test_tie_scales_with_the_slow_eigenvalue(self):
        for scale in (0.5, 1e-100, 1e-250):
            tied = sr.profile_from_weights([scale, scale * (1 - 1e-13)], [1.0, 1.0])
            apart = sr.profile_from_weights([scale, scale * (1 - 1e-11)], [1.0, 1.0])
            assert rigidity.split_slow_fast(tied).degenerate
            assert not rigidity.split_slow_fast(apart).degenerate
            assert sr.rigidity_bound(rigidity.split_slow_fast(tied), 0.1) == math.inf

    def test_chain_eigenvalues_tie_absolutely(self):
        # k6 is rank one: its computed nontrivial eigenvalues are roundoff near
        # 1e-17, which no relative tolerance would tie
        chain = sr.complete_graph(6)
        dec = sr.spectral_decomposition(chain)
        prof = sr.project_initial(dec, chain, np.arange(6.0))
        assert rigidity.split_slow_fast(prof).degenerate
        assert sr.rigidity_time(prof, 0.1).bound == math.inf


class TestDetectRigid:
    def test_pure_exponential(self):
        E = 0.81 ** np.arange(10)
        verdict = oracles.detect_rigid(E)
        assert verdict.rigid
        assert verdict.rho == pytest.approx(0.9, abs=1e-12)
        assert verdict.eta == pytest.approx(0.19, abs=1e-12)

    def test_two_mode_witness(self, two_mode_profile):
        E = [oracles.ledger_at(two_mode_profile, k).energy for k in range(6)]
        verdict = oracles.detect_rigid(E)
        assert not verdict.rigid
        k, d0, d1 = verdict.witness
        assert k == 0
        assert d0 == pytest.approx(0.59, abs=1e-12)
        assert d1 == pytest.approx(1 - 0.6562 / 0.82, abs=1e-12)

    def test_rigid_after_fast_mode_dies(self):
        prof = sr.profile_from_weights([0.9, 0.0], [1.0, 1.0])
        E = [oracles.ledger_at(prof, k).energy for k in range(8)]
        verdict = oracles.detect_rigid(E)
        assert not verdict.rigid
        assert verdict.rigid_from == 1
        assert verdict.rho == pytest.approx(0.9, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShort):
            oracles.detect_rigid([1.0, 0.5])

    def test_agrees_with_active_mode_count(self, rng):
        # rigid iff exactly one active mode
        single = sr.profile_from_weights([float(rng.uniform(0.3, 0.9))], [1.0])
        E = [oracles.ledger_at(single, k).energy for k in range(10)]
        assert oracles.detect_rigid(E).rigid
        multi = random_profile(rng, n_modes=4)
        E = [oracles.ledger_at(multi, k).energy for k in range(10)]
        assert not oracles.detect_rigid(E).rigid


class TestClosureBound:
    def test_single_mode_trivial(self):
        prof = sr.profile_from_weights([0.9], [1.0])
        result = oracles.closure_bound(prof, 0.1, 3)
        assert result.actual == pytest.approx(0.0, abs=1e-15)
        assert result.bound == 0.0

    def test_benchmark_at_crossing(self, s8_two_mode):
        result = oracles.closure_bound(s8_two_mode, 0.1, 8)
        assert result.actual <= result.bound

    def test_precondition(self, s8_two_mode):
        with pytest.raises(PreconditionUnmet):
            oracles.closure_bound(s8_two_mode, 0.1, 3)

    def test_property_sweep(self, rng):
        count = 0
        for _ in range(50):
            prof = random_profile(rng)
            report = sr.rigidity_time(prof, 0.1)
            if report.t_rigid is None:
                continue
            for k in (report.t_rigid, report.t_rigid + 5, report.t_rigid + 20):
                result = oracles.closure_bound(prof, 0.1, k)
                assert result.actual <= result.bound * (1 + 1e-12)
                count += 1
        assert count > 100
