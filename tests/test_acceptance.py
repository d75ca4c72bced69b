"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 3 and 15 check the corrected, provable forms of two claims that
are false as first written:

* criterion 3 once asserted L <= T <= floor(L) + 1 for the closed-form
  crossing estimate L; 535 of 600 draws, and the benchmark pair at
  delta = 0.3 (T = 5, L = 5.569), cross below L.  It now asserts
  L- <= T <= floor(L) + 1 with the provable lower bound L-, and that the
  two-mode profile crosses at exactly ceil(L_delta);
* criterion 15 once ran the cutoff window at n = 64 and 256, where the
  offset alpha = -2 clamps to k = 0 and the entropy still rises into
  alpha = -1.  It now runs at n = 4096 and 8192, where every offset is a
  real step.

A companion `*_supplement` test pins the valid part of the small-n window
on its own.
"""

import json
import math
import time

import numpy as np
import pytest

import specrelax as sr
from specrelax.cli import hypercube_window_step, main
from specrelax.presets import synthetic_s8_profile

import oracles
from conftest import centered_random_start, entropy_oracle, power_stream, random_reversible
from oracles import StreamEnded, helmholtz_like

LN2 = math.log(2.0)


def criterion(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {verdict}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _profile_battery(rng):
    """Unit-energy profiles exercised step by step in several criteria.

    The hypercube entry drops the parity level (eigenvalue -1): a mode of
    unit magnitude never relaxes, so past deep concentration the covariance
    of the remaining mass falls below float resolution of the decay rate.
    The thermodynamic contracts assume the slow mode dominates in magnitude;
    the aperiodic sector satisfies that up to the symmetric tie.
    """
    hp = sr.hypercube_profile(16)
    battery = [
        ("two-mode-0.9-0.1", sr.profile_from_weights([0.9, 0.1], [0.5, 0.5])),
        ("benchmark-pair", sr.profile_from_weights([0.95, 0.70], [0.1, 0.9])),
        ("synthetic-50", _normalized(synthetic_s8_profile(seed=8))),
        ("hypercube-16-aperiodic", _normalized(sr.SpectralProfile(
            lambdas=hp.lambdas[:-1],
            log_weights=hp.log_weights[:-1]))),
    ]
    for i in range(20):
        lam2 = float(rng.uniform(0.55, 0.97))
        lam3 = float(rng.uniform(0.3, 0.9)) * lam2
        rest = rng.uniform(-lam3, lam3, int(rng.integers(1, 10)))
        lam = np.concatenate([[lam2, lam3], rest])
        w = rng.uniform(0.05, 1.0, lam.size)
        battery.append((f"random-{i}", _normalized(
            sr.profile_from_weights(lam, w))))
    return battery


def _normalized(profile):
    shift = np.logaddexp.reduce(profile.log_weights)
    return sr.SpectralProfile(lambdas=profile.lambdas,
                              log_weights=profile.log_weights - shift)


def _fast_mass(led, slow):
    mask = np.ones(led.p.size, dtype=bool)
    mask[slow] = False
    return float(led.p[mask].sum())


def test_criterion_01_exact_dissipation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        chain = random_reversible(n, rng)
        dec = sr.spectral_decomposition(chain)
        g0 = centered_random_start(chain, rng)
        prof = sr.project_initial(dec, chain, g0)
        E0 = sr.pi_inner(chain, g0, g0)
        # oracle path: dense kernel applications only
        g = g0.copy()
        for k in range(200):
            Pg = oracles.matrix_oracle_step(chain, g)
            u = g - Pg
            quad = sr.pi_inner(chain, g, u + oracles.matrix_oracle_step(chain, u))
            delta = sr.pi_inner(chain, g, g) - sr.pi_inner(chain, Pg, Pg)
            worst = max(worst, abs(delta - quad) / E0)
            g = Pg
        # spectral path: modal energies against the relaxation-rate form
        lam = prof.lambdas
        mu = 1.0 - lam
        for k in range(0, 201, 10):
            led = oracles.ledger_at(prof, k)
            n_lin = np.where(np.isfinite(led.log_modal_energies),
                             np.exp(led.log_modal_energies), 0.0)
            delta = led.energy - oracles.ledger_at(prof, k + 1).energy
            quad = float(np.sum((2.0 * mu - mu ** 2) * n_lin))
            worst = max(worst, abs(delta - quad) / E0)
    elapsed = time.perf_counter() - start
    criterion(1, "exact dissipation identity",
              worst <= 1e-12 and elapsed < 10.0,
              f"worst residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_modewise_and_second_moment():
    rng = np.random.default_rng(102)
    worst_mode = 0.0
    worst_moment = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        chain = random_reversible(n, rng)
        dec = sr.spectral_decomposition(chain)
        prof = sr.project_initial(dec, chain, centered_random_start(chain, rng))
        lam_sq = prof.lambdas ** 2
        for k in range(0, 201, 10):
            led = oracles.ledger_at(prof, k)
            led1 = oracles.ledger_at(prof, k + 1)
            modewise = float(np.sum((1.0 - lam_sq) * led.p))
            worst_mode = max(worst_mode, abs(modewise - led.d) / max(led.d, 1e-300))
            fourth = float(np.sum(led.p * lam_sq ** 2))
            ref = led.rho * led1.rho
            worst_moment = max(worst_moment, abs(fourth - ref) / ref)
    criterion(2, "modewise decomposition and second-moment identity",
              worst_mode <= 1e-12 and worst_moment <= 1e-12,
              f"modewise {worst_mode:.3e}, moment {worst_moment:.3e}")


def _crossing_log(numer, denom, delta, lam2, lam3):
    """ln(numer (1-delta) / (denom delta)) / (2 ln(lam2/lam3))."""
    return (math.log(numer * (1.0 - delta) / (denom * delta))
            / (2.0 * math.log(lam2 / lam3)))


def test_criterion_03_rigidity_sandwich_as_stated():
    """Two-sided rigidity bound, off by at most one step.

    The crossing condition is R_k <= (delta/(1-delta)) c2 lambda2^(2k), with
    w3 lambda3^(2k) <= R_k <= R0 lambda3^(2k).  The closed-form L (R0 in
    place of R_k, delta in place of delta/(1-delta)) is therefore an upper
    estimate, T <= floor(L) + 1, but not a lower bound: the benchmark pair
    crosses at T = 5 < L = 5.569 for delta = 0.3.  The provable lower bound
    puts the weight w3 on the fast modes with |lambda| = lambda3 in place of
    R_k:  L- = ln(w3 (1-delta) / (c2 delta)) / (2 ln(lambda2/lambda3)).
    Sharpness: the two-mode profile (lambda2, lambda3; c2, R0) crosses at
    exactly ceil(L_delta), L_delta being L- with R0 in place of w3.
    """
    rng = np.random.default_rng(103)
    # derived reproduction targets hold
    bench = sr.profile_from_weights([0.95, 0.70], [0.1, 0.9])
    report = sr.rigidity_time(bench, 0.1)
    assert report.bound == pytest.approx(7.367518, abs=1e-3)
    assert report.t_rigid == 8
    bench_T = [sr.rigidity_time(bench, d).t_rigid for d in (0.3, 0.1, 0.01)]
    assert bench_T == [5, 8, 12], bench_T
    violations = []
    sharpness = []
    for i in range(200):
        lam2 = float(rng.uniform(0.55, 0.97))
        lam3 = float(rng.uniform(0.3, 0.9)) * lam2
        rest = rng.uniform(-lam3, lam3, int(rng.integers(1, 10)))
        lam = np.concatenate([[lam2, lam3], rest])
        w = rng.uniform(0.05, 1.0, rest.size + 2)
        prof = sr.profile_from_weights(lam, w)
        c2, R0 = float(w[0]), float(w[1:].sum())
        w3 = float(w[1:][np.abs(lam[1:]) == lam3].sum())
        pair = sr.profile_from_weights([lam2, lam3], [c2, R0])
        for delta in (0.3, 0.1, 0.01):
            rep = sr.rigidity_time(prof, delta)
            lower = _crossing_log(w3, c2, delta, lam2, lam3)
            upper = math.floor(rep.bound) + 1
            if not (lower <= rep.t_rigid <= upper):
                violations.append((i, delta, lower, rep.t_rigid, upper))
            T2 = sr.rigidity_time(pair, delta).t_rigid
            L_delta = _crossing_log(R0, c2, delta, lam2, lam3)
            if not (L_delta <= T2 < L_delta + 1):
                sharpness.append((i, delta, L_delta, T2))
    criterion(3, "rigidity sandwich L- <= T <= floor(L) + 1, two-mode sharp",
              not violations and not sharpness,
              f"{len(violations)}/600 sandwich violations, first "
              f"(draw, delta, L-, T, floor(L)+1) = "
              f"{violations[0] if violations else None}; "
              f"{len(sharpness)}/600 two-mode profiles off ceil(L_delta), first "
              f"(draw, delta, L_delta, T) = {sharpness[0] if sharpness else None}")


def test_criterion_04_two_mode_transition():
    ok = True
    details = []
    for alpha in np.linspace(0.01, 0.99, 99):
        prof = sr.profile_from_weights([0.9, 0.2], [alpha, 1 - alpha])
        cov = oracles.canonical_covariance(prof, 0)[0]
        ref = math.log((1 - alpha) / alpha)
        if abs(ref) < 1e-14:
            ok = ok and abs(cov) < 1e-15
        else:
            ok = ok and math.copysign(1, cov) == math.copysign(1, ref)
    result = oracles.two_mode_transition(0.95, 0.70, 0.1, 0.9)
    ok = ok and result.k_star == 4
    details.append(f"k*={result.k_star}")
    ok = ok and abs(result.entropy_at_crossing - LN2) <= 1e-12
    details.append(f"S(crossing)-ln2={result.entropy_at_crossing - LN2:.2e}")
    criterion(4, "two-mode transition sign law and crossing", ok,
              ", ".join(details))


def test_criterion_05_balance_and_covariance_agreement():
    rng = np.random.default_rng(105)
    worst_bal = 0.0
    worst_cov = 0.0
    for _, prof in _profile_battery(rng):
        for k in range(150):
            bal = oracles.entropy_balance(prof, k)
            worst_bal = max(worst_bal, bal.residual)
            cov, _, affinities = oracles.canonical_covariance(prof, k)
            triple = oracles.covariance_forms(prof, k)
            led = oracles.ledger_at(prof, k)
            S = entropy_oracle(led.p)
            finite = affinities[np.isfinite(affinities)]
            max_aff = float(np.max(np.abs(finite))) if finite.size else 0.0
            # the moment form cancels large entropies; its honest resolution
            # is eps * (entropy + affinity span), so agreement is graded
            # against that floor once the covariance itself sits below it
            floor = 1e-13 * (1.0 + S + max_aff)
            scale = max(triple.term_scale, abs(cov), 1e-30)
            for other in (triple.cov_moment, triple.cov_fluxforce):
                gap = abs(cov - other)
                if gap > floor:
                    worst_cov = max(worst_cov, gap / scale)
    criterion(5, "entropy balance and covariance triple agreement",
              worst_bal <= 1e-11 and worst_cov <= 1e-11,
              f"balance {worst_bal:.3e}, covariance {worst_cov:.3e}")


def test_criterion_06_general_threshold_monotonicity():
    rng = np.random.default_rng(106)
    violations = 0
    for i in range(100):
        lam2 = float(rng.uniform(0.55, 0.97))
        lam3 = float(rng.uniform(0.3, 0.9)) * lam2
        rest = rng.uniform(-lam3, lam3, int(rng.integers(1, 8)))
        prof = sr.profile_from_weights(
            np.concatenate([[lam2, lam3], rest]),
            rng.uniform(0.05, 1.0, rest.size + 2))
        result = oracles.general_threshold(prof)
        t = result.t_threshold
        S_prev = entropy_oracle(oracles.ledger_at(prof, t).p)
        for k in range(t, t + 201):
            cov = oracles.canonical_covariance(prof, k)[0]
            S_next = entropy_oracle(oracles.ledger_at(prof, k + 1).p)
            if not (cov < 0.0 and S_next < S_prev):
                violations += 1
                break
            S_prev = S_next
    criterion(6, "post-threshold covariance sign and entropy decay",
              violations == 0, f"{violations}/100 profiles violated")


def test_criterion_07_clausius_equality():
    rng = np.random.default_rng(107)
    worst = 0.0
    policed = 0
    for name, prof in _profile_battery(rng):
        if name.startswith("hypercube"):
            # symmetric |lambda| tie: entropy does not vanish and the check
            # must refuse rather than run forever
            with pytest.raises(oracles.NonConvergent):
                oracles.clausius_check(prof)
            policed += 1
            continue
        result = oracles.clausius_check(prof)
        margin = max(1e-8, 10.0 * result.entropy_at_stop)
        worst = max(worst, result.residual / margin)
    criterion(7, "truncated entropy-balance series equality",
              worst <= 1.0 and policed == 1,
              f"worst residual/allowance {worst:.3e}")


def test_criterion_08_second_law_and_negative_control():
    rng = np.random.default_rng(108)
    ok = True
    worst_neg = 0.0
    for name, prof in _profile_battery(rng):
        G_prev = None
        for k in range(150):
            step = oracles.G_step(prof, k)
            worst_neg = min(worst_neg, step.A, step.B)
            ok = ok and step.A >= -1e-15 and step.B >= -1e-15
            if G_prev is not None:
                ok = ok and step.G_k <= G_prev * (1 + 1e-12) + 1e-15
            G_prev = step.G_k
    control = sr.profile_from_weights([0.9, 0.1], [1.0, 1.0])
    F0, F1 = helmholtz_like(control, 0), helmholtz_like(control, 1)
    ok = ok and abs(F0 - 0.6137) <= 1e-3 and abs(F1 - 0.7660) <= 1e-3 and F1 > F0
    criterion(8, "second law for G with split nonnegativity", ok,
              f"min(A,B) {worst_neg:.3e}, F(0)={F0:.6f}, F(1)={F1:.6f}")


def test_criterion_09_observable_variance_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _, prof in _profile_battery(rng):
        lam_sq = prof.lambdas ** 2
        for k in range(100):
            led = oracles.ledger_at(prof, k)
            led1 = oracles.ledger_at(prof, k + 1)
            vhat = oracles.observable_variance(led.rho, led1.rho)
            spectral = float(np.sum(led.p * lam_sq ** 2) - led.rho ** 2)
            worst = max(worst, abs(vhat - spectral))
    hand = sr.profile_from_weights([0.9, 0.1], [1.0, 1.0])
    r0 = oracles.ledger_at(hand, 0).rho
    r1 = oracles.ledger_at(hand, 1).rho
    hand_ok = abs(r0 - 0.41) <= 1e-15 and abs(
        oracles.observable_variance(r0, r1) - 0.16) <= 1e-15
    criterion(9, "observable variance identity", worst <= 1e-12 and hand_ok,
              f"worst |Vhat - Var| {worst:.3e}")


def test_criterion_10_error_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        chain = random_reversible(n, rng, lazy=True)
        dec = sr.spectral_decomposition(chain)
        g0 = centered_random_start(chain, rng)
        prof = sr.project_initial(dec, chain, g0)
        _, _, iterates = power_stream(chain, g0, 150)
        slow = prof.slow_index()
        for k in range(150):
            led = oracles.ledger_at(prof, k)
            alpha2 = float(np.exp(led.log_modal_energies[slow] - led.log_energy))
            err = sr.eigenvector_error(chain, dec, iterates[k])
            worst = max(worst, abs(err - oracles.error_identity(alpha2)))
    criterion(10, "exact eigenvector error identity", worst <= 1e-10,
              f"worst deviation {worst:.3e}")


def test_criterion_11_stopping_soundness():
    rng = np.random.default_rng(111)
    stops = 0
    unsound = 0
    chains_used = 0
    while chains_used < 100:
        n = int(rng.integers(5, 31))
        chain = random_reversible(n, rng, lazy=True)
        dec = sr.spectral_decomposition(chain)
        lam = dec.eigenvalues
        lam2, lam3 = float(lam[1]), float(max(abs(lam[2]), abs(lam[-1])))
        if lam2 - lam3 < 1e-8:
            continue
        chains_used += 1
        tau = 1.0 - (lam3 / lam2) ** 2
        g0 = centered_random_start(chain, rng)
        _, rho, iterates = power_stream(chain, g0, 400)
        for eps in (0.2, 0.1, 0.05):
            try:
                state = oracles.adaptive_stop(rho, epsilon=eps, tau=tau)
            except StreamEnded:
                continue
            stops += 1
            k = state.stopped_at
            err = math.sqrt(sr.eigenvector_error(chain, dec, iterates[k]))
            if err > eps:
                unsound += 1
    criterion(11, "adaptive stopping soundness", unsound == 0 and stops >= 150,
              f"{stops} stops across 100 chains x 3 tolerances, "
              f"{unsound} unsound")


def test_criterion_12_chebyshev_optimality_and_acceleration():
    rng = np.random.default_rng(112)
    ok = True
    details = []
    for m in range(1, 7):
        plan = sr.build_Qm(m, a=-1.0, b=0.7)
        report = oracles.minimax_verify(plan, rival_samples=1000, seed=m)
        ok = ok and abs(report.grid_max - oracles.eps_m(plan)) <= 1e-10 * oracles.eps_m(plan)
        ok = ok and report.equioscillation_count >= m + 1
        ok = ok and report.optimality_margin >= 1.0 - 1e-8
    details.append("minimax m=1..6 with 1000 rivals each")
    preset = synthetic_s8_profile(seed=8)
    plain = sr.rigidity_time(preset, 0.1)
    fast = np.delete(preset.lambdas, preset.slow_index())
    plan = sr.build_Qm(4, a=float(fast.min()), b=float(fast.max()))
    mapped = sr.accelerated_spectrum(preset, plan)
    accel = sr.rigidity_time(mapped, 0.1)
    equivalent = 4 * accel.t_rigid
    ok = ok and equivalent <= 0.8 * plain.t_rigid
    details.append(f"plain T={plain.t_rigid}, accel {accel.t_rigid} steps "
                   f"({equivalent} equivalent)")
    criterion(12, "polynomial suppression optimality and speedup", ok,
              "; ".join(details))


def test_criterion_13_momentum_parameter():
    beta = oracles.momentum_beta_star(0.95)
    disc = (1 + beta) ** 2 * 0.95 ** 2 - 4 * beta
    ok = abs(beta - 0.52410) <= 1e-5 and abs(disc) <= 1e-12
    criterion(13, "critical momentum weight", ok,
              f"beta*={beta:.8f}, discriminant={disc:.2e}")


def test_criterion_14_interlacing_and_fpt():
    rng = np.random.default_rng(114)
    worst_interlace = 0.0
    worst_dual = 0.0
    violations = []
    for i in range(20):
        n = int(rng.integers(3, 14))
        chain = random_reversible(n, rng)
        lam = sr.spectral_decomposition(chain).eigenvalues
        for target in range(n):
            model = sr.absorb(chain, target)
            for j in range(2, n + 1):
                nu_j = model.nu[j - 2]
                worst_interlace = max(worst_interlace,
                                      nu_j - lam[j - 2], lam[j - 1] - nu_j)
            start = sr.restricted_stationary_start(model)
            for k in (0, 3, 20, 100):
                out = oracles.fpt_tail(model, start, k)
                worst_dual = max(worst_dual, abs(out.spectral - out.matrix)
                                 / max(out.matrix, 1e-300))
        # the proved tail bound on one absorbing pair per chain
        lam2, lam3 = float(lam[1]), float(np.max(np.abs(lam[2:])))
        if lam2 - lam3 > 0.05:
            model = sr.absorb(chain, 0)
            start = sr.restricted_stationary_start(model)
            alpha = sr.tail_coefficients(model, start)
            if abs(alpha[0]) > 1e-8 and model.nu[0] > 0:
                # the closed-form L = ln(R0 / (c2 delta)) / (2 ln(lambda2 / lambda3))
                # with c2 = 1, R0 = max(n - 2, 1) and delta = 0.1
                T = math.ceil(max(1.0, math.log(max(n - 2.0, 1.0) / 0.1)
                                  / (2.0 * math.log(lam2 / lam3))))
                for k in range(T, T + 50, 10):
                    tail = oracles.fpt_tail(model, start, k)
                    bound = sr.exponential_tail_bound(model, tail.coefficients, k, tail.matrix,
                                                      tail.spectral, tail.approx)
                    if not tail.relative_error <= bound:
                        violations.append((i, k, tail.relative_error, bound))
    ok = worst_interlace <= 1e-9 and worst_dual <= 1e-10 and not violations
    criterion(14, "interlacing, dual tails, proved exponential bound", ok,
              f"interlace {worst_interlace:.3e}, dual {worst_dual:.3e}, "
              f"bound violations: {violations if violations else 'none'}")


def test_criterion_15_hypercube_collapse_as_stated():
    """Strict entropy collapse across the cutoff window (n/4) ln n + alpha n.

    The window step is a real step only for alpha >= -ln(n)/4; earlier
    offsets clamp to k = 0.  At n = 64 and 256 the offset -2 clamps, and the
    entropy of the point-mass start rises over the first steps (2.805 ->
    3.092 and 3.498 -> 3.530) as the level-j and level-(n-j) humps separate,
    so those dimensions compare the start against the window.  All five
    offsets are real steps once ln(n)/4 >= 2, i.e. n >= e^8 ~ 2981.
    """
    details = []
    ok = True
    elapsed = 0.0
    for n in (4096, 8192):
        assert hypercube_window_step(n, -2) >= 1, (n, hypercube_window_step(n, -2))
        start = time.perf_counter()
        traj = sr.hypercube_profile(n)
        window = []
        for alpha in (-2, -1, 0, 1, 2):
            k = hypercube_window_step(n, alpha)
            window.append((alpha, k, oracles.ledger_at(traj, k).p))
        elapsed += time.perf_counter() - start
        S = []
        for alpha, k, p in window:
            S_val = entropy_oracle(p)
            # independent oracle: exact integer binomials, plain arithmetic
            S_ref = _hypercube_direct_entropy(n, k)
            ok = ok and abs(S_val - S_ref) <= 1e-10
            S.append(S_val)
        strictly_decreasing = all(a > b for a, b in zip(S, S[1:]))
        ok = ok and strictly_decreasing and S[0] >= 2.0 and S[-1] <= 0.05
        details.append(f"n={n}: (alpha, k, S)="
                       f"{[(a, k, round(s, 4)) for (a, k, _), s in zip(window, S)]}, "
                       f"decreasing={strictly_decreasing}")
    ok = ok and elapsed < 5.0
    criterion(15, "hypercube entropy collapse across the cutoff window", ok,
              "; ".join(details) + f"; package path {elapsed:.3f}s")


def _hypercube_direct_entropy(n, k):
    """Spectral entropy at step k of the point-mass start on the n-cube.

    Level j carries C(n, j) |1 - 2j/n|^(2k).  The binomials are exact
    integers from the multiplicative recurrence; each term enters through
    its logarithm, shifted by the largest, so nothing overflows at large n.
    """
    logs = []
    c = 1
    for j in range(n):
        c = c * (n - j) // (j + 1)  # C(n, j + 1)
        lam = 1.0 - 2.0 * (j + 1) / n
        if lam != 0.0:
            logs.append(math.log(c) + 2 * k * math.log(abs(lam)))
        elif k == 0:
            logs.append(math.log(c))
    top = max(logs)
    shifted = [x - top for x in logs]
    log_total = math.log(math.fsum(math.exp(x) for x in shifted))
    return -math.fsum(math.exp(x - log_total) * (x - log_total) for x in shifted)


def test_criterion_15_supplement_collapse_within_valid_window():
    for n in (64, 256):
        traj = sr.hypercube_profile(n)
        S = []
        for alpha in (-1, 0, 1, 2):
            led = oracles.ledger_at(traj, hypercube_window_step(n, alpha))
            S.append(entropy_oracle(led.p))
        assert all(a > b for a, b in zip(S, S[1:]))
        assert S[0] >= 2.0
        assert S[-1] <= 0.05
        led0 = oracles.ledger_at(traj, 0)
        assert entropy_oracle(led0.p) >= 2.0


def test_criterion_16_cli_determinism(tmp_path):
    cases = [
        ["simulate", "paper-s8", "--steps", "50"],
        ["rigidity", "s8-two-mode"],
        ["rigidity", "cycle-5"],
        ["analyze", "k6", "--format", "json"],
        ["thermo", "s8-two-mode", "--steps", "20"],
        ["fpt", "barbell-metastable", "--kmax", "30"],
        ["accel", "paper-s8", "--degree", "4", "--compare-plain"],
        ["power", "barbell-metastable", "--epsilon", "0.2"],
        ["hypercube", "--n", "64"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        assert main(argv + ["--seed", "13", "--out", str(a)]) == 0
        assert main(argv + ["--seed", "13", "--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    criterion(16, "seeded CLI output is byte-identical", ok,
              f"{len(cases)} command presets, two runs each")
