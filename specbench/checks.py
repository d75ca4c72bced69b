"""Output checks computed apart from the program.

Each check reads what one CLI command printed and compares it with the
benchmark's own computation on the generated input (numpy eigensolves of
the weight matrix, mpmath evaluations of the modal sums, exact integer
binomials) or with an exact identity between printed columns.  No value is
taken from the program's earlier output.  A check raises CheckFailed with a
one-line reason, or KnownFault when the output shows a recorded program
fault in exactly its recorded form.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys

import mpmath
import numpy as np
from numpy.polynomial import chebyshev

from inputs import Chain, Profile

mpmath.mp.dps = 40

LEDGER_HEADER = ["k", "E", "rho", "d", "alpha2", "S_spec", "Cov", "KL",
                 "G", "A", "B", "Gamma", "Vhat"]


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


class KnownFault(Exception):
    """An output shows a recorded program fault, and is otherwise correct."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# --- parsing -----------------------------------------------------------------

def _cell(text: str):
    """Number, None for a blank cell, or the text itself (e.g. `true`)."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    lines = list(csv.reader(io.StringIO(text)))
    require(len(lines) >= 1, "empty CSV output")
    header = lines[0]
    rows = [[_cell(c) for c in line] for line in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "ragged CSV rows")
    return header, rows


def columns(header: list[str], rows: list[list]) -> dict[str, list]:
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def require_finite(header, rows):
    for r in rows:
        for name, v in zip(header, r):
            if isinstance(v, float) and not math.isfinite(v):
                raise CheckFailed(f"column {name} holds {v!r} at {header[0]}={r[0]!r}")


# --- independent evaluations ---------------------------------------------------

def _mp_terms(profile: Profile, k: int) -> list:
    return [mpmath.exp(mpmath.mpf(w)) * mpmath.mpf(lam) ** (2 * k)
            for lam, w in zip(profile.lambdas.tolist(), profile.log_weights.tolist())]


def mp_fast_share(profile: Profile, k: int):
    """1 - alpha2 at step k in mpmath, summed over the fast modes."""
    terms = _mp_terms(profile, k)
    slow = terms.pop(profile.slow)
    fast = mpmath.fsum(terms)
    return fast / (fast + slow)


def mp_ledger(profile: Profile, k: int) -> tuple[float, float, float]:
    """(E, alpha2, S) of the profile at step k, evaluated in mpmath."""
    terms = _mp_terms(profile, k)
    E = mpmath.fsum(terms)
    S = -mpmath.fsum(t / E * mpmath.log(t / E) for t in terms if t > 0)
    return float(E), float(terms[profile.slow] / E), float(S)


def alpha2_series(lambdas: np.ndarray, log_weights: np.ndarray, ks) -> np.ndarray:
    """Slow fraction at each step in ks, in float64 log domain."""
    slow = int(np.argmax(lambdas))
    ks = np.asarray(ks, dtype=float)
    out = np.empty(ks.size)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(lambdas))
    for i, k in enumerate(ks):
        logn = log_weights + 2.0 * k * log_abs if k else log_weights
        top = logn.max()
        out[i] = math.exp(logn[slow] - top) / np.exp(logn - top).sum()
    return out


def split(profile: Profile):
    """Slow (lambda, weight), largest fast |lambda| with its weight, fast total."""
    w = np.exp(profile.log_weights - profile.log_weights.max())
    s = profile.slow
    fast = np.arange(profile.lambdas.size) != s
    i3 = np.flatnonzero(fast)[np.argmax(np.abs(profile.lambdas[fast]))]
    return (profile.lambdas[s], w[s], abs(profile.lambdas[i3]), w[i3], w[fast].sum())


def rigidity_bounds(profile: Profile, delta: float) -> tuple[float, float]:
    """(L-, L): provable lower and upper crossing estimates.

    L- = ln(w3 (1-delta) / (c2 delta)) / (2 ln(lambda2/|lambda3|)) with w3 the
    weight of the largest fast |lambda| alone; L uses the whole fast weight
    R0 in its place and drops (1-delta), so T <= floor(L) + 1.
    """
    lam2, c2, lam3, w3, R0 = split(profile)
    rate = 2.0 * math.log(lam2 / lam3)
    lower = math.log(w3 * (1.0 - delta) / (c2 * delta)) / rate
    upper = math.log(R0 / (c2 * delta)) / rate if R0 > c2 * delta else 0.0
    return lower, upper


def hypercube_oracle(n: int, k: int) -> tuple[float, float, float]:
    """(log E, alpha2, S) of the point-mass start on the n-cube at step k.

    Level j carries C(n, j) |1 - 2j/n|^(2k) with C(n, j) an exact integer
    from the recurrence c = c (n-j) / (j+1); each term enters through its
    logarithm and the sums are max-shifted fsums.
    """
    logs, slow = [], None
    c = 1
    for j in range(n):
        c = c * (n - j) // (j + 1)
        lam = 1.0 - 2.0 * (j + 1) / n
        if lam == 0.0 and k > 0:
            continue
        logs.append(math.log(c) + (2 * k * math.log(abs(lam)) if k else 0.0))
        if j == 0:
            slow = logs[-1]
    top = max(logs)
    log_E = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    S = -math.fsum(math.exp(x - log_E) * (x - log_E) for x in logs)
    return log_E, math.exp(slow - log_E), S


def cheb_plan(lambdas: np.ndarray, degree: int):
    """Mapped eigenvalues Q(lambda) of the default suppression plan.

    The interval spans the fast eigenvalues; Q(x) = T_m(t(x)) / T_m(t(1))
    with t the affine map of [a, b] onto [-1, 1], evaluated by numpy's
    Chebyshev series.
    """
    fast = np.delete(lambdas, int(np.argmax(lambdas)))
    a, b = float(fast.min()), float(fast.max())
    if a >= b:
        a, b = -abs(b), abs(b)
    coef = np.zeros(degree + 1)
    coef[degree] = 1.0
    t = lambda x: (2.0 * x - (a + b)) / (b - a)
    return chebyshev.chebval(t(lambdas), coef) / chebyshev.chebval(t(1.0), coef)


# --- per-command checks ----------------------------------------------------------

def check_ledger(text: str, steps: int, profile: Profile | None = None,
                 sample_steps=(), rel: float = 1e-9):
    """Rows of `simulate` / `thermo`: exact identities between columns.

    S_{k+1} - S_k = Cov/rho_k - KL; G_k - G_{k+1} = A + B with A, B >= 0;
    E_{k+1} = rho_k E_k; Vhat = rho_k (rho_{k+1} - rho_k); rho nondecreasing.
    With a profile, E, alpha2 and S at `sample_steps` are compared with
    mpmath, and E_0 and rho_0 with the profile's own sums.
    """
    header, rows = parse_csv(text)
    require(header == LEDGER_HEADER, f"ledger header is {header}")
    require(len(rows) == steps + 1, f"{len(rows)} ledger rows for {steps} steps")
    require_finite(header, rows)
    c = columns(header, rows)
    require(c["k"] == [float(k) for k in range(steps + 1)], "k column is not 0..steps")
    require(all(v is not None for name in ("E", "rho", "alpha2", "S_spec", "G")
                for v in c[name]), "blank cell in E, rho, alpha2, S_spec or G")
    for k in range(steps):
        E, rho, S, G = c["E"][k], c["rho"][k], c["S_spec"][k], c["G"][k]
        cov, kl, A, B = c["Cov"][k], c["KL"][k], c["A"][k], c["B"][k]
        require(None not in (cov, kl, A, B, c["Vhat"][k]), f"blank identity cell at k={k}")
        nxt_rho, nxt_S, nxt_E, nxt_G = (c["rho"][k + 1], c["S_spec"][k + 1],
                                        c["E"][k + 1], c["G"][k + 1])
        lhs, rhs = nxt_S - S, cov / rho - kl
        require(abs(lhs - rhs) <= 1e-9 * (1.0 + abs(S) + abs(nxt_S) + abs(cov / rho) + abs(kl)),
                f"entropy balance fails at k={k}: dS={lhs!r}, Cov/rho-KL={rhs!r}")
        tol_G = 1e-9 * E * (1.0 + S)
        require(A >= -tol_G and B >= -tol_G, f"negative A or B at k={k}: {A!r}, {B!r}")
        require(abs((G - nxt_G) - (A + B)) <= tol_G,
                f"G_k - G_k+1 = {G - nxt_G!r} but A + B = {A + B!r} at k={k}")
        require(close(nxt_E, rho * E, rel),
                f"E_k+1 = {nxt_E!r} but rho_k E_k = {rho * E!r} at k={k}")
        require(abs(c["Vhat"][k] - rho * (nxt_rho - rho)) <= 1e-12 * rho * rho,
                f"Vhat = {c['Vhat'][k]!r} but rho_k (rho_k+1 - rho_k) = "
                f"{rho * (nxt_rho - rho)!r} at k={k}")
        require(nxt_rho >= rho - 1e-12, f"rho decreases at k={k}: {rho!r} -> {nxt_rho!r}")
        require(abs(c["d"][k] - (1.0 - rho)) <= 1e-12, f"d != 1 - rho at k={k}")
    if profile is None:
        return
    w = np.exp(profile.log_weights)
    require(close(c["E"][0], float(w.sum()), rel), f"E_0 = {c['E'][0]!r}, own {float(w.sum())!r}")
    rho0 = float(np.sum(w * profile.lambdas ** 2) / w.sum())
    require(close(c["rho"][0], rho0, rel), f"rho_0 = {c['rho'][0]!r}, own {rho0!r}")
    for k in sample_steps:
        E, a2, S = mp_ledger(profile, k)
        require(close(c["E"][k], E, rel), f"E at k={k} is {c['E'][k]!r}, mpmath {E!r}")
        require(close(c["alpha2"][k], a2, rel, 1e-300),
                f"alpha2 at k={k} is {c['alpha2'][k]!r}, mpmath {a2!r}")
        require(abs(c["S_spec"][k] - S) <= rel * (1.0 + S),
                f"S at k={k} is {c['S_spec'][k]!r}, mpmath {S!r}")


def check_fluxes(text: str, ledger_text: str, steps_at, profile: Profile):
    """`thermo --fluxes-at`: Cov matches the ledger row, sum J A = Cov and
    sum J = alpha2 (lambda2^2 - rho), since the occupations sum to one."""
    data = json.loads(text)
    n_modes, lam2 = profile.lambdas.size, float(profile.lambdas[profile.slow])
    require(sorted(data, key=int) == [str(k) for k in steps_at], f"flux steps {sorted(data)}")
    _, rows = parse_csv(ledger_text)
    for key, entry in data.items():
        k = int(key)
        row = dict(zip(LEDGER_HEADER, rows[k]))
        J = np.array(entry["fluxes"], dtype=float)
        A = np.array([-math.inf if a is None else a for a in entry["affinities"]])
        require(J.size == n_modes and A.size == n_modes,
                f"flux vectors at k={k} have {J.size} entries")
        require(close(entry["cov"], row["Cov"], 1e-12, 1e-300),
                f"flux cov {entry['cov']!r} != ledger Cov {row['Cov']!r} at k={k}")
        use = np.isfinite(A) & (J != 0)
        scale = float(np.sum(np.abs(J[use] * A[use])))
        require(abs(float(np.sum(J[use] * A[use])) - entry["cov"]) <= 1e-9 * scale + 1e-300,
                f"sum J A != cov at k={k}")
        share = row["alpha2"] * (lam2 ** 2 - row["rho"])
        require(abs(float(J.sum()) - share) <= 1e-12,
                f"sum J = {float(J.sum())!r} but alpha2 (lambda2^2 - rho) = {share!r} at k={k}")


def check_rigidity(text: str, profile: Profile, deltas, rel: float = 1e-9,
                   exact_two_mode: bool = False):
    """`rigidity`: L- <= T <= floor(L) + 1 with the benchmark's own L- and L;
    T is the first step with alpha2 >= 1 - delta; L, ratio and init_ratio
    match the profile.  For a two-mode profile T = ceil(L_delta).

    `rel` is the accuracy of the own profile: 1e-9 for profile files, looser
    for a chain, whose own profile carries eigensolver roundoff."""
    header, rows = parse_csv(text)
    require(header == ["delta",
            "L", "T_rigid", "ratio", "init_ratio"], f"rigidity header is {header}")
    require(len(rows) == len(deltas), f"{len(rows)} rigidity rows for {len(deltas)} deltas")
    lam2, c2, lam3, _, R0 = split(profile)
    for (delta, L, T, ratio, init_ratio), want in zip(rows, deltas):
        require(delta == want, f"delta {delta!r} != {want!r}")
        require(T is not None and T == int(T), f"T_rigid {T!r} at delta={delta!r}")
        T = int(T)
        lower, upper = rigidity_bounds(profile, delta)
        require(close(L, upper, rel), f"L = {L!r}, own {upper!r} at delta={delta!r}")
        require(lower - rel <= T <= math.floor(upper) + 1,
                f"T = {T} outside [L- = {lower!r}, floor(L) + 1 = {math.floor(upper) + 1}] "
                f"at delta={delta!r}")
        require(close(ratio, lam3 / lam2, rel), f"ratio {ratio!r}, own {lam3 / lam2!r}")
        require(close(init_ratio, R0 / c2, rel), f"init_ratio {init_ratio!r}, own {R0 / c2!r}")
        # alpha2 is increasing when lambda2 > every fast |lambda|, so the
        # first crossing is settled by the two steps around it.
        # (A step whose fast share is within rel of delta, or within float
        # roundoff of alpha2 near 1, may fall on either side.)
        for k, rigid in ((T, True), (T - 1, False)):
            if k < 0:
                continue
            fast = mp_fast_share(profile, k)
            if abs(fast - delta) > rel * delta + 1e-14:
                require((fast < delta) == rigid,
                        f"1 - alpha2({k}) = {float(fast)!r} against delta = {delta!r}: "
                        f"T = {T} is not the first crossing")
        if exact_two_mode:
            L_delta = lower  # with one fast mode L- is the exact crossing L_delta
            require(T == max(0, math.ceil(L_delta)),
                    f"T = {T} but ceil(L_delta) = {math.ceil(L_delta)}")


def check_analyze(text: str, spectrum: np.ndarray, fmt: str, n_states: int | None,
                  tol: float = 1e-9):
    """`analyze` on a chain: spectrum, lambda2, |lambda3| and gap against
    the benchmark's own eigenvalues (given in descending order)."""
    lam2 = float(spectrum[1])
    lam3 = float(np.max(np.abs(spectrum[2:])))
    if fmt == "json":
        data = json.loads(text)
        got = np.array(data["spectrum"], dtype=float)
        require(got.shape == spectrum.shape, f"spectrum has {got.size} values, own {spectrum.size}")
        worst = float(np.max(np.abs(got - spectrum)))
        require(worst <= tol, f"spectrum differs from own eigvalsh by {worst!r}")
    else:
        header, rows = parse_csv(text)
        require(len(rows) == 1, "analyze CSV must hold one row")
        data = dict(zip(header, rows[0]))
    require(abs(data["lambda2"] - lam2) <= tol, f"lambda2 {data['lambda2']!r}, own {lam2!r}")
    require(abs(data["lambda3_abs"] - lam3) <= tol,
            f"lambda3_abs {data['lambda3_abs']!r}, own {lam3!r}")
    require(abs(data["gap"] - (1.0 - lam2)) <= tol, f"gap {data['gap']!r}, own {1.0 - lam2!r}")
    if n_states is not None:
        require(data["n_states"] == n_states, f"n_states {data['n_states']!r} != {n_states}")


def cycle_spectrum(n: int) -> np.ndarray:
    return np.sort(np.cos(2.0 * np.pi * np.arange(n) / n))[::-1]


def check_power(stdout: str, csv_text: str, spectrum: np.ndarray, epsilon: float,
                tau: float, max_iter: int):
    """`power`: the rule stops before max_iter and true_error <= epsilon there.

    Every row's true_error is also sandwiched by the own spectrum:
    (lambda2^2 - rho)/lambda2^2 <= err^2 <= 2 (lambda2^2 - rho)/(lambda2^2 - lambda3^2),
    since err^2 = 2 (1 - sqrt(alpha2)) and lambda2^2 - rho = sum over fast
    modes of p_i (lambda2^2 - lambda_i^2)."""
    verdict = json.loads(stdout.strip().splitlines()[-1])
    require(verdict.get("verdict") == "stopped", f"power verdict {verdict.get('verdict')!r}")
    stop = verdict["stopped_at"]
    require(isinstance(stop, int) and 0 <= stop < max_iter, f"stopped_at {stop!r}")
    require(close(verdict["tau"], tau, 1e-15), f"tau {verdict['tau']!r} != {tau!r}")
    eta = tau * tau * epsilon ** 4 / 8.0
    require(close(verdict["eta"], eta, 1e-12), f"eta {verdict['eta']!r}, own {eta!r}")
    header, rows = parse_csv(csv_text)
    require(header == ["k",
            "E", "rho", "Gamma", "Vhat", "tauhat", "true_error"], f"power header {header}")
    c = columns(header, rows)
    require(c["k"] == [float(k) for k in range(stop + 1)], "power rows are not k = 0..stopped_at")
    lam2sq = float(spectrum[1]) ** 2
    lam3sq = float(np.max(np.abs(spectrum[2:]))) ** 2
    for k, (rho, err) in enumerate(zip(c["rho"], c["true_error"])):
        require(0.0 < rho <= lam2sq + 1e-12, f"rho_{k} = {rho!r} outside (0, lambda2^2]")
        lo = (lam2sq - rho) / lam2sq
        hi = 2.0 * (lam2sq - rho) / (lam2sq - lam3sq)
        require(lo - 1e-9 <= err * err <= hi + 1e-9,
                f"true_error^2 = {err * err!r} outside [{lo!r}, {hi!r}] at k={k}")
        if k + 1 < len(rows):
            require(close(c["E"][k + 1], rho * c["E"][k], 1e-9), f"E_k+1 != rho_k E_k at k={k}")
            require(c["rho"][k + 1] >= rho - 1e-12, f"rho decreases at k={k}")
    require(c["true_error"][stop] <= epsilon,
            f"true_error {c['true_error'][stop]!r} > epsilon at the stop")
    require(c["Gamma"][stop] <= eta, f"Gamma {c['Gamma'][stop]!r} > eta at the stop")


def check_fpt(text: str, chain: Chain, target: int, start: str, kmax: int):
    """`fpt`: tail = spectral_tail, nonincreasing, tail_0 = 1.

    Quasistationary start: tail_k = nu^k with nu the top eigenvalue of the
    benchmark's own surviving block.  Restricted start: tail_1 is one minus
    the pi-weighted chance, off the target, of stepping onto it."""
    header, rows = parse_csv(text)
    require(header == ["k",
            "tail", "spectral_tail", "exp_approx", "rel_err", "bound"], f"fpt header {header}")
    require(len(rows) == kmax + 1, f"{len(rows)} fpt rows for kmax={kmax}")
    c = columns(header, rows)
    tail = c["tail"]
    require(abs(tail[0] - 1.0) <= 1e-12, f"tail_0 = {tail[0]!r}")
    for k in range(kmax + 1):
        require(abs(tail[k] - c["spectral_tail"][k]) <= 1e-9,
                f"tail {tail[k]!r} != spectral {c['spectral_tail'][k]!r} at k={k}")
        if k:
            require(tail[k] <= tail[k - 1] * (1.0 + 1e-12), f"tail increases at k={k}")
    if start == "quasistationary":
        nu = chain.surviving_block_top(target)
        for k in range(kmax + 1):
            require(close(tail[k], nu ** k, 1e-9), f"tail_{k} = {tail[k]!r} but nu^k = {nu ** k!r}")
            require(close(c["exp_approx"][k], nu ** k, 1e-8),
                    f"exp_approx_{k} = {c['exp_approx'][k]!r}, nu^k = {nu ** k!r}")
    else:
        pi, P = chain.pi, chain.kernel
        keep = np.arange(chain.n) != target
        start_law = pi[keep] / pi[keep].sum()
        tail1 = 1.0 - float(np.sum(start_law * P[keep, target]))
        require(close(tail[1], tail1, 1e-10), f"tail_1 = {tail[1]!r}, own {tail1!r}")


def check_accel(text: str, profile: Profile, degree: int, steps: int, rel: float = 1e-9):
    """`accel --compare-plain`: both alpha2 columns against the own plan."""
    header, rows = parse_csv(text)
    require(header == ["step_equivalent", "alpha2_plain", "alpha2_accel"], f"accel header {header}")
    require(len(rows) == steps + 1, f"{len(rows)} accel rows for {steps} steps")
    mapped = cheb_plan(profile.lambdas, degree)
    plain = alpha2_series(profile.lambdas, profile.log_weights,
                          [K * degree for K in range(steps + 1)])
    accel = alpha2_series(mapped, profile.log_weights, range(steps + 1))
    for K, (eq, a_plain, a_acc) in enumerate(rows):
        require(eq == K * degree, f"step_equivalent {eq!r} at K={K}")
        require(close(a_plain, plain[K], rel, 1e-300),
                f"alpha2_plain {a_plain!r}, own {plain[K]!r} at K={K}")
        require(close(a_acc, accel[K], rel, 1e-300),
                f"alpha2_accel {a_acc!r}, own {accel[K]!r} at K={K}")


def hypercube_step(n: int, alpha: float) -> int:
    return max(0, round((n / 4.0) * math.log(n) + alpha * n))


def check_hypercube(text: str, n: int, alphas, overflow_ok: bool = False) -> list[float]:
    """`hypercube`: S, log E and alpha2 against exact integer binomials, and
    no cell may be non-finite.  A `logE` column is checked when present; a
    linear `E` column must then match exp(log E).

    With overflow_ok an `E` cell may read inf where the oracle's log E lies
    above the double range; every other cell is still checked.  Returns the
    offsets whose `E` reads inf.
    """
    header, rows = parse_csv(text)
    require(header[:3] == ["alpha", "k", "S_spec"] and "alpha2" in header
            and ("E" in header or "logE" in header), f"hypercube header {header}")
    require(len(rows) == len(alphas), f"{len(rows)} hypercube rows for {len(alphas)} offsets")
    overflowed = []
    for row, alpha in zip(rows, alphas):
        r = dict(zip(header, row))
        k = hypercube_step(n, alpha)
        log_E, a2, S = hypercube_oracle(n, k)
        if overflow_ok and r.get("E") == math.inf:
            require(log_E > math.log(sys.float_info.max),
                    f"E = inf at alpha = {alpha}, but the oracle's E = exp({log_E!r}) is finite")
            overflowed.append(alpha)
            del r["E"]
        require_finite(list(r), [list(r.values())])
        require(r["alpha"] == alpha and r["k"] == k,
                f"row (alpha, k) = ({r['alpha']!r}, {r['k']!r}), own ({alpha}, {k})")
        require(abs(r["S_spec"] - S) <= 1e-9 * (1.0 + S),
                f"S = {r['S_spec']!r}, oracle {S!r} at k={k}")
        require(close(r["alpha2"], a2, 1e-9, 1e-300),
                f"alpha2 = {r['alpha2']!r}, oracle {a2!r} at k={k}")
        if "logE" in r:
            require(abs(r["logE"] - log_E) <= 1e-9 * max(1.0, abs(log_E)),
                    f"logE = {r['logE']!r}, oracle {log_E!r}")
        if "E" in r:
            require(close(math.log(r["E"]), log_E, 0.0, 1e-9 * max(1.0, abs(log_E))),
                    f"E = {r['E']!r}, oracle exp({log_E!r})")
    return overflowed


# the warning numpy prints once when ModalLedger.energy overflows: the
# location line, then the source line indented by two spaces
ENERGY_OVERFLOW_WARNING = re.compile(
    r"[^\n]*specrelax[/\\]trajectory\.py:\d+: RuntimeWarning: overflow encountered in exp\n"
    r"  [^\n]+\n")


def check_hypercube_overflow(code: int, stdout: str, stderr: str, n: int, alphas):
    """`hypercube` at a size where `ModalLedger.energy` overflows to E = inf.

    A program that prints every cell finite (say, E carried as a logE
    column) with an empty stderr passes check_hypercube.  The recorded fault
    raises KnownFault only in its recorded form: exit 0, a stderr holding
    just the overflow warning, inf only in `E` cells whose true value lies
    beyond the double range, and every other cell equal to the oracle.
    Anything else raises CheckFailed.
    """
    require(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
    if stderr == "":
        check_hypercube(stdout, n, alphas)
        return
    require(ENERGY_OVERFLOW_WARNING.fullmatch(stderr) is not None,
            f"stderr is not the energy overflow warning: {stderr.strip()[-300:]}")
    overflowed = check_hypercube(stdout, n, alphas, overflow_ok=True)
    require(overflowed != [], "overflow warning printed, but no E cell reads inf")
    raise KnownFault(f"E = inf at alpha = {', '.join(map(str, overflowed))} after "
                     "'RuntimeWarning: overflow encountered in exp' from ModalLedger.energy "
                     "(trajectory.py); a finite logE column would pass")


def check_rejection(exit_code: int, stdout: str, stderr: str, error_name: str):
    """A rejected input: exit 4, nothing on stdout, one `error:` line."""
    require(exit_code == 4, f"exit code {exit_code}, expected 4 for {error_name}")
    require(stdout == "", "rejected input printed output")
    lines = stderr.splitlines()
    require(len(lines) == 1 and lines[0].startswith(f"error: {error_name}:"),
            f"stderr is {stderr!r}, expected one 'error: {error_name}:' line")
