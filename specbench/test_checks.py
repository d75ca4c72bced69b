"""Each output check accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest specbench/test_checks.py

The outputs come from running the CLI on small generated inputs; each test
then changes one value the way a wrong program would and expects CheckFailed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as ck
import inputs as gen
from run import Pass, OpRun, judge
from workloads import Op, Outcome

SRC = Path(__file__).resolve().parent.parent / "src"
ALPHAS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def cli(tmp_path, *argv, files=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "specrelax", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return Outcome(proc.returncode, proc.stdout, proc.stderr,
                   {f: (tmp_path / f).read_text() for f in files})


def edit_csv(text, row, column, fn):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(fn(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def rejects(check, *args, **kw):
    with pytest.raises(ck.CheckFailed):
        check(*args, **kw)


@pytest.fixture(scope="module")
def ledger_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    out = cli(tmp, "thermo", "paper-s8", "--seed", "5", "--steps", "30",
              "--fluxes-at", "0,7", "--out", "t.csv", files=("t.csv", "t.csv.fluxes.json"))
    return out, gen.paper_s8_profile(5)


@pytest.mark.parametrize("row,column,fn", [
    (4, "S_spec", lambda v: v + 1e-6),        # entropy balance
    (4, "B", lambda v: v + 1e-3 * abs(v) + 1e-12),  # G_k - G_k+1 = A + B
    (4, "A", lambda v: -abs(v) - 1e-9),       # A >= 0
    (9, "E", lambda v: v * (1 + 1e-7)),       # E_k+1 = rho_k E_k
    (9, "Vhat", lambda v: v * 1.01 + 1e-12),  # Vhat = rho_k (rho_k+1 - rho_k)
    (0, "alpha2", lambda v: v * (1 + 1e-7)),  # mpmath alpha2
])
def test_ledger_rejects(ledger_run, row, column, fn):
    out, profile = ledger_run
    ck.check_ledger(out.files["t.csv"], 30, profile, (0, 30))
    rejects(ck.check_ledger, edit_csv(out.files["t.csv"], row, column, fn), 30, profile, (0, 30))


def test_ledger_rejects_decreasing_rho(ledger_run):
    out, profile = ledger_run
    bad = edit_csv(out.files["t.csv"], 12, "rho", lambda v: v - 1e-6)
    with pytest.raises(ck.CheckFailed, match="rho"):
        ck.check_ledger(bad, 30)


def test_fluxes_reject_wrong_cov(ledger_run):
    out, profile = ledger_run
    fluxes = out.files["t.csv.fluxes.json"]
    ck.check_fluxes(fluxes, out.files["t.csv"], (0, 7), profile)
    data = json.loads(fluxes)
    data["7"]["cov"] *= 1.001
    rejects(ck.check_fluxes, json.dumps(data), out.files["t.csv"], (0, 7), profile)


def test_rigidity_rejects_shifted_T(tmp_path):
    profile = gen.random_profile(40, np.random.default_rng(3))
    gen.write_profile_json(tmp_path / "p.json", profile)
    deltas = (0.3, 1e-8)
    out = cli(tmp_path, "rigidity", "p.json", "--delta", "0.3,1e-08")
    ck.check_rigidity(out.stdout, profile, deltas)
    for shift in (1, -1):
        rejects(ck.check_rigidity, edit_csv(out.stdout, 1, "T_rigid", lambda v: v + shift),
                profile, deltas)


def test_rigidity_two_mode_is_exact(tmp_path):
    out = cli(tmp_path, "rigidity", "s8-two-mode", "--delta", "0.3,0.01")
    ck.check_rigidity(out.stdout, gen.s8_two_mode_profile(), (0.3, 0.01), exact_two_mode=True)
    bad = edit_csv(out.stdout, 0, "L", lambda v: v * 1.01)
    rejects(ck.check_rigidity, bad, gen.s8_two_mode_profile(), (0.3, 0.01), exact_two_mode=True)


def test_analyze_rejects_wrong_spectrum(tmp_path):
    chain = gen.two_cluster_chain(30, np.random.default_rng(4), cross=0.05)
    gen.write_kernel_csv(tmp_path / "c.csv", chain.kernel)
    out = cli(tmp_path, "analyze", "c.csv", "--format", "json")
    spectrum = chain.spectrum()
    ck.check_analyze(out.stdout, spectrum, "json", 30)
    data = json.loads(out.stdout)
    data["spectrum"][17] += 1e-6
    rejects(ck.check_analyze, json.dumps(data), spectrum, "json", 30)
    csv_out = cli(tmp_path, "analyze", "c.csv")
    ck.check_analyze(csv_out.stdout, spectrum, "csv", 30)
    rejects(ck.check_analyze, edit_csv(csv_out.stdout, 0, "lambda2", lambda v: v - 1e-6),
            spectrum, "csv", 30)


def test_power_rejects_late_error(tmp_path):
    chain = gen.two_cluster_chain(40, np.random.default_rng(6))
    gen.write_kernel_csv(tmp_path / "c.csv", chain.kernel)
    spectrum = chain.spectrum()
    tau = 1.0 - (float(np.max(np.abs(spectrum[2:]))) / float(spectrum[1])) ** 2
    out = cli(tmp_path, "power", "c.csv", "--tau", repr(tau), "--max-iter", "500",
              "--out", "p.csv", files=("p.csv",))
    ck.check_power(out.stdout, out.files["p.csv"], spectrum, 0.1, tau, 500)
    last = len(out.files["p.csv"].splitlines()) - 2
    rejects(ck.check_power, out.stdout, edit_csv(out.files["p.csv"], last, "true_error",
                                                 lambda v: 0.11), spectrum, 0.1, tau, 500)
    ended = out.stdout.replace('"stopped"', '"stream-ended"')
    rejects(ck.check_power, ended, out.files["p.csv"], spectrum, 0.1, tau, 500)


def test_fpt_rejects_wrong_tail(tmp_path):
    chain = gen.two_cluster_chain(30, np.random.default_rng(7))
    gen.write_kernel_json(tmp_path / "c.json", chain.kernel)
    for start in ("quasistationary", "restricted"):
        out = cli(tmp_path, "fpt", "c.json", "--start", start, "--target", "3")
        ck.check_fpt(out.stdout, chain, 3, start, 50)
        rejects(ck.check_fpt, edit_csv(out.stdout, 1, "tail", lambda v: v * (1 - 1e-7)),
                chain, 3, start, 50)


def test_accel_rejects_wrong_alpha2(tmp_path):
    profile = gen.random_profile(30, np.random.default_rng(8))
    gen.write_profile_json(tmp_path / "p.json", profile)
    out = cli(tmp_path, "accel", "p.json", "--compare-plain", "--steps", "8")
    ck.check_accel(out.stdout, profile, 4, 8)
    rejects(ck.check_accel, edit_csv(out.stdout, 3, "alpha2_accel", lambda v: v * (1 + 1e-6)),
            profile, 4, 8)


def test_hypercube_oracle_and_log_energy_fix(tmp_path):
    out = cli(tmp_path, "hypercube", "--n", "256")
    ck.check_hypercube(out.stdout, 256, ALPHAS)
    rejects(ck.check_hypercube, edit_csv(out.stdout, 2, "S_spec", lambda v: v + 1e-6), 256, ALPHAS)
    rejects(ck.check_hypercube, edit_csv(out.stdout, 0, "E", lambda v: math.inf), 256, ALPHAS)
    # a later fix may print logE in place of the overflowing linear column
    header, rows, j = to_log_energy(out.stdout)
    for r in rows:
        r[j] = repr(math.log(float(r[j])))
    fixed = "\n".join(",".join(x) for x in [header, *rows]) + "\n"
    ck.check_hypercube(fixed, 256, ALPHAS)


@pytest.fixture(scope="module")
def hypercube_4096(tmp_path_factory):
    return cli(tmp_path_factory.mktemp("cube"), "hypercube", "--n", "4096")


def to_log_energy(text):
    """The hypercube CSV with its E column carried as logE."""
    lines = text.splitlines()
    header = lines[0].split(",")
    j = header.index("E")
    header[j] = "logE"
    rows = [line.split(",") for line in lines[1:]]
    return header, rows, j


def test_hypercube_4096_overflow_is_caught(hypercube_4096):
    rejects(ck.check_hypercube, hypercube_4096.stdout, 4096, ALPHAS)


def test_hypercube_overflow_is_known_only_in_its_recorded_form(hypercube_4096):
    out = hypercube_4096
    with pytest.raises(ck.KnownFault):
        ck.check_hypercube_overflow(out.code, out.stdout, out.stderr, 4096, ALPHAS)
    wrong_s = edit_csv(out.stdout, 1, "S_spec", lambda v: v + 1e-6)
    wrong_a2 = edit_csv(out.stdout, 3, "alpha2", lambda v: v * (1 + 1e-6))
    inf_s = edit_csv(out.stdout, 2, "S_spec", lambda v: math.inf)
    inf_finite_e = edit_csv(out.stdout, 1, "E", lambda v: math.inf)   # E fits in a double
    for code, stdout, stderr in [
            (1, out.stdout, out.stderr),
            (0, out.stdout, out.stderr + "Traceback (most recent call last):\n"),
            (0, out.stdout, ""),
            (0, wrong_s, out.stderr),
            (0, wrong_a2, out.stderr),
            (0, inf_s, out.stderr),
            (0, inf_finite_e, out.stderr),
            (0, out.stdout.replace("inf", "1e308"), out.stderr)]:
        rejects(ck.check_hypercube_overflow, code, stdout, stderr, 4096, ALPHAS)


def test_hypercube_log_energy_fix_passes(hypercube_4096):
    header, rows, j = to_log_energy(hypercube_4096.stdout)
    for r, alpha in zip(rows, ALPHAS):
        r[j] = repr(ck.hypercube_oracle(4096, ck.hypercube_step(4096, alpha))[0])
    fixed = "\n".join(",".join(x) for x in [header, *rows]) + "\n"
    ck.check_hypercube_overflow(0, fixed, "", 4096, ALPHAS)


def test_rejection_needs_exit_4_and_one_error_line(tmp_path):
    gen.write_kernel_csv(tmp_path / "n.csv", gen.nonreversible_kernel(np.random.default_rng(9)))
    out = cli(tmp_path, "analyze", "n.csv")
    ck.check_rejection(out.code, out.stdout, out.stderr, "NotReversible")
    rejects(ck.check_rejection, 0, out.stdout, out.stderr, "NotReversible")
    rejects(ck.check_rejection, out.code, out.stdout, out.stderr + "warning\n", "NotReversible")
    rejects(ck.check_rejection, out.code, out.stdout, out.stderr, "Reducible")


def test_repeats_must_print_the_same_bytes():
    ops = [Op("a", [], lambda out: None), Op("b", [], lambda out: None)]

    class FirstRuns:
        first = {0: None, 1: None}

    same = [Pass(False, 1.0, [OpRun(1.0, 1.0, "x"), OpRun(1.0, 1.0, "y")]) for _ in range(3)]
    assert judge(ops, FirstRuns, same)[:3] == (True, 6, 0)
    changed = same[:2] + [Pass(False, 1.0, [OpRun(1.0, 1.0, "x"), OpRun(1.0, 1.0, "z")])]
    correct, attempted, failed, lines = judge(ops, FirstRuns, changed)
    assert (correct, attempted, failed) == (False, 6, 1) and "differs" in lines[0]


def test_known_fault_counts_as_failed_but_correct():
    def known(out):
        raise ck.KnownFault("recorded")

    ops = [Op("a", [], lambda out: None), Op("b", [], known)]

    class FirstRuns:
        first = {0: None, 1: None}

    same = [Pass(False, 1.0, [OpRun(1.0, 1.0, "x"), OpRun(1.0, 1.0, "y")]) for _ in range(3)]
    correct, attempted, failed, lines = judge(ops, FirstRuns, same)
    assert (correct, attempted, failed) == (True, 6, 3) and "known fault: recorded" in lines[0]
    # a repeat of the known-fault operation that prints other bytes is not the recorded fault
    changed = same[:2] + [Pass(False, 1.0, [OpRun(1.0, 1.0, "x"), OpRun(1.0, 1.0, "z")])]
    correct, attempted, failed, lines = judge(ops, FirstRuns, changed)
    assert (correct, attempted, failed) == (False, 6, 3) and "differs" in lines[0]
