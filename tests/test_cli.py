import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrelax as sr
from specrelax import power_iter
from specrelax.cli import LEDGER_COLUMNS, full_ledger_rows, main
from specrelax.io import dump_json, fmt, load_input_file

import oracles
from conftest import birth_death, random_reversible
from oracles import load_profile_file, save_profile

TINY = np.finfo(float).tiny
# the one refusal of a stationary chain solve whose lambda2 is next to 1
UNRESOLVED_GAP = ("error: OutOfRange: lambda2 is within 1e-15 of 1, where the gap "
                  "1 - lambda2 is not resolved\n")

# no overflow, underflow or invalid operation may reach CLI output unreported
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cli(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestAnalyze:
    def test_cycle_reports_degenerate_pair(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run_cli(["analyze", "cycle-5", "--format", "json",
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["degenerate_slow_pair"] is True
        assert data["L_0.1"] == "inf"

    def test_two_state_chain_file(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"kernel": [[0.9, 0.1], [0.3, 0.7]]}))
        out = tmp_path / "a.json"
        assert run_cli(["analyze", str(chain_file), "--format", "json",
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n_states"] == 2
        assert data["spectrum"][1] == pytest.approx(0.6, abs=1e-12)

    def test_ratio_is_blank_when_lambda2_is_roundoff(self, capsys):
        # complete graphs: lambda2 = 0 up to roundoff, so |lambda3|/lambda2 is noise
        assert run_cli(["analyze", "k5"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), row.split(",")))
        assert row["ratio"] == ""
        assert float(row["lambda2"]) == 0.0
        for preset, has_ratio in (("k6", False), ("cycle-50", True)):
            assert run_cli(["analyze", preset, "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert (data["ratio"] is not None) == has_ratio
            assert data["lambda2"] == data["spectrum"][1]

    def test_wide_stationary_law_is_analyzed(self, tmp_path, capsys):
        # lazy birth-death chain, n = 1000, up/down ratio 0.9: pi spans 47
        # decades, where phi_1 = u / sqrt(pi) cannot be resolved as constant
        n, up, down = 1000, 0.225, 0.25
        i = np.arange(n - 1)
        P = np.zeros((n, n))
        P[i, i + 1] = up
        P[i + 1, i] = down
        P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
        chain_file = tmp_path / "birth_death.json"
        chain_file.write_text(json.dumps({"kernel": P.tolist()}))
        assert run_cli(["analyze", str(chain_file), "--tol", "pi_floor=0",
                        "--format", "json"]) == 0
        got = np.array(json.loads(capsys.readouterr().out)["spectrum"])
        # W = diag(pi) P with pi_i proportional to (up/down)^i; the scale of pi
        # cancels in D^{-1/2} W D^{-1/2}
        pi = (up / down) ** np.arange(n)
        W = pi[:, None] * P
        want = np.linalg.eigvalsh(W / np.sqrt(pi)[:, None] / np.sqrt(pi))[::-1]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_one_state_chain_is_refused(self, tmp_path, capsys):
        # a one-entry spectrum has no lambda2: this ended in an IndexError traceback
        chain_file = tmp_path / "one.csv"
        chain_file.write_text("1\n")
        assert run_cli(["analyze", str(chain_file)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: InvalidSize: analyze needs at least two states: "
                                "a one-state chain has no nontrivial eigenvalue\n")

    @pytest.mark.parametrize("bridge", [1e-16, 1e-20])
    def test_lambda2_next_to_one_is_refused(self, bridge, tmp_path, capsys):
        # lambda2 was clipped at 1 - 1e-15 without a message: both bridges
        # printed a gap of 9.99e-16, against about 3.3e-17 and 3.3e-21
        chain_file = tmp_path / "barbell.csv"
        np.savetxt(chain_file, sr.barbell_chain(3, bridge).kernel, delimiter=",", fmt="%.17g")
        assert run_cli(["analyze", str(chain_file)]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", UNRESOLVED_GAP)

    @pytest.mark.parametrize("eps", [5e-10, 5e-11])
    def test_small_real_lambda2_is_not_roundoff(self, eps, tmp_path, capsys):
        # every |lambda| <= tol.eigen_residual = 1e-9 was set to 0, and lambda2
        # printed 0, though the solve proves it to about 1e-15
        a = (1 + eps) / 2
        chain_file = tmp_path / "two.csv"
        np.savetxt(chain_file, [[a, 1 - a], [1 - a, a]], delimiter=",", fmt="%.17g")
        assert run_cli(["analyze", str(chain_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # the spectrum of [[a, b], [b, a]] is (a + b, a - b), and a - b is exact
        assert abs(data["lambda2"] - (a - (1 - a))) <= 1e-15
        assert data["spectrum"][1] == data["lambda2"]

    def test_csv_chain_file(self, tmp_path):
        chain_file = tmp_path / "chain.csv"
        chain_file.write_text("0.9,0.1\n0.3,0.7\n")
        out = tmp_path / "a.csv"
        assert run_cli(["analyze", str(chain_file), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "lambda2" in header


def _count_eigensolves(monkeypatch) -> dict:
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kw):
            counts[_name] += 1
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestEigensolveCalls:
    """Only commands that read eigenvectors pay for them."""

    def test_analyze_solves_for_eigenvalues_only(self, monkeypatch, capsys):
        counts = _count_eigensolves(monkeypatch)
        assert run_cli(["analyze", "cycle-50", "--format", "json"]) == 0
        assert counts == {"eigh": 0, "eigvalsh": 1}

    def test_fpt_needs_eigenvectors_of_the_block_only(self, monkeypatch, capsys):
        counts = _count_eigensolves(monkeypatch)
        assert run_cli(["fpt", "barbell-metastable", "--kmax", "5"]) == 0
        assert counts == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("argv, solve", [
        (["analyze", "cycle-50"], "eigvalsh"),
        (["simulate", "cycle-50", "--steps", "3"], "eigh"),
        (["power", "cycle-50", "--max-iter", "3"], "eigh"),
    ])
    def test_chain_solves_leave_out_the_stationary_mode(self, argv, solve, monkeypatch,
                                                        capsys):
        # the known stationary mode is deflated: LAPACK gets one (n-1) x (n-1) matrix
        shapes, real = [], getattr(np.linalg, solve)
        monkeypatch.setattr(np.linalg, solve,
                            lambda a, *args, **kw: shapes.append(a.shape) or real(a, *args, **kw))
        assert run_cli(argv) == 0
        assert shapes == [(49, 49)]


class TestImportClosure:
    """Each command loads only its own modules: the per-call import floor."""

    SHARED = ["chains", "cli", "errors", "io", "presets", "trajectory"]
    CLOSURES = [
        (["analyze", "k5"], ["rigidity"]),
        (["rigidity", "s8-two-mode"], ["rigidity"]),
        (["simulate", "paper-s8", "--steps", "5"], ["power_iter", "rigidity", "thermo"]),
        (["thermo", "paper-s8", "--steps", "5"], ["power_iter", "rigidity", "thermo"]),
        (["power", "barbell-metastable", "--max-iter", "5"], ["power_iter"]),
        (["fpt", "barbell-metastable", "--kmax", "5"], ["first_passage"]),
        (["accel", "paper-s8", "--steps", "3"], ["accel", "rigidity"]),
        (["hypercube", "--n", "64"], ["thermo"]),
    ]

    @staticmethod
    def _loaded_after(code: str) -> list:
        """The specrelax submodules a fresh interpreter holds after `code`."""
        src = Path(sr.__file__).resolve().parents[1]
        code += ("; import json, sys; print(json.dumps(sorted("
                 "m for m in sys.modules if m.startswith('specrelax.'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
        return json.loads(out.splitlines()[-1])

    def test_package_import_loads_no_submodule(self):
        assert self._loaded_after("import specrelax") == []

    @pytest.mark.parametrize("argv, own", CLOSURES, ids=lambda v: " ".join(v))
    def test_command_loads_its_closure(self, argv, own, tmp_path):
        out = str(tmp_path / "out")
        loaded = self._loaded_after(
            f"from specrelax.cli import main; assert main({argv + ['--out', out]!r}) == 0")
        assert loaded == sorted(f"specrelax.{m}" for m in self.SHARED + own)


class TestProfileDomain:
    def test_tiny_separated_pair(self, tmp_path, capsys):
        # lambda = (1e-200, 5e-201) is a 2:1 pair, not a tie
        prof = tmp_path / "tiny.json"
        prof.write_text(json.dumps({"eigenvalues": [1e-200, 5e-201],
                                    "log_weights": [0.0, math.log(100.0)]}))
        assert run_cli(["analyze", str(prof), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate_slow_pair"] is False and data["delta_star"] == 0.5
        assert math.isfinite(data["L_0.1"])
        assert run_cli(["rigidity", str(prof), "--delta", "0.01"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(6.643856189774725, rel=1e-12)
        assert row[2] == "7"

    @pytest.mark.parametrize("source", [
        "k2",                                       # one mode, lambda2 = 0
        {"eigenvalues": [0.5, -0.5], "log_weights": [0.0, math.log(0.01)]},   # a tie
        {"eigenvalues": [0.9, 0.5], "log_weights": [0.0, 0.0]},
    ], ids=["k2", "tie", "separated"])
    def test_analyze_prints_the_bound_that_rigidity_prints(self, source, tmp_path, capsys):
        # one bound for both: L = 0 where the fast weight is at most 0.1 of the
        # slow one, also where delta_star is None (k2 and the tie)
        if isinstance(source, dict):
            path = tmp_path / "prof.json"
            path.write_text(json.dumps(source))
            source = str(path)
        assert run_cli(["analyze", source, "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)["L_0.1"]
        assert run_cli(["rigidity", source, "--delta", "0.1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert printed == float(row[1])

    @pytest.mark.parametrize("command", ["simulate", "thermo"])
    def test_energy_beyond_the_doubles_is_refused(self, command, tmp_path, capsys):
        # E_0 = e^800: every E printed inf and G, A, B nan, with exit 0
        prof = tmp_path / "big.json"
        prof.write_text(json.dumps({"eigenvalues": [0.9, 0.5], "log_weights": [800.0, 0.0]}))
        assert run_cli([command, str(prof), "--steps", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: OutOfRange: ln E = 800.0 at step 0")
        assert captured.err.count("\n") == 1


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(["simulate", "paper-s8", "--seed", "42",
                            "--steps", "40", "--out", str(path)]) == 0
        assert read(a) == read(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["simulate", "paper-s8", "--seed", "1", "--steps", "10",
                 "--out", str(a)])
        run_cli(["simulate", "paper-s8", "--seed", "2", "--steps", "10",
                 "--out", str(b)])
        assert read(a) != read(b)

    def test_all_presets_deterministic(self, tmp_path):
        cases = [
            ["rigidity", "s8-two-mode"],
            ["hypercube", "--n", "32"],
            ["fpt", "barbell-metastable", "--target", "0", "--kmax", "15"],
            ["accel", "s8-two-mode", "--degree", "4", "--compare-plain",
             "--steps", "6"],
            ["power", "barbell-metastable", "--epsilon", "0.2", "--max-iter",
             "80"],
        ]
        for i, argv in enumerate(cases):
            a, b = tmp_path / f"{i}a.out", tmp_path / f"{i}b.out"
            assert run_cli(argv + ["--seed", "7", "--out", str(a)]) == 0
            assert run_cli(argv + ["--seed", "7", "--out", str(b)]) == 0
            assert read(a) == read(b), argv



class TestOutputRouting:
    """Every output reaches stdout with the same bytes it gives the --out file."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "k5"],
        ["analyze", "k5", "--format", "json"],
        ["analyze", "cycle-50", "--format", "json"],
        ["simulate", "paper-s8", "--steps", "4", "--format", "json"],
    ])
    def test_stdout_equals_out_file(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.encode() == read(out)

    def test_thermo_fluxes_line_precedes_the_ledger(self, tmp_path, capsys):
        argv = ["thermo", "paper-s8", "--steps", "6", "--fluxes-at", "0,5"]
        out = tmp_path / "t.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert run_cli(argv) == 0
        fluxes = read(tmp_path / "t.csv.fluxes.json")
        assert capsys.readouterr().out.encode() == fluxes + read(out)
        assert fluxes.count(b"\n") == 1

    @pytest.mark.parametrize("argv, kinds", [
        (["thermo", "s8-two-mode", "--steps", "1", "--fluxes-at", "0"], [dict, list]),
        (["power", "barbell-metastable", "--max-iter", "5"], [list, dict]),
    ])
    def test_json_stdout_is_json_lines(self, argv, kinds, capsys):
        # the flux object then the ledger, or the rows then the verdict: one a line
        assert run_cli(argv + ["--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [type(json.loads(line)) for line in lines] == kinds

    def test_power_verdict_stays_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli(["power", "barbell-metastable", "--format", "json",
                        "--out", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        rows = json.loads(out.read_text())
        assert verdict["verdict"] == "stopped"
        assert rows[-1]["k"] == verdict["stopped_at"]

class TestRigidityCommand:
    def test_benchmark_row(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["rigidity", "s8-two-mode", "--delta", "0.1",
                        "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "delta,L,T_rigid,ratio,init_ratio"
        vals = row.split(",")
        assert float(vals[0]) == 0.1
        assert float(vals[1]) == pytest.approx(7.367518, abs=1e-3)
        assert int(vals[2]) == 8
        assert float(vals[4]) == pytest.approx(9.0, rel=1e-10)

    def test_unreached_row_has_empty_t(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["rigidity", "cycle-5", "--delta", "0.1",
                        "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[1] == "inf"
        assert row[2] == ""


    @pytest.mark.parametrize("preset", ["k5", "k6"])
    def test_rank_one_chain_is_rigid_at_step_one(self, preset, capsys):
        # every mode of a rank-one kernel dies at k = 1: terminal rigidity
        assert run_cli(["rigidity", preset]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[2] for r in rows] == ["1", "1", "1"]
        # lambda2 = 0, so |lambda3|/lambda2 is undefined: blank, as in analyze
        assert [r[3] for r in rows] == ["", "", ""]


class TestLedgerCommands:
    def test_simulate_columns_and_roundtrip(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", "s8-two-mode", "--steps", "30",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,E,rho,d,alpha2,S_spec,Cov,KL,G,A,B,Gamma,Vhat"
        prof = sr.profile_from_weights([0.95, 0.70], [0.1, 0.9])
        for line in lines[1:]:
            cells = line.split(",")
            k = int(cells[0])
            led = oracles.ledger_at(prof, k)
            bal = oracles.entropy_balance(prof, k)
            step = oracles.G_step(prof, k)
            # round-trip: 17 significant digits reproduce the doubles exactly,
            # and the blocked rows equal the per-step views across block edges
            assert float(cells[1]) == led.energy
            assert float(cells[2]) == led.rho
            assert [float(c) for c in cells[6:11]] == [
                bal.cov, bal.kl, step.G_k, step.A, step.B]
        assert len(lines) == 32

    def test_tiny_mode_keeps_B_finite(self, tmp_path):
        # lambda^2 underflows to 0 for |lambda| < ~1.5e-154
        prof_file = tmp_path / "tiny.json"
        prof_file.write_text(json.dumps(
            {"eigenvalues": [0.9, 0.5, 1e-200], "log_weights": [0.0, 0.0, 0.0]}))
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", str(prof_file), "--steps", "20",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        B = [float(line.split(",")[10]) for line in lines[1:]]
        assert len(B) == 21
        assert all(math.isfinite(b) and b >= 0.0 for b in B)

    def test_underflowing_rho_is_a_domain_error(self, tmp_path, capsys):
        # at k = 0 the lambda = 0 mode holds all the energy that a double
        # resolves, so rho_0 = 0 while step 1 lives on
        prof_file = tmp_path / "rho0.json"
        prof_file.write_text(json.dumps(
            {"eigenvalues": [0.0, 0.5], "log_weights": [0.0, -800.0]}))
        for command in ("simulate", "thermo"):
            assert run_cli([command, str(prof_file), "--steps", "3"]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: DeadTrajectory: rho underflows to 0 at step 0")
            assert "\n" not in err.strip()

    def test_thermo_flux_json(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["thermo", "s8-two-mode", "--steps", "10",
                        "--fluxes-at", "0,4", "--out", str(out)]) == 0
        fluxes = json.loads((tmp_path / "t.csv.fluxes.json").read_text())
        assert set(fluxes) == {"0", "4"}
        assert fluxes["0"]["cov"] > 0
        assert fluxes["4"]["cov"] > 0 or fluxes["4"]["cov"] < 0

    def test_flux_cov_is_the_ledger_cov(self, tmp_path):
        # one block for every requested step, repeats and order included,
        # reduces row by row: each cov is bit for bit the CSV's Cov cell
        out = tmp_path / "t.csv"
        assert run_cli(["thermo", "paper-s8", "--steps", "10",
                        "--fluxes-at", "7,0,7,3", "--out", str(out)]) == 0
        fluxes = json.loads((tmp_path / "t.csv.fluxes.json").read_text())
        lines = out.read_text().splitlines()
        col = lines[0].split(",").index("Cov")
        cov = {row.split(",")[0]: float(row.split(",")[col]) for row in lines[1:]}
        assert sorted(fluxes) == ["0", "3", "7"]
        for k, entry in fluxes.items():
            assert entry["cov"] == cov[k]

    def test_terminal_profile_row(self, tmp_path):
        prof_file = tmp_path / "dead.json"
        prof_file.write_text(json.dumps(
            {"eigenvalues": [0.0, 0.0], "log_weights": [0.0, 0.0]}))
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", str(prof_file), "--steps", "5",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("1,0")
        assert len(lines) == 3  # header, k=0, terminal k=1


    def test_roundoff_eigenvalues_die_at_the_first_step(self, capsys):
        # k6 has rank one: every nontrivial eigenvalue is exactly 0 and
        # computes as roundoff near 1e-17, so E_1 = 0 and the ledger ends there
        assert run_cli(["simulate", "k6", "--steps", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[0][2] == "0"
        assert rows[1] == ["1", "0"] + [""] * 11
        assert len(rows) == 2


class TestPowerCommand:
    def test_barbell_run(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli(["power", "barbell-metastable", "--epsilon", "0.1",
                        "--tau", "0.5", "--max-iter", "100",
                        "--out", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert verdict["verdict"] in ("stopped", "stream-ended")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,E,rho,Gamma,Vhat,tauhat,true_error"
        if verdict["verdict"] == "stopped":
            last = lines[-1].split(",")
            assert float(last[-1]) <= 0.1

    def test_profile_input_rejected(self, capsys):
        assert run_cli(["power", "paper-s8"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_stop_ends_the_stream(self, tmp_path, capsys, monkeypatch):
        # a stop at step k pulls k + 2 items, however large --max-iter is
        pulls = []
        real_steps = power_iter.power_steps

        def counted(chain, g0):
            for item in real_steps(chain, g0):
                pulls.append(1)
                yield item

        monkeypatch.setattr(power_iter, "power_steps", counted)
        outputs = []
        for max_iter in ("100000", "30"):
            out = tmp_path / f"p{max_iter}.csv"
            pulls.clear()
            assert run_cli(["power", "barbell-metastable", "--tau", "0.5",
                            "--max-iter", max_iter, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out
            outputs.append((stdout, read(out)))
            verdict = json.loads(stdout)
            assert verdict["verdict"] == "stopped"
            assert len(pulls) == verdict["stopped_at"] + 2
        rows = [line.split(",") for line in outputs[0][1].decode().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(verdict["stopped_at"] + 1))
        assert {r[5] for r in rows} == {"0.5"}
        assert outputs[0] == outputs[1]

    def test_dying_stream_writes_its_last_row(self, capsys):
        # every nontrivial eigenvalue of k5 is 0: the stream ends after step 0,
        # whose row has rho_0 = 0 and no rho_1 for Gamma or Vhat
        assert run_cli(["power", "k5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,E,rho,Gamma,Vhat,tauhat,true_error"
        row = lines[1].split(",")
        assert row[0] == "0" and float(row[1]) > 0 and row[2] == "0"
        assert row[3] == row[4] == ""
        assert math.isfinite(float(row[6]))
        assert json.loads(lines[2])["verdict"] == "stream-ended"
        # a run cut by --max-iter still holds its last row back
        assert run_cli(["power", "k5", "--max-iter", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_eta_below_gamma_floor_runs_on_unresolvable(self, tmp_path, capsys):
        # eta = 3.1e-38 is below what Gamma resolves; Gamma reads 0 at k = 30,
        # where the old rule stopped with true_error 1.85e-8 > epsilon
        out = tmp_path / "u.csv"
        assert run_cli(["power", "barbell-metastable", "--epsilon", "1e-9", "--tau", "0.5",
                        "--max-iter", "3000", "--seed", "3", "--out", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "unresolvable" and verdict["stopped_at"] is None
        assert verdict["eta"] < power_iter.GAMMA_FLOOR
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(2999))
        assert rows[30][3] == "0" and rows[29][3] != "0"
        assert all(r[3] == r[4] == "" for r in rows[31:])

    def test_roundoff_iterate_ends_the_stream(self, tmp_path, capsys):
        # rank one with a non-uniform pi: rho_0 was roundoff (6.1e-64), Gamma_0
        # 8.1e31, and the run "stopped" at k = 3 with true_error 1.414
        pi = [0.1, 0.2, 0.3, 0.15, 0.25]
        path = tmp_path / "r1b.csv"
        path.write_text("\n".join(",".join(map(repr, pi)) for _ in pi) + "\n")
        assert run_cli(["power", str(path), "--seed", "0", "--max-iter", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "0" and row[2] == "0" and row[3] == row[4] == ""
        assert json.loads(lines[2])["verdict"] == "stream-ended"

    def test_tau_collapse_streams_on_to_max_iter(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli(["power", "cycle-20", "--max-iter", "60", "--out", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "tau-collapse"
        step = int(verdict["detail"].rsplit(" ", 1)[1])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(59))
        assert all(r[3] != "" for r in rows[:step + 1])
        assert all(r[3] == r[4] == "" for r in rows[step + 1:])
        assert {r[5] for r in rows[step:]} == {fmt(verdict["tau"])}

    @pytest.mark.parametrize("argv, settled", [
        (["barbell-metastable", "--tau", "0.5"], "stopped"),
        (["barbell-metastable", "--epsilon", "1e-9", "--tau", "0.5",
          "--max-iter", "3000", "--seed", "3"], "unresolvable"),
        (["k5"], "stream-ended"),
        (["cycle-20", "--max-iter", "60"], "tau-collapse"),
    ])
    def test_verdict_line_is_the_folds(self, argv, settled, tmp_path, capsys):
        # the line reads the fold's verdict; only a collapse carries a detail,
        # the one the fold settled on the same rho stream
        assert run_cli(["power", *argv, "--out", str(tmp_path / "p.csv")]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == settled
        assert ("detail" in verdict) == (settled == "tau-collapse")
        if settled == "tau-collapse":
            chain = sr.cycle_graph(20)
            state = sr.StoppingState(epsilon=0.1, tau=None)
            g0 = np.random.default_rng(0).standard_normal(chain.n)
            for _, rho, _ in sr.power_steps(chain, g0):
                state.update(rho)
                if state.verdict != "running":
                    break
            assert verdict["detail"] == state.detail

    @pytest.mark.parametrize("flags", [["--epsilon", "0"], ["--epsilon", "2"],
                                       ["--tau", "5"], ["--tau", "0"]])
    def test_epsilon_and_tau_outside_unit_interval(self, flags, capsys):
        assert run_cli(["power", "barbell-metastable", *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidArguments:")
        assert captured.err.count("\n") == 1


class TestAccelCommand:
    def test_compare_traces(self, tmp_path):
        out = tmp_path / "acc.csv"
        assert run_cli(["accel", "s8-two-mode", "--degree", "4",
                        "--compare-plain", "--steps", "8",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step_equivalent,alpha2_plain,alpha2_accel"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [4 * i for i in range(9)]
        # acceleration reaches rigidity earlier in equivalent steps
        accel_cross = next(int(r[0]) for r in rows if float(r[2]) >= 0.9)
        plain_cross = next(int(r[0]) for r in rows if float(r[1]) >= 0.9)
        assert accel_cross <= plain_cross

    def test_both_columns_follow_the_profile_slow_mode(self, tmp_path, capsys):
        # -0.99 lies outside [-0.6, 0.6] and maps above the slow mode 0.6
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"eigenvalues": [0.6, -0.99, 0.1],
                                    "log_weights": np.log([0.5, 0.3, 0.2]).tolist()}))
        assert run_cli(["accel", str(prof), "--interval", "-0.6,0.6", "--compare-plain",
                        "--steps", "2"]) == 0
        step0 = capsys.readouterr().out.splitlines()[1].split(",")
        assert step0[1] == step0[2]
        assert float(step0[1]) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("x", ["1.5", "0", "-0.5"])
    def test_paper_simple_out_of_range(self, x, capsys):
        # the paper's simple plan T_m(x/lambda2)/T_m(1/lambda2) is --interval -X,X
        neg = x[1:] if x.startswith("-") else "-" + x
        assert run_cli(["accel", "paper-s8", "--interval", f"{neg},{x}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidInterval: need a < b < 1, got [")

    def test_paper_simple_option_is_gone(self, capsys):
        assert run_cli(["accel", "paper-s8", "--paper-simple", "0.95"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ConfigError: unrecognized arguments: "
                                "--paper-simple 0.95\n")


class TestFptCommand:
    def test_tail_columns(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["fpt", "barbell-metastable", "--target", "0",
                        "--kmax", "25", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,tail,spectral_tail,exp_approx,rel_err,bound"
        tails = [float(line.split(",")[1]) for line in lines[1:]]
        assert tails[0] == 1.0
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_underflowed_one_mode_tail(self, tmp_path):
        # nu_2 = 0.54: alpha_2 nu_2^k underflows to 0 at k = 1214, where the
        # bound's relative error divided by it and ended in a ZeroDivisionError
        chain_file = tmp_path / "chain.csv"
        chain_file.write_text("0.5,0.3,0.2\n0.6,0.3,0.1\n0.4,0.1,0.5\n")
        out = tmp_path / "f.csv"
        assert run_cli(["fpt", str(chain_file), "--kmax", "1300", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        zero = [row for row in rows if float(row[3]) == 0.0]
        assert zero and all(row[4:] == ["", ""] for row in zero)
        normal = [row for row in rows if min(float(row[1]), float(row[3])) >= TINY]
        assert all(row[4] != "" and row[5] != "" for row in normal)

    def test_subnormal_tails_leave_rel_err_blank(self, tmp_path):
        # below DBL_MIN both tails are quantized in steps of 4.9e-324: the same
        # chain printed rel_err 0.0021, 0, 0.045, 0.14, 0.5 and 1 at k = 1203-1213
        chain_file = tmp_path / "chain.csv"
        chain_file.write_text("0.5,0.3,0.2\n0.6,0.3,0.1\n0.4,0.1,0.5\n")
        out = tmp_path / "f.json"
        assert run_cli(["fpt", str(chain_file), "--kmax", "1300", "--format", "json",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        subnormal = [r for r in rows if min(r["tail"], r["exp_approx"]) < TINY]
        assert [r["k"] for r in subnormal] == list(range(1155, 1301))
        assert all(r["rel_err"] is None and r["bound"] is None for r in subnormal)
        normal = [r for r in rows if r not in subnormal]
        assert all(r["rel_err"] is not None and r["bound"] is not None for r in normal)
        assert max(r["rel_err"] for r in normal if r["k"] >= 100) <= 1e-12

    @pytest.mark.parametrize("source", ["k6", "lazy-cycle-7"])
    def test_bound_holds_where_the_slow_pair_ties(self, source, tmp_path, capsys):
        # the block's bound needs no slow/fast split of the chain: a bound read
        # off the tied base pair printed 8.77e31 for k6 and 1.19e14 for the
        # lazy 7-cycle, where analyze reports degenerate_slow_pair
        if source == "lazy-cycle-7":
            source = str(tmp_path / "lazy7.csv")
            np.savetxt(source, _lazy_cycle(7), delimiter=",", fmt="%.17g")
        assert run_cli(["analyze", source, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["degenerate_slow_pair"] is True
        assert run_cli(["fpt", source, "--kmax", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4 and all(r["rel_err"] <= r["bound"] for r in rows)

    def test_bound_holds_on_the_metastable_barbell(self, capsys):
        # a bound from the base pair, C (delta + r (|lambda3|/lambda2)^(2k)),
        # printed 0.31272 against rel_err 0.33318 at k = 1
        assert run_cli(["fpt", "barbell-metastable", "--kmax", "3", "--target", "2",
                        "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["rel_err"] <= r["bound"] for r in rows)
        assert rows[1]["rel_err"] == pytest.approx(0.33318, abs=5e-6)
        assert rows[1]["bound"] == pytest.approx(0.33342, abs=5e-6)

    def test_delta_option_is_gone(self, capsys):
        assert run_cli(["fpt", "barbell-metastable", "--delta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ConfigError: unrecognized arguments: --delta 0.1\n"

    @pytest.mark.parametrize("start", ["uniform", "restricted", "quasistationary"])
    def test_unresolved_expansion_is_refused(self, start, tmp_path, capsys):
        # pi spans 2^-299: the uniform start weights states of tiny pi, so
        # sum |alpha_i| = 4.5e42 and spectral_tail printed -1.6e26 at k = 0
        chain_file = tmp_path / "bd300.csv"
        np.savetxt(chain_file, birth_death(300, 0.5, 1.0), delimiter=",", fmt="%.17g")
        code = run_cli(["fpt", str(chain_file), "--start", start, "--kmax", "400",
                        "--tol", "pi_floor=0", "--format", "json"])
        captured = capsys.readouterr()
        if start == "uniform":
            assert code == 4 and captured.out == ""
            assert captured.err.startswith("error: OutOfRange: sum |alpha_i| = 4.")
            assert captured.err.count("\n") == 1
            return
        assert code == 0 and captured.err == ""
        rows = json.loads(captured.out)
        assert abs(rows[0]["spectral_tail"] - 1.0) <= 1e-9
        assert all(r["rel_err"] <= r["bound"] for r in rows if r["rel_err"] is not None)

    def test_negative_kmax_rejected(self, capsys):
        assert run_cli(["fpt", "barbell-metastable", "--kmax", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: InvalidArguments: k_max must be nonnegative\n"

    def test_start_file(self, tmp_path, capsys):
        # a %.17g start of length n - 1, or n with 0 at the target, is --start restricted
        argv = ["fpt", "barbell-metastable", "--kmax", "20", "--start"]
        assert run_cli(argv + ["restricted"]) == 0
        expected = capsys.readouterr()
        path = tmp_path / "start.csv"
        start = sr.restricted_stationary_start(sr.absorb(sr.barbell_chain(3, 0.1), 0))
        for values in (start, np.concatenate([[0.0], start])):
            np.savetxt(path, values, fmt="%.17g")
            assert run_cli(argv + [f"file:{path}"]) == 0
            assert capsys.readouterr() == expected
        np.savetxt(path, np.full(6, 1 / 6), fmt="%.17g")
        assert run_cli(argv + [f"file:{path}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: BadStart: ")
        assert captured.err.count("\n") == 1
        missing = tmp_path / "missing.csv"
        assert run_cli(argv + [f"file:{missing}"]) == 3
        assert capsys.readouterr() == ("", f"error: IoError: start file not found: {missing}\n")

    def test_malformed_start_file_is_io_error(self, tmp_path, capsys):
        start = tmp_path / "start.csv"
        start.write_text("a,b\n")
        assert run_cli(["fpt", "cycle-7", "--start", f"file:{start}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: IoError: malformed start file {start}: ")
        assert captured.err.count("\n") == 1


class TestWidePi:
    """A lazy birth-death chain whose pi runs from 1.9e-47 to 0.1.

    Its eigenvectors are exact to roundoff in u = sqrt(pi) phi, but phi_1 =
    u_1 / sqrt(pi) is off by about 1e-3 where pi is smallest: a stationary
    test on phi_1 itself refused the chain in every command but analyze.
    """

    N = 1000
    STEPS = 200

    @pytest.fixture(scope="class")
    def chain_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "bd.csv"
        np.savetxt(path, birth_death(self.N, 0.9, 0.5), delimiter=",", fmt="%.17g")
        return str(path)

    @pytest.mark.parametrize("argv", [["rigidity"], ["power", "--max-iter", "20"]],
                             ids=lambda v: v[0])
    def test_chain_commands_accept_it(self, chain_file, argv, tmp_path, capsys):
        assert run_cli([argv[0], chain_file, *argv[1:], "--tol", "pi_floor=0",
                        "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_simulate_matches_the_power_stream(self, chain_file, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", chain_file, "--steps", str(self.STEPS), "--seed", "5",
                        "--tol", "pi_floor=0", "--out", str(out)]) == 0
        E = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
        chain = sr.build_chain(np.loadtxt(chain_file, delimiter=","),
                               sr.Tolerances(pi_floor=0.0))
        g0 = np.random.default_rng(5).standard_normal(self.N)
        log_E = [item[0] for item in itertools.islice(sr.power_steps(chain, g0),
                                                      self.STEPS + 1)]
        # k matrix-vector products each round E_k by about n ulps, and lambda^(2k)
        # carries 2k times an eigenvalue error of n ulps
        rel = 4 * self.STEPS * self.N * 2.0 ** -52
        np.testing.assert_allclose(E, np.exp(log_E), rtol=rel)


class TestMetastableBarbell:
    """barbell_chain(3, b): the slow gap 1 - lambda2 is about b / 3."""

    BRIDGES = [1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-16, 1e-20]
    STEPS = 200

    @pytest.fixture(scope="class", params=BRIDGES)
    def chain_file(self, request, tmp_path_factory):
        path = tmp_path_factory.mktemp("barbell") / f"b{request.param:g}.csv"
        np.savetxt(path, sr.barbell_chain(3, request.param).kernel, delimiter=",",
                   fmt="%.17g")
        return str(path), request.param

    @pytest.mark.parametrize("command", ["simulate", "rigidity", "thermo", "accel", "power",
                                         "fpt", "analyze"])
    def test_every_command_runs_or_refuses_in_one_line(self, chain_file, command, capsys):
        # the stationary test on the computed eigenvector refused simulate,
        # rigidity, thermo, accel and power at b = 1e-9 and from 1e-14 on; below
        # 1e-14 every stationary solve refuses, and fpt solves no stationary chain
        path, bridge = chain_file
        code = run_cli([command, path])
        captured = capsys.readouterr()
        if command != "fpt" and bridge < 1e-14:
            assert (code, captured.out, captured.err) == (4, "", UNRESOLVED_GAP)
        else:
            assert code == 0 and captured.err == ""

    def test_refusal_does_not_depend_on_the_blas_kernel(self, tmp_path):
        # OPENBLAS_CORETYPE, set in the child alone, picks the OpenBLAS kernel: under
        # Prescott lambda2 of this chain computes above 1, under Haswell below it
        path = tmp_path / "b1e-16.csv"
        np.savetxt(path, sr.barbell_chain(3, 1e-16).kernel, delimiter=",", fmt="%.17g")
        code = ("import contextlib, io, json, sys\n"
                "from specrelax.cli import main\n"
                "runs = []\n"
                "for command in ('analyze', 'simulate'):\n"
                "    err = io.StringIO()\n"
                "    with contextlib.redirect_stderr(err):\n"
                "        runs.append([main([command, sys.argv[1]]), err.getvalue()])\n"
                "print(json.dumps(runs))")
        src = str(Path(sr.__file__).resolve().parents[1])
        for kernel in ("Haswell", "Prescott"):
            out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                                 text=True, check=True,
                                 env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel))
            assert json.loads(out.stdout) == [[4, UNRESOLVED_GAP]] * 2, kernel

    def test_simulate_matches_the_power_stream(self, chain_file, tmp_path, capsys):
        path, bridge = chain_file
        out = tmp_path / "sim.csv"
        code = run_cli(["simulate", path, "--steps", str(self.STEPS), "--seed", "5",
                        "--out", str(out)])
        if bridge < 1e-14:      # no digit of 1 - lambda2 to take a stream from
            assert (code, capsys.readouterr().err, out.exists()) == (4, UNRESOLVED_GAP, False)
            return
        assert code == 0
        E = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
        chain = load_input_file(path, sr.Tolerances())
        g0 = np.random.default_rng(5).standard_normal(chain.n)
        log_E = [item[0] for item in itertools.islice(sr.power_steps(chain, g0),
                                                      self.STEPS + 1)]
        np.testing.assert_allclose(E, np.exp(log_E), rtol=4 * self.STEPS * chain.n * 2.0 ** -52)


@pytest.mark.parametrize("n", [5, 20])
def test_repeated_eigenvalues_move_only_per_mode_columns(n, tmp_path):
    """On a cycle every eigenvalue but 1 and -1 is a double one, so the solver's
    basis inside each pair sets the per-mode columns (alpha2, S_spec, Cov, G,
    A).  The others depend on each eigenspace's total weight alone: they match
    a profile with one mode per distinct eigenvalue, weighted by the Fourier
    coefficients of the centered start."""
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", f"cycle-{n}", "--steps", "40", "--seed", "3",
                    "--out", str(out)]) == 0
    got = np.genfromtxt(out, delimiter=",", names=True)
    g0 = np.random.default_rng(3).standard_normal(n)
    f = np.fft.rfft(g0 - g0.mean())[1:]
    j = np.arange(1, n // 2 + 1)
    # <c, e>_pi^2 summed over a pi-orthonormal basis of each eigenspace
    weights = np.abs(f) ** 2 * np.where(2 * j == n, 1.0, 2.0) / n ** 2
    lam = np.cos(2 * np.pi * j / n)
    lam[np.abs(lam) <= 1e-9] = 0.0        # as the chain solve returns roundoff as 0
    merged = sr.profile_from_weights(lam, weights)
    want = np.array(full_ledger_rows(merged, 40), dtype=object)
    for column in ("E", "rho", "d", "KL", "B", "Gamma", "Vhat"):
        i = LEDGER_COLUMNS.index(column)
        cells = [(g, w) for g, w in zip(got[column], want[:, i]) if w != ""]
        assert len(cells) >= 40
        # KL, B, Gamma and Vhat cancel: they are exact only to a few ulps of
        # the terms they are differences of, which are at most 1
        np.testing.assert_allclose(*map(np.array, zip(*cells)), rtol=1e-12,
                                   atol=0 if column in ("E", "rho", "d") else 1e-14,
                                   err_msg=column)


def _lazy_cycle(n):
    """P = I/2 + (S + S^-1)/4, S the cyclic shift: every eigenvalue but 1 (and 0
    for even n) is a double one."""
    S = np.roll(np.eye(n), 1, axis=1)
    return np.eye(n) / 2 + (S + S.T) / 4


SPLIT_FAMILIES = st.one_of(
    st.builds(lambda n, seed, lazy: random_reversible(
        n, np.random.default_rng(seed), lazy=lazy).kernel,
        st.integers(3, 40), st.integers(0, 2 ** 32 - 1), st.booleans()),
    st.builds(_lazy_cycle, st.integers(3, 40)),
    st.builds(lambda n: np.full((n, n), 1.0 / n), st.integers(3, 12)),
    st.builds(birth_death, st.integers(3, 300), st.floats(0.5, 2.0), st.floats(0.2, 1.0)),
    st.builds(lambda m, log_bridge: sr.barbell_chain(m, 10.0 ** log_bridge).kernel,
              st.integers(2, 8), st.floats(-9.0, 0.0)),
)


@settings(max_examples=90, deadline=None, derandomize=True)
@given(SPLIT_FAMILIES, st.integers(0, 2), st.sampled_from(["restricted", "uniform",
                                                           "quasistationary"]))
def test_fpt_bound_holds_on_every_row(P, target, start):
    """Every fpt row with a rel_err has a bound, and rel_err <= bound; only an
    expansion past the rounding limit m 2^-52 sum |alpha_i| > eigen_residual
    is refused instead."""
    model = sr.absorb(sr.build_chain(P, sr.Tolerances(pi_floor=0.0)), target)
    law = {"uniform": sr.uniform_start, "restricted": sr.restricted_stationary_start,
           "quasistationary": sr.quasistationary_start}[start](model)
    alpha = (law @ model.modes) * (model.modes.T @ model.restricted_pi)
    unresolved = model.nu.size * 2.0 ** -52 * np.sum(np.abs(alpha)) > 1e-9
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "chain.csv"), os.path.join(tmp, "f.json")
        np.savetxt(path, P, delimiter=",", fmt="%.17g")
        code = main(["fpt", path, "--kmax", "20", "--target", str(target), "--start", start,
                     "--tol", "pi_floor=0", "--format", "json", "--out", out])
        if unresolved:
            assert code == 4 and not os.path.exists(out)
            return
        assert code == 0
        with open(out) as fh:
            rows = json.load(fh)
    assert all(r["bound"] is not None and r["rel_err"] <= r["bound"]
               for r in rows if r["rel_err"] is not None)


class TestHypercubeCommand:
    def test_collapse_columns(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hypercube", "--n", "64", "--alpha", "-1,0,1,2",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,k,S_spec,logE,alpha2"
        S = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(S, S[1:]))
        assert S[-1] < 0.05

    def test_log_energy_beyond_double_range(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hypercube", "--n", "4096", "--out", str(out)]) == 0
        rows = [[float(c) for c in line.split(",")]
                for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [325, 4421, 8517, 12613, 16709]
        assert all(math.isfinite(c) for r in rows for c in r)
        assert rows[0][3] > math.log(np.finfo(float).max)   # E itself would be inf
        S = [r[2] for r in rows]
        assert all(a > b for a, b in zip(S, S[1:]))

    def test_point_mass_entropy_prints_as_zero(self, capsys):
        assert run_cli(["hypercube", "--n", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows and {r[2] for r in rows} == {"0"}

    def test_negative_window_clamps_to_zero(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hypercube", "--n", "64", "--alpha", "-2",
                        "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert int(row[1]) == 0


class TestConfigAndErrors:
    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 5, "seed": 9}))
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        assert run_cli(["--config", str(cfg), "simulate", "s8-two-mode",
                        "--out", str(out1)]) == 0
        assert len(out1.read_text().strip().splitlines()) == 7
        assert run_cli(["--config", str(cfg), "simulate", "s8-two-mode",
                        "--steps", "3", "--out", str(out2)]) == 0
        assert len(out2.read_text().strip().splitlines()) == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # fpt's --delta is gone, so its key is unknown as well
        for values, argv in (({"not_a_key": 1}, ["simulate", "s8-two-mode"]),
                             ({"command": "fpt", "delta": 0.1}, ["fpt", "barbell-metastable"]),
                             ({"config": "cfg.json"}, ["analyze", "k5"])):
            cfg.write_text(json.dumps(values))
            assert run_cli(["--config", str(cfg), *argv]) == 2
            assert capsys.readouterr().err.startswith("error: ConfigError: unknown config keys")

    @pytest.mark.parametrize("values", [{}, {"steps": 3}])
    def test_config_goes_before_or_after_the_command(self, values, tmp_path, capsys):
        # after the command, --config was refused as an unrecognized argument
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        printed = []
        for argv in (["--config", str(cfg), "simulate", "s8-two-mode"],
                     ["simulate", "s8-two-mode", "--config", str(cfg)]):
            assert run_cli(argv) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert printed[0].err == ""
        assert len(printed[0].out.splitlines()) == values.get("steps", 100) + 2

    def test_removed_flags_are_refused(self, tmp_path, capsys):
        # rigidity works out its own search cap; power's earliest stop is fixed at 3
        for argv, flag in ((["rigidity", "paper-s8"], ["--cap", "3"]),
                           (["power", "k5"], ["--kmin", "3"])):
            assert run_cli(argv + flag) == 2
            assert capsys.readouterr() == (
                "", f"error: ConfigError: unrecognized arguments: {' '.join(flag)}\n")
        cfg = tmp_path / "cfg.json"
        for values, argv in (({"cap": 3}, ["rigidity", "paper-s8"]),
                             ({"kmin": 3}, ["power", "k5"]), ({"run": 1}, ["analyze", "k5"])):
            cfg.write_text(json.dumps(values))
            assert run_cli(["--config", str(cfg), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: ConfigError: unknown config keys")

    def test_missing_file_is_io_error(self, capsys):
        # a name with a file suffix is a file, found or not
        for name, what in (("/nonexistent/chain.json", "input"), ("missing.csv", "chain")):
            assert run_cli(["analyze", name]) == 3
            assert capsys.readouterr().err == f"error: IoError: {what} file not found: {name}\n"
        # any other unknown name is a preset lookup -> ConfigError
        code = run_cli(["analyze", "missing-preset"])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_python_m_runs_main(self, tmp_path, capsys):
        src = Path(sr.__file__).resolve().parents[1]

        def module(name, *argv):
            return subprocess.run([sys.executable, "-m", name, *argv], cwd=tmp_path,
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)))

        assert run_cli(["analyze", "k5"]) == 0
        want = capsys.readouterr().out
        for name in ("specrelax", "specrelax.cli"):     # the package, and cli.py as a script
            proc = module(name, "analyze", "k5")
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, ""), name
        proc = module("specrelax", "analyze", "missing.csv")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: IoError: chain file not found: missing.csv\n"

    def test_malformed_chain_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cases = [(bad, text) for text in ("{not json", "5", '"kernel"', '{"eigenvalues": [0.5]}')]
        # a CSV with no numbers does not parse: empty, or blank lines only
        cases += [(tmp_path / "bad.csv", text) for text in ("", "\n  \n\n")]
        # UTF-16 with its byte-order mark (bytes ff fe), which is not UTF-8, and directories
        cases += [(tmp_path / "bin.json", "\ufeff{}".encode("utf-16-le"))]
        cases += [(tmp_path / name, None) for name in ("d.csv", "d.json")]
        for path, text in cases:
            if text is None:
                path.mkdir()
            elif isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            assert run_cli(["analyze", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: IoError:")
            assert "\n" not in err.strip()

    def test_row_sum_error_line(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("0.5,0.4\n0.5,0.5\n")
        assert run_cli(["analyze", str(rows)]) == 4
        assert capsys.readouterr().err == ("error: RowSumError: row 0 sums to 0.9, "
                                           "off by more than 1e-12\n")

    def test_lambda2_solved_at_one_gives_one_error_line(self, monkeypatch, capsys):
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a):
            evals = real_eigvalsh(a)
            evals[-1] = 1.0
            return evals

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert run_cli(["analyze", "k5"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", UNRESOLVED_GAP)

    def test_tolerances_reach_chain_profiles(self, capsys):
        # the decomposition behind simulate honours --tol as analyze does
        assert run_cli(["simulate", "cycle-20", "--steps", "2",
                        "--tol", "eigen_residual=1e-30"]) == 4
        assert capsys.readouterr().err.startswith("error: EigensolveFailure:")

    def test_domain_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "chain.json"
        bad.write_text(json.dumps({"kernel": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}))
        assert run_cli(["analyze", str(bad)]) == 4
        assert "NotReversible" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", [["--steps", "2"], ["--steps=2"], ["--ste", "2"],
                                      ["--st=2"]])
    def test_flag_beats_config_in_any_spelling(self, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 5, "input": "paper-s8"}))
        assert run_cli(["simulate", "s8-two-mode", "--steps", "2"]) == 0
        expected = capsys.readouterr().out
        assert run_cli(["--config", str(cfg), "simulate", "s8-two-mode", *flag]) == 0
        assert capsys.readouterr().out == expected
        assert len(expected.splitlines()) == 4

    def test_config_text_is_read_as_the_flag_reads_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "7", "delta": 0.1}))
        assert run_cli(["--config", str(cfg), "rigidity", "paper-s8"]) == 0
        from_config = capsys.readouterr().out
        assert run_cli(["rigidity", "paper-s8", "--seed", "7", "--delta", "0.1"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize("values", [
        {"steps": "abc"}, {"steps": None}, {"steps": 2.5}, {"steps": True},
        {"seed": [7]}, {"format": "xml"}, {"input": None}, {"compare_plain": 1},
        {"tol": "eigen_residual=1"}, {"tol": [1]},
    ])
    def test_config_values_are_checked_like_flags(self, values, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        command = "accel" if "compare_plain" in values else "simulate"
        assert run_cli(["--config", str(cfg), command, "s8-two-mode"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ConfigError: bad config value for ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "paper-s8", "--steps", "2"],
        ["hypercube", "--n", "8"],
        ["analyze", "k5"],
    ])
    def test_unknown_tolerance_key_rejected_by_every_command(self, argv, capsys):
        assert run_cli(argv + ["--tol", "bogus=1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: InvalidArguments: unknown tolerance keys: "
                                "['bogus']\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "k5", "--tol", "eigen_residual=nan"],
        ["analyze", "k5", "--tol", "row_sum=-1"],
        ["analyze", "cycle-5", "--tol", "detailed_balance=nan"],
    ])
    def test_tolerance_below_zero_or_nan_is_refused(self, argv, capsys):
        assert run_cli(argv) == 4
        captured = capsys.readouterr()
        key, _, value = argv[-1].partition("=")
        assert captured.out == ""
        assert captured.err == (f"error: InvalidArguments: tolerance {key} must be >= 0, "
                                f"got {float(value)!r}\n")

    @pytest.mark.parametrize("argv, code", [
        (["thermo", "paper-s8", "--steps", "3", "--fluxes-at", "-1"], 4),
        (["accel", "paper-s8", "--interval", "1"], 2),
        (["accel", "paper-s8", "--interval", "0.1,0.2,0.3"], 2),
        (["simulate", "paper-s8", "--steps", "-1"], 4),
        (["thermo", "paper-s8", "--steps", "-1"], 4),
        (["accel", "paper-s8", "--steps", "-1"], 4),
        (["fpt", "k5", "--format", "xml"], 2),
        (["simulate", "paper-s8", "--steps", "x"], 2),
        ([], 2),
        (["bogus", "k5"], 2),
        (["accel", "paper-s8", "--degree", "-1"], 4),
        # T_m overflows: at the normalization point, and at a mode far below the interval
        (["accel", "paper-s8", "--degree", "2000", "--steps", "2", "--compare-plain"], 4),
        (["accel", "paper-s8", "--degree", "250", "--interval", "0.6,0.7"], 4),
        (["hypercube", "--n", "64", "--alpha", "nan"], 4),
        (["hypercube", "--n", "64", "--alpha", "inf"], 4),
        (["hypercube", "--n", "64", "--alpha", "1e300"], 4),
        (["hypercube", "--n", "64", "--alpha=-1e308"], 4),    # alpha n is -inf
    ])
    def test_bad_arguments_give_one_error_line(self, argv, code, capsys):
        assert run_cli(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, error", [
        (["power", "barbell-metastable", "--max-iter", "0"], "InvalidArguments"),
        (["power", "barbell-metastable", "--epsilon", "-1"], "InvalidArguments"),
        (["power", "barbell-metastable", "--tau", "2"], "InvalidArguments"),
        (["fpt", "barbell-metastable", "--kmax", "-1"], "InvalidArguments"),
        (["fpt", "barbell-metastable", "--start", "bogus"], "ConfigError"),
        (["fpt", "barbell-metastable", "--start", "file:no-such-start.csv"], "IoError"),
        (["fpt", "barbell-metastable", "--target", "6"], "InvalidState"),
    ])
    def test_bad_arguments_are_refused_before_any_eigensolve(self, argv, error,
                                                             monkeypatch, capsys):
        def refuse(*args, **kw):
            raise AssertionError("an O(n^3) eigensolve ran before the argument checks")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert run_cli(argv) in (2, 3, 4)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}: ")
        assert captured.err.count("\n") == 1


class TestIoHelpers:
    def test_float_formatting_roundtrip(self):
        for x in (0.1, 1 / 3, 2 ** -52, 1e300, -1.5e-300, math.pi):
            assert float(fmt(x)) == x
        assert fmt(None) == ""
        assert fmt(float("inf")) == "inf"

    def test_profile_save_load(self, tmp_path):
        prof = sr.profile_from_weights([0.9, -0.4], [1.0, 2.0])
        path = str(tmp_path / "prof.json")
        save_profile(prof, path)
        back = load_profile_file(path)
        np.testing.assert_array_equal(back.lambdas, prof.lambdas)
        np.testing.assert_array_equal(back.log_weights, prof.log_weights)

    def test_numpy_scalars_are_written_as_json_numbers(self):
        assert dump_json({"n": np.int64(3), "x": np.float64(0.5), "inf": np.float64(np.inf)},
                         os.devnull) == '{"inf":"inf","n":3,"x":0.5}'

    def test_json_input_is_parsed_once(self, tmp_path, monkeypatch):
        loads = []
        real_load = json.load
        monkeypatch.setattr(json, "load", lambda fh: loads.append(fh.name) or real_load(fh))
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"kernel": [[0.9, 0.1], [0.3, 0.7]]}))
        profile_file = tmp_path / "prof.json"
        save_profile(sr.profile_from_weights([0.9, -0.4], [1.0, 2.0]), str(profile_file))
        for path in (chain_file, profile_file):
            assert run_cli(["analyze", str(path), "--out", str(tmp_path / "a.csv")]) == 0
        assert loads == [str(chain_file), str(profile_file)]

    def test_chain_loaders(self, tmp_path):
        j = tmp_path / "c.json"
        j.write_text(json.dumps({"kernel": [[0.5, 0.5], [0.5, 0.5]]}))
        assert load_input_file(str(j)).n == 2
        c = tmp_path / "c.csv"
        c.write_text("0.5,0.5\n0.5,0.5\n")
        assert load_input_file(str(c)).n == 2
