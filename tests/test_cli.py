import json
import math
import os

import numpy as np
import pytest

import specrelax as sr
from specrelax import power_iter
from specrelax.cli import main
from specrelax.io import fmt, load_chain_file, load_profile_file, save_profile

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
        assert abs(float(row["lambda2"])) < 1e-9
        for preset, has_ratio in (("k6", False), ("cycle-50", True)):
            assert run_cli(["analyze", preset, "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert (data["ratio"] is not None) == has_ratio
            assert data["lambda2"] == data["spectrum"][1]

    def test_csv_chain_file(self, tmp_path):
        chain_file = tmp_path / "chain.csv"
        chain_file.write_text("0.9,0.1\n0.3,0.7\n")
        out = tmp_path / "a.csv"
        assert run_cli(["analyze", str(chain_file), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "lambda2" in header


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
            led = sr.ledger_at(prof, k)
            bal = sr.entropy_balance(prof, k)
            step = sr.G_step(prof, k)
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

    def test_negative_kmax_rejected(self, capsys):
        assert run_cli(["fpt", "barbell-metastable", "--kmax", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: InvalidArguments: k_max must be nonnegative\n"

    def test_malformed_start_file_is_io_error(self, tmp_path, capsys):
        start = tmp_path / "start.csv"
        start.write_text("a,b\n")
        assert run_cli(["fpt", "cycle-7", "--start", f"file:{start}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: IoError: malformed start file {start}: ")
        assert captured.err.count("\n") == 1


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
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert run_cli(["--config", str(cfg), "simulate", "s8-two-mode"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        assert run_cli(["analyze", "/nonexistent/chain.json"]) == 2 or True
        # unknown name resolves as preset lookup -> ConfigError
        code = run_cli(["analyze", "missing-preset"])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_malformed_chain_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "5", '"kernel"', '{"eigenvalues": [0.5]}'):
            bad.write_text(text)
            assert run_cli(["analyze", str(bad)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: IoError:")
            assert "\n" not in err.strip()

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

    @pytest.mark.parametrize("argv, code", [
        (["thermo", "paper-s8", "--steps", "3", "--fluxes-at", "-1"], 4),
        (["accel", "paper-s8", "--interval", "1"], 2),
        (["accel", "paper-s8", "--interval", "0.1,0.2,0.3"], 2),
        (["simulate", "paper-s8", "--steps", "-1"], 4),
        (["thermo", "paper-s8", "--steps", "-1"], 4),
        (["accel", "paper-s8", "--steps", "-1"], 4),
    ])
    def test_bad_arguments_give_one_error_line(self, argv, code, capsys):
        assert run_cli(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
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
        assert load_chain_file(str(j)).n == 2
        c = tmp_path / "c.csv"
        c.write_text("0.5,0.5\n0.5,0.5\n")
        assert load_chain_file(str(c)).n == 2
