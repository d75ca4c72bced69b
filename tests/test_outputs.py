"""Recorded outputs: what the CLI prints on a fixed corpus of cases.

Each case is one `specrelax` command line run through `cli.main`; the corpus
`tests/data/outputs.json` records its argv, exit code and the text of
stdout, stderr and every file it writes (`--out` and `--out`.fluxes.json),
one list entry per line so that a diff shows each moved line.  The cases are
the benchmark's 33 operations at reduced sizes (chains n <= 300, horizons
<= 300), the nine criterion-16 commands at seed 13, the refusals of
malformed inputs, options and unwritable outputs, two runs of the online
tau-hat fold, and the counterexamples of ROADMAP items 8, 11 and 12.
Inputs are generated from fixed seeds into a fresh directory, and every
case runs in one child interpreter with one BLAS thread.

Where numpy's version, its BLAS build, the BLAS kernel picked at run time
and the machine equal those recorded with the corpus, every text must match
exactly.  Elsewhere exit codes, stderr, line counts and every non-numeric
cell (headers, blanks, keys) must match exactly, and each numeric cell
within ULP_BUDGET units in the last place; no case is skipped.  A change
that means to move output records the corpus again, and the diff of the
file shows what moved:

    python tests/test_outputs.py --record
"""

from __future__ import annotations

import copy
import json
import math
import os
import platform
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from specrelax.cache import blas_identity

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("data") / "outputs.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numeric cells compared across environments: 2^20 ulps is 2.3e-10 relative
ULP_BUDGET = 1 << 20
DELTAS = "0.3,0.1,0.01,0.0001,1e-08"
BRIDGES = (1e-9, 1e-16)


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of every case, in run order; files are the inputs'."""
    c16 = [["simulate", "paper-s8", "--steps", "50"], ["rigidity", "s8-two-mode"],
           ["rigidity", "cycle-5"], ["analyze", "k6", "--format", "json"],
           ["thermo", "s8-two-mode", "--steps", "20"], ["fpt", "barbell-metastable", "--kmax", "30"],
           ["accel", "paper-s8", "--degree", "4", "--compare-plain"],
           ["power", "barbell-metastable", "--epsilon", "0.2"], ["hypercube", "--n", "64"]]
    barbell = [(f"analyze barbell b={b:g}", ["analyze", f"barbell{b:g}.csv"]) for b in BRIDGES]
    barbell += [(f"simulate barbell b={b:g}", ["simulate", f"barbell{b:g}.csv", "--steps", "20"])
                for b in BRIDGES]
    return [
        # the benchmark's `ledger` workload
        ("simulate paper-s8 60 steps",
         ["simulate", "paper-s8", "--seed", "11", "--steps", "60", "--out", "s8a.csv"]),
        ("simulate paper-s8 120 steps",
         ["simulate", "paper-s8", "--seed", "12", "--steps", "120", "--out", "s8b.csv"]),
        ("thermo paper-s8 --fluxes-at", ["thermo", "paper-s8", "--seed", "13", "--steps", "60",
                                         "--fluxes-at", "0,1,10,60", "--out", "thermo.csv"]),
        ("simulate 40-mode profile", ["simulate", "prof40.json", "--steps", "40", "--out", "p40.csv"]),
        ("simulate 100-mode profile",
         ["simulate", "prof100.json", "--steps", "20", "--out", "p100.csv"]),
        ("simulate 300-mode profile",
         ["simulate", "prof300.json", "--steps", "10", "--out", "p300.csv"]),
        ("rigidity 100-mode profile", ["rigidity", "prof100.json", "--delta", DELTAS]),
        ("accel --compare-plain 100-mode profile", ["accel", "prof100.json", "--compare-plain"]),
        ("hypercube --n 512", ["hypercube", "--n", "512"]),
        ("hypercube --n 4096", ["hypercube", "--n", "4096"]),
        ("hypercube --n 8192", ["hypercube", "--n", "8192"]),
        # the benchmark's `chains` workload: A is n = 300, B n = 120
        ("analyze A.csv --format json", ["analyze", "A.csv", "--format", "json"]),
        ("analyze A.json --format json", ["analyze", "A.json", "--format", "json"]),
        ("power A.csv --max-iter 300", ["power", "A.csv", "--seed", "21", "--tau", "0.5",
                                        "--max-iter", "300", "--out", "power.csv"]),
        ("fpt A.csv quasistationary", ["fpt", "A.csv", "--start", "quasistationary"]),
        ("fpt B.json restricted", ["fpt", "B.json", "--start", "restricted", "--target", "37"]),
        ("simulate B.json", ["simulate", "B.json", "--seed", "22", "--steps", "40",
                             "--out", "simB.csv"]),
        ("rigidity B.json", ["rigidity", "B.json", "--seed", "22", "--delta", "0.3,0.01,1e-08"]),
        ("analyze cycle-300 --format json", ["analyze", "cycle-300", "--format", "json"]),
        # the benchmark's `cli-calls` workload
        ("analyze k5", ["analyze", "k5"]),
        ("analyze cycle-50 --format json", ["analyze", "cycle-50", "--format", "json"]),
        ("analyze small.csv --format json", ["analyze", "small.csv", "--format", "json"]),
        ("rigidity s8-two-mode", ["rigidity", "s8-two-mode", "--delta", DELTAS]),
        ("rigidity prof12.json", ["rigidity", "prof12.json", "--delta", DELTAS]),
        ("hypercube --n 64", ["hypercube", "--n", "64"]),
        ("power barbell-metastable", ["power", "barbell-metastable", "--seed", "31",
                                      "--tau", "0.5", "--out", "bar.csv"]),
        ("fpt barbell-metastable quasistationary",
         ["fpt", "barbell-metastable", "--start", "quasistationary"]),
        ("simulate paper-s8 20 steps",
         ["simulate", "paper-s8", "--seed", "32", "--steps", "20", "--out", "s8.csv"]),
        ("thermo paper-s8 10 steps", ["thermo", "paper-s8", "--seed", "33", "--steps", "10",
                                      "--fluxes-at", "0,5", "--out", "th.csv"]),
        ("accel prof12.json", ["accel", "prof12.json", "--compare-plain", "--steps", "10"]),
        ("--config simulate paper-s8",
         ["--config", "cfg.json", "simulate", "paper-s8", "--out", "cfg.csv"]),
        ("analyze nonrev.csv (rejected)", ["analyze", "nonrev.csv"]),
        ("analyze reducible.json (rejected)", ["analyze", "reducible.json"]),
        # criterion 16
        *((f"criterion 16: {' '.join(argv)}", argv + ["--seed", "13", "--out", f"c16-{i}.out"])
          for i, argv in enumerate(c16)),
        # refusals
        ("missing file", ["analyze", "missing.csv"]),
        ("unknown preset", ["analyze", "no-such-preset"]),
        ("argparse error", ["simulate", "paper-s8", "--no-such-flag", "1"]),
        ("fpt bd300 uniform", ["fpt", "bd300.csv", "--start", "uniform", "--kmax", "400",
                               "--tol", "pi_floor=0"]),
        # counterexamples: ROADMAP items 8 (power), 11 (fpt) and 12 (barbells)
        ("power bip3.csv --seed 2", ["power", "bip3.csv", "--seed", "2"]),
        ("power cycle-21 --seed 1", ["power", "cycle-21", "--seed", "1"]),
        ("fpt barbell-metastable --target 2", ["fpt", "barbell-metastable", "--target", "2"]),
        *barbell,
        # options that commands work out or fix themselves
        ("rigidity paper-s8 --cap 3", ["rigidity", "paper-s8", "--cap", "3"]),
        ("power k5 --kmin -5", ["power", "k5", "--kmin", "-5"]),
        # input refusals: malformed profiles and chains
        ("profile of unequal lengths", ["analyze", "lengths.json"]),
        ("profile with no modes", ["analyze", "empty.json"]),
        ("profile with an eigenvalue of 1", ["analyze", "unit.json"]),
        ("profile with an infinite log weight", ["analyze", "infw.json"]),
        ("profile with a NaN eigenvalue", ["analyze", "nan.json"]),
        ("non-square kernel", ["analyze", "wide.json"]),
        ("ragged kernel", ["analyze", "ragged.json"]),
        # command refusals
        ("thermo dead profile --fluxes-at 1",
         ["thermo", "dead.json", "--steps", "3", "--fluxes-at", "1", "--out", "dead.csv"]),
        ("simulate profile with no positive mode", ["simulate", "noslow.json"]),
        ("accel one-mode profile", ["accel", "one.json"]),
        ("accel dead profile", ["accel", "dead.json"]),
        ("rigidity --delta 0", ["rigidity", "s8-two-mode", "--delta", "0"]),
        ("rigidity --delta abc", ["rigidity", "s8-two-mode", "--delta", "abc"]),
        ("hypercube --n 0", ["hypercube", "--n", "0"]),
        ("--tol without a value", ["analyze", "k5", "--tol", "pi_floor"]),
        ("--tol with a bad value", ["analyze", "k5", "--tol", "pi_floor=x"]),
        ("--config holding a list", ["--config", "cfg-list.json", "simulate", "paper-s8"]),
        ("--config for another command",
         ["--config", "cfg-analyze.json", "simulate", "paper-s8"]),
        ("simulate with no input", ["simulate"]),
        ("fpt one-state chain", ["fpt", "one.csv"]),
        ("fpt start file of the wrong length",
         ["fpt", "barbell-metastable", "--start", "file:start2.csv"]),
        ("empty chain file", ["analyze", "empty.csv"]),
        ("empty start file", ["fpt", "two.csv", "--start", "file:empty.csv"]),
        # the online tau-hat fold: a zero variance, and a frozen settled estimate
        ("power two.csv", ["power", "two.csv"]),
        ("power barbell-metastable --epsilon 1e-3",
         ["power", "barbell-metastable", "--epsilon", "1e-3", "--seed", "1"]),
        # one spectral fact, two commands: the slow mode and the ratio
        ("accel --interval with a mode mapped above the slow one",
         ["accel", "mapped.json", "--interval", "-0.6,0.6", "--compare-plain", "--steps", "2"]),
        ("rigidity k5", ["rigidity", "k5"]),
        # refusals of a nan start law and of outputs that cannot be written
        ("fpt start file holding nan", ["fpt", "c3.csv", "--start", "file:nanstart.csv"]),
        ("analyze --out in a missing directory", ["analyze", "k5", "--out", "missing/a.csv"]),
        ("thermo --fluxes-at into a missing directory",
         ["thermo", "paper-s8", "--steps", "3", "--fluxes-at", "1", "--out", "missing/t.csv"]),
    ]


# --- inputs ---------------------------------------------------------------

def _two_cluster(n: int, rng, cross: float = 1e-3) -> np.ndarray:
    """Lazy kernel of two dense lognormal clusters (2/5 and 3/5 of the
    states) joined by weights scaled by `cross`."""
    m = (2 * n) // 5
    X = rng.lognormal(0.0, 1.0, (n, n))
    W = np.triu(X, 1)
    W = W + W.T + np.diag(np.diag(X))
    W[:m, m:] *= cross
    W[m:, :m] *= cross
    W = 0.5 * (W + np.diag(W.sum(axis=1)))
    return W / W.sum(axis=1)[:, None]


def _random_profile(m: int, rng) -> dict:
    """A dominant slow mode; one mode in twenty exactly 0, as many with
    |lambda| in 1e-150..1e-20, and the largest fast |lambda| negative."""
    lam2 = rng.uniform(0.93, 0.97)
    fast = rng.uniform(-0.75, 0.75, m - 1) * lam2
    few = max(1, m // 20)
    fast[:few] = 0.0
    fast[few:2 * few] = rng.choice([-1.0, 1.0], few) * 10.0 ** -rng.uniform(20, 150, few)
    fast[2 * few] = -rng.uniform(0.80, 0.88) * lam2
    lw_fast = rng.normal(0.0, 2.0, m - 1)
    lw_slow = math.log(np.exp(lw_fast).sum()) - rng.uniform(2.0, 4.0)
    order = rng.permutation(m)
    return {"eigenvalues": np.concatenate([[lam2], fast])[order].tolist(),
            "log_weights": np.concatenate([[lw_slow], lw_fast])[order].tolist()}


def write_inputs(work: Path) -> None:
    """Every file the cases read, from fixed seeds."""
    from conftest import birth_death
    from specrelax import barbell_chain

    def csv(name, kernel):      # repr reads back as the same doubles
        (work / name).write_text("".join(",".join(map(repr, row)) + "\n"
                                         for row in np.asarray(kernel).tolist()))

    def js(name, obj):
        (work / name).write_text(json.dumps(obj))

    rng = np.random.default_rng(24)
    for m in (40, 100, 300, 12):
        js(f"prof{m}.json", _random_profile(m, rng))
    A, B, small = _two_cluster(300, rng), _two_cluster(120, rng), _two_cluster(12, rng, 0.05)
    csv("A.csv", A)
    js("A.json", {"kernel": A.tolist()})
    js("B.json", {"kernel": B.tolist()})
    csv("small.csv", small)
    drift = rng.uniform(0.1, 1.0, (6, 6)) + 2.0 * np.roll(np.eye(6), 1, axis=1)
    csv("nonrev.csv", drift / drift.sum(axis=1, keepdims=True))
    blocks = np.zeros((7, 7))
    for lo, hi in ((0, 3), (3, 7)):
        U = rng.uniform(0.1, 1.0, (hi - lo, hi - lo))
        blocks[lo:hi, lo:hi] = U + U.T
    js("reducible.json", {"kernel": (blocks / blocks.sum(axis=1, keepdims=True)).tolist()})
    js("cfg.json", {"command": "simulate", "steps": 17, "seed": 5})
    csv("bip3.csv", [[0.05, 0.95, 0.0], [0.475, 0.05, 0.475], [0.0, 0.95, 0.05]])
    for b in BRIDGES:
        csv(f"barbell{b:g}.csv", barbell_chain(3, b).kernel)
    csv("bd300.csv", birth_death(300, 0.5, 1.0))
    for name, lam, lw in (("lengths", [0.5, 0.2], [0.0]), ("empty", [], []),
                          ("unit", [1.0, 0.5], [0.0, 0.0]), ("infw", [0.5, 0.2], [math.inf, 0.0]),
                          ("nan", [math.nan, 0.5], [0.0, 0.0]),
                          ("dead", [0.0, 0.0], [0.0, 0.0]), ("noslow", [0.0, -0.5], [0.0, 0.0]),
                          ("one", [0.5], [0.0]),
                          ("mapped", [0.6, -0.99, 0.1], np.log([0.5, 0.3, 0.2]).tolist())):
        js(f"{name}.json", {"eigenvalues": lam, "log_weights": lw})
    js("wide.json", {"kernel": [[0.5, 0.5]]})
    js("ragged.json", {"kernel": [[0.5, 0.5], [1.0]]})
    js("cfg-list.json", [])
    js("cfg-analyze.json", {"command": "analyze", "seed": 3})
    csv("one.csv", [[1.0]])
    csv("start2.csv", [[0.5, 0.5]])
    csv("two.csv", [[0.9, 0.1], [0.3, 0.7]])
    csv("empty.csv", [])
    csv("c3.csv", [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    csv("nanstart.csv", [[0.0, math.nan, 1.0]])


# --- running --------------------------------------------------------------

def environment() -> dict:
    """What eigensolve outputs depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                        "openblas configuration"))
    except (TypeError, KeyError):       # numpy before 1.26 prints its config only
        blas = "unknown"
    kernel = blas_identity()
    return {"numpy": np.__version__, "blas": blas, "kernel": kernel[0] if kernel else "unknown",
            "machine": platform.machine()}


def _lines(text: str) -> list[str]:
    return text.split("\n")


def _child(work: Path) -> dict:
    """Run every case in `work`; the result in the corpus's format."""
    from specrelax.cli import main

    warnings.simplefilter("error", RuntimeWarning)
    os.chdir(work)
    write_inputs(work)
    results = []
    for name, argv in cases():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        files = {}
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            for written in (Path(path), Path(path + ".fluxes.json")):
                if written.exists():
                    files[written.name] = _lines(written.read_text())
                    written.unlink()
        results.append({"name": name, "argv": argv, "code": code,
                        "stdout": _lines(out.getvalue()), "stderr": _lines(err.getvalue()),
                        "files": files})
    return {"environment": environment(), "cases": results}


def run_corpus() -> dict:
    """Every case, run in one child interpreter with one BLAS thread."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, __file__, "--child", work], env=env,
                              capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"corpus run failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# --- comparing ------------------------------------------------------------

def ulps(a: float, b: float) -> int:
    """Doubles strictly between a and b, plus one (0 when equal, +0 == -0)."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordinal(a) - ordinal(b))


def _number(x) -> float | None:
    """x as a finite double when it is a number cell, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, str):
        try:
            x = float(x)
        except ValueError:
            return None
    return float(x) if isinstance(x, (int, float)) and math.isfinite(x) else None


def _values_agree(old, new) -> bool:
    """Equal, or numbers within ULP_BUDGET; JSON containers element by element."""
    if isinstance(old, dict) and isinstance(new, dict):
        return old.keys() == new.keys() and all(_values_agree(old[k], new[k]) for k in old)
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(map(_values_agree, old, new))
    if old == new and type(old) is type(new):
        return True
    a, b = _number(old), _number(new)
    return a is not None and b is not None and ulps(a, b) <= ULP_BUDGET


def lines_agree(old: str, new: str) -> bool:
    """One output line against its record, across environments: a JSON line
    value by value, any other line cell by comma-separated cell."""
    if old[:1] in "{[" and old:
        try:
            return _values_agree(json.loads(old), json.loads(new))
        except json.JSONDecodeError:
            return False
    return _values_agree(old.split(","), new.split(","))


def compare(recorded: dict, observed: dict, exact: bool) -> list[str]:
    """The differences of one case from its record; none when they agree."""
    problems = [f"{key}: {recorded[key]!r} != {observed[key]!r}"
                for key in ("name", "argv", "code", "stderr") if recorded[key] != observed[key]]
    if recorded["files"].keys() != observed["files"].keys():
        problems.append(f"files: {sorted(recorded['files'])} != {sorted(observed['files'])}")
    texts = [("stdout", recorded["stdout"], observed["stdout"])]
    texts += [(name, text, observed["files"].get(name, []))
              for name, text in recorded["files"].items()]
    for where, old, new in texts:
        if len(old) != len(new):
            problems.append(f"{where}: {len(new)} lines, recorded {len(old)}")
            continue
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b and (exact or not lines_agree(a, b)):
                problems.append(f"{where} line {i + 1}: {b!r}, recorded {a!r}")
                break
    return [f"{recorded['name']}: {p}" for p in problems]


def record() -> None:
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(run_corpus(), indent=1, ensure_ascii=False) + "\n")


# --- tests ----------------------------------------------------------------

def _recorded() -> dict:
    return json.loads(CORPUS.read_text())


def test_outputs_match_the_recorded_corpus():
    recorded, observed = _recorded(), run_corpus()
    assert len(observed["cases"]) == len(recorded["cases"])
    exact = observed["environment"] == recorded["environment"]
    problems = [p for old, new in zip(recorded["cases"], observed["cases"])
                for p in compare(old, new, exact)]
    assert not problems, "\n".join(problems)


def _planted(line: str):
    """Every copy of `line` with one numeric cell moved up by one ulp."""
    def up(x):
        return np.nextafter(x, math.inf).item()

    if line[:1] in "{[" and line:
        value = json.loads(line)

        def leaves(node, path=()):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                yield from leaves(child, path + (key,))
            if not items and _number(node) is not None:
                yield path

        for path in list(leaves(value)):
            moved = copy.deepcopy(value)
            parent = moved
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = up(_number(parent[path[-1]]))
            yield json.dumps(moved, sort_keys=True, separators=(",", ":"))
        return
    cells = line.split(",")
    for i, cell in enumerate(cells):
        x = _number(cell)
        if x is not None:
            yield ",".join(cells[:i] + [format(up(x), ".17g")] + cells[i + 1:])


def test_one_ulp_in_any_recorded_cell_fails():
    planted = 0
    for case in _recorded()["cases"]:
        texts = [("stdout", case["stdout"]), *case["files"].items()]
        for where, text in texts:
            for i, line in enumerate(text):
                for moved in _planted(line):
                    observed = copy.copy(case)
                    changed = text[:i] + [moved] + text[i + 1:]
                    if where == "stdout":
                        observed["stdout"] = changed
                    else:
                        observed["files"] = {**case["files"], where: changed}
                    assert compare(case, observed, exact=True), (case["name"], where, moved)
                    assert lines_agree(line, moved)       # within the budget elsewhere
                    planted += 1
    assert planted > 10_000


def test_cross_environment_comparison_keeps_structure():
    case = next(c for c in _recorded()["cases"] if c["name"] == "simulate paper-s8 60 steps")
    text = case["files"]["s8a.csv"]
    assert not compare(case, copy.deepcopy(case), exact=False)

    def with_file(lines):
        return {**case, "files": {"s8a.csv": lines}}

    header, row = text[0], text[1].split(",")
    far = format(float(row[1]) * (1 + 1e-6), ".17g")
    for changed in ([header.replace("rho", "RHO")] + text[1:],         # a header cell
                    text[:1] + [",".join(row[:1] + [far] + row[2:])] + text[2:],
                    text[:-2] + text[-1:]):                             # a row fewer
        assert compare(case, with_file(changed), exact=False)
    assert compare(case, {**case, "code": 4}, exact=False)
    assert compare(case, {**case, "stderr": ["warning", ""]}, exact=False)
    assert not lines_agree("1,", "1,0")                                 # a blank cell
    assert not lines_agree("1,inf", "1,1.7976931348623157e+308")
    assert ulps(-0.0, 0.0) == 0 and ulps(-5e-324, 5e-324) == 2


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.stdout.write(json.dumps(_child(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--record"]:
        record()
    else:
        sys.exit(__doc__)
