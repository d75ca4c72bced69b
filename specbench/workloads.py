"""The three workloads: each a fixed list of CLI operations with their checks.

An operation is one `specrelax` command line.  Its check receives the
Outcome (exit code, stdout, stderr and the files named in `outputs`) and
raises CheckFailed when the output is wrong, or KnownFault when it shows a
recorded program fault in its recorded form; it runs after the timed span.  Inputs are
generated here from the workload seed into the run's work directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck
import inputs as gen

DELTAS = (0.3, 0.1, 0.01, 1e-4, 1e-8)
HYPERCUBE_ALPHAS = (-2.0, -1.0, 0.0, 1.0, 2.0)


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    files: dict[str, str]


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[Outcome], None]
    outputs: list[str] = field(default_factory=list)
    ledger_rows: int = 0             # per-step ledger rows this op emits


def _csv(args) -> str:
    return ",".join(repr(float(a)) for a in args)


def _ok(fn):
    """Wrap a check of a command that must exit 0 with an empty stderr."""
    def check(out: Outcome):
        ck.require(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[-300:]}")
        ck.require(out.stderr == "", f"stderr is not empty: {out.stderr.strip()[-300:]}")
        fn(out)
    return check


def simulate_op(name, source, steps, out_file, profile=None, sample=(), rel=1e-9, extra=()):
    def check(out):
        ck.check_ledger(out.files[out_file], steps, profile, sample, rel)
    return Op(name, ["simulate", source, *extra, "--steps", str(steps), "--out", out_file],
              _ok(check), [out_file], ledger_rows=steps + 1)


def hypercube_op(n, overflows=False):
    """`hypercube --n n`; with overflows, E = inf at alpha = -2 is the
    recorded ModalLedger.energy fault and counts as a known failure."""
    if overflows:
        def check(out):
            ck.check_hypercube_overflow(out.code, out.stdout, out.stderr, n, HYPERCUBE_ALPHAS)
    else:
        check = _ok(lambda out: ck.check_hypercube(out.stdout, n, HYPERCUBE_ALPHAS))
    return Op(f"hypercube --n {n}", ["hypercube", "--n", str(n)], check)


def ledger(seed: int, work: Path) -> list[Op]:
    """Trajectory commands on profiles only: no kernel is built or solved.

    Four commands cost little more than the import, four are 200-300-step
    ledgers or a rigidity scan and three are long ledgers, so the median
    operation falls inside the middle group rather than between groups.
    """
    rng = np.random.default_rng([seed, 1])
    s = gen.derive_seeds(rng, 3)
    profiles = {}
    for m in (40, 400, 2000):
        profiles[m] = gen.random_profile(m, rng)
        gen.write_profile_json(work / f"prof{m}.json", profiles[m])
    s8 = [gen.paper_s8_profile(x) for x in s]
    fluxes_at = (0, 1, 10, 100, 1000)

    def thermo_check(out):
        ck.check_ledger(out.files["thermo.csv"], 1000, s8[2], (0, 500, 1000))
        ck.check_fluxes(out.files["thermo.csv.fluxes.json"], out.files["thermo.csv"],
                        fluxes_at, s8[2])

    return [
        simulate_op("simulate paper-s8 1000 steps", "paper-s8", 1000, "s8a.csv", s8[0],
                    (0, 1, 500, 1000), extra=("--seed", str(s[0]))),
        simulate_op("simulate paper-s8 2000 steps", "paper-s8", 2000, "s8b.csv", s8[1],
                    (0, 2000), extra=("--seed", str(s[1]))),
        Op("thermo paper-s8 --fluxes-at", ["thermo", "paper-s8", "--seed", str(s[2]),
                                           "--steps", "1000", "--fluxes-at",
                                           ",".join(map(str, fluxes_at)), "--out", "thermo.csv"],
           _ok(thermo_check), ["thermo.csv", "thermo.csv.fluxes.json"], ledger_rows=1001),
        simulate_op("simulate 40-mode profile", "prof40.json", 300, "p40.csv", profiles[40],
                    (0, 1, 300)),
        simulate_op("simulate 400-mode profile", "prof400.json", 200, "p400.csv", profiles[400],
                    (0, 1, 200)),
        simulate_op("simulate 2000-mode profile", "prof2000.json", 200, "p2000.csv",
                    profiles[2000], (0, 1, 200)),
        Op("rigidity 400-mode profile", ["rigidity", "prof400.json", "--delta", _csv(DELTAS)],
           _ok(lambda out: ck.check_rigidity(out.stdout, profiles[400], DELTAS))),
        Op("accel --compare-plain 400-mode profile", ["accel", "prof400.json", "--compare-plain"],
           _ok(lambda out: ck.check_accel(out.stdout, profiles[400], 4, 25))),
        hypercube_op(512),
        hypercube_op(4096, overflows=True),
        hypercube_op(8192, overflows=True),
    ]


def chains(seed: int, work: Path) -> list[Op]:
    """Dense two-cluster chains read from CSV and JSON, plus cycle-1500.

    Three commands on chain A (analyze from CSV and from JSON, fpt) cost
    about the same, so the median operation falls inside that group rather
    than on one command's two runs.
    """
    rng = np.random.default_rng([seed, 2])
    a = gen.two_cluster_chain(1000, rng)
    b = gen.two_cluster_chain(400, rng)
    gen.write_kernel_csv(work / "A.csv", a.kernel)
    gen.write_kernel_json(work / "A.json", a.kernel)
    gen.write_kernel_json(work / "B.json", b.kernel)
    spec_a = a.spectrum()
    tau = 1.0 - (float(np.max(np.abs(spec_a[2:]))) / float(spec_a[1])) ** 2
    target = int(rng.integers(0, b.n))
    s = gen.derive_seeds(rng, 2)
    profile_b = b.profile_from_start(s[1])
    deltas = (0.3, 0.01, 1e-8)
    return [
        Op("analyze A.csv (n=1000) --format json", ["analyze", "A.csv", "--format", "json"],
           _ok(lambda out: ck.check_analyze(out.stdout, spec_a, "json", a.n))),
        Op("analyze A.json (n=1000) --format json", ["analyze", "A.json", "--format", "json"],
           _ok(lambda out: ck.check_analyze(out.stdout, spec_a, "json", a.n))),
        Op("power A.csv --max-iter 3000", ["power", "A.csv", "--seed", str(s[0]), "--tau", repr(tau),
                                           "--max-iter", "3000", "--out", "power.csv"],
           _ok(lambda out: ck.check_power(out.stdout, out.files["power.csv"], spec_a, 0.1, tau, 3000)),
           ["power.csv"]),
        Op("fpt A.csv quasistationary", ["fpt", "A.csv", "--start", "quasistationary"],
           _ok(lambda out: ck.check_fpt(out.stdout, a, 0, "quasistationary", 50))),
        Op("fpt B.json restricted", ["fpt", "B.json", "--start", "restricted",
                                     "--target", str(target)],
           _ok(lambda out: ck.check_fpt(out.stdout, b, target, "restricted", 50))),
        simulate_op("simulate B.json", "B.json", 300, "simB.csv", profile_b, rel=1e-8,
                    extra=("--seed", str(s[1]))),
        Op("rigidity B.json", ["rigidity", "B.json", "--seed", str(s[1]), "--delta", _csv(deltas)],
           _ok(lambda out: ck.check_rigidity(out.stdout, profile_b, deltas, rel=1e-6))),
        Op("analyze cycle-1500 --format json", ["analyze", "cycle-1500", "--format", "json"],
           _ok(lambda out: ck.check_analyze(out.stdout, ck.cycle_spectrum(1500), "json", 1500))),
    ]


def cli_calls(seed: int, work: Path) -> list[Op]:
    """Many short commands, each in its own interpreter."""
    rng = np.random.default_rng([seed, 3])
    s = gen.derive_seeds(rng, 4)
    small = gen.two_cluster_chain(12, rng, cross=0.05)
    gen.write_kernel_csv(work / "small.csv", small.kernel)
    prof = gen.random_profile(12, rng)
    gen.write_profile_json(work / "prof12.json", prof)
    gen.write_kernel_csv(work / "nonrev.csv", gen.nonreversible_kernel(rng))
    gen.write_kernel_json(work / "reducible.json", gen.reducible_kernel(rng))
    cfg_steps = int(rng.integers(10, 40))
    (work / "cfg.json").write_text(json.dumps({"command": "simulate", "steps": cfg_steps,
                                               "seed": s[3]}))
    bar = gen.barbell_chain()
    spec_bar = bar.spectrum()
    tau = 1.0 - (float(np.max(np.abs(spec_bar[2:]))) / float(spec_bar[1])) ** 2
    two = gen.s8_two_mode_profile()
    s8 = gen.paper_s8_profile(s[0])
    s8_thermo = gen.paper_s8_profile(s[1])

    def thermo_check(out):
        ck.check_ledger(out.files["th.csv"], 10, s8_thermo, (0, 10))
        ck.check_fluxes(out.files["th.csv.fluxes.json"], out.files["th.csv"], (0, 5), s8_thermo)

    return [
        Op("analyze k5", ["analyze", "k5"],
           _ok(lambda out: ck.check_analyze(out.stdout, np.array([1.0, 0, 0, 0, 0]), "csv", 5))),
        Op("analyze cycle-50 --format json", ["analyze", "cycle-50", "--format", "json"],
           _ok(lambda out: ck.check_analyze(out.stdout, ck.cycle_spectrum(50), "json", 50))),
        Op("analyze small.csv --format json", ["analyze", "small.csv", "--format", "json"],
           _ok(lambda out: ck.check_analyze(out.stdout, small.spectrum(), "json", small.n))),
        Op("rigidity s8-two-mode", ["rigidity", "s8-two-mode", "--delta", _csv(DELTAS)],
           _ok(lambda out: ck.check_rigidity(out.stdout, two, DELTAS, exact_two_mode=True))),
        Op("rigidity prof12.json", ["rigidity", "prof12.json", "--delta", _csv(DELTAS)],
           _ok(lambda out: ck.check_rigidity(out.stdout, prof, DELTAS))),
        hypercube_op(64),
        Op("power barbell-metastable", ["power", "barbell-metastable", "--seed", str(s[2]),
                                        "--tau", repr(tau), "--out", "bar.csv"],
           _ok(lambda out: ck.check_power(out.stdout, out.files["bar.csv"], spec_bar, 0.1, tau, 200)),
           ["bar.csv"]),
        Op("fpt barbell-metastable quasistationary",
           ["fpt", "barbell-metastable", "--start", "quasistationary"],
           _ok(lambda out: ck.check_fpt(out.stdout, bar, 0, "quasistationary", 50))),
        simulate_op("simulate paper-s8 20 steps", "paper-s8", 20, "s8.csv", s8, (0, 20),
                    extra=("--seed", str(s[0]))),
        Op("thermo paper-s8 10 steps", ["thermo", "paper-s8", "--seed", str(s[1]), "--steps", "10",
                                        "--fluxes-at", "0,5", "--out", "th.csv"],
           _ok(thermo_check), ["th.csv", "th.csv.fluxes.json"], ledger_rows=11),
        Op("accel prof12.json", ["accel", "prof12.json", "--compare-plain", "--steps", "10"],
           _ok(lambda out: ck.check_accel(out.stdout, prof, 4, 10))),
        # --steps and --seed come from the config file only
        Op("--config simulate paper-s8", ["--config", "cfg.json", "simulate", "paper-s8",
                                          "--out", "cfg.csv"],
           _ok(lambda out: ck.check_ledger(out.files["cfg.csv"], cfg_steps,
                                           gen.paper_s8_profile(s[3]), (0, cfg_steps))),
           ["cfg.csv"], ledger_rows=cfg_steps + 1),
        Op("analyze nonrev.csv (rejected)", ["analyze", "nonrev.csv"],
           lambda out: ck.check_rejection(out.code, out.stdout, out.stderr, "NotReversible")),
        Op("analyze reducible.json (rejected)", ["analyze", "reducible.json"],
           lambda out: ck.check_rejection(out.code, out.stdout, out.stderr, "Reducible")),
    ]


WORKLOADS = {"ledger": ledger, "chains": chains, "cli-calls": cli_calls}
