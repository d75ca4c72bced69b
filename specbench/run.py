"""specrelax benchmark: timed CLI workloads with independent output checks.

    python3 specbench/run.py --workload ledger|chains|cli-calls --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository; the program is taken from its `src`
directory.  One client runs the workload's fixed list of operations as a
closed loop: each operation is one `python -m specrelax ...` process, and the
next starts when it has exited.  After set-up (fresh-interpreter imports,
input generation, one untimed warm-up command) whole passes over the list
start until S seconds have passed, and at least two run.
Outputs are checked after the passes, outside every timed span.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
twice in a row, plain and traced (under spans.py), in alternating order,
for at least two such pairs of passes, and prints the per-layer metrics of
the traced runs and the tracing overhead.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2
HARD_STOP_S = 100.0   # never start a pass after this, whatever --seconds says

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "slowest_op_s": "s",
             "peak_rss_mb": "MB"}

# per-layer time metrics: self time summed over the listed spans
LAYER_TIMES = {
    "cli.parse_s": ["cli.parse_config"],
    "cli.self_s": "cli.",
    "presets.resolve_s": "presets.",
    "io.read_s": ["io.load_chain_file", "io.load_profile_file"],
    "io.write_s": ["io.write_csv", "io.dump_json", "io.save_profile"],
    "chains.build_chain_s": ["chains.build_chain"],
    "chains.spectral_decomposition_s": ["chains.spectral_decomposition"],
    "chains.hypercube_profile_s": ["chains.hypercube_profile"],
    "trajectory.ledger_at_s": ["trajectory.ledger_at"],
    "trajectory.project_initial_s": ["trajectory.project_initial"],
    "thermo.entropy_balance_s": ["thermo.entropy_balance"],
    "thermo.canonical_covariance_s": ["thermo.canonical_covariance"],
    "thermo.G_step_s": ["thermo.G_step"],
    "thermo.spectral_entropy_s": ["thermo.spectral_entropy"],
    "rigidity.rigidity_time_s": ["rigidity.rigidity_time"],
    "power_iter.run_power_s": ["power_iter.run_power"],
    "power_iter.eigenvector_error_s": ["power_iter.eigenvector_error"],
    "power_iter.stopping_update_s": ["power_iter.StoppingState.update"],
    "first_passage.absorb_s": ["first_passage.absorb"],
    "first_passage.tail_curve_s": ["first_passage.tail_curve"],
    "accel.build_Qm_s": ["accel.build_Qm"],
    "accel.accelerated_spectrum_s": ["accel.accelerated_spectrum"],
}
LAYER_CALLS = {
    "chains.spectral_decomposition_calls": "chains.spectral_decomposition",
    "trajectory.ledger_at_calls": "trajectory.ledger_at",
    "rigidity.split_slow_fast_calls": "rigidity.split_slow_fast",
}
# per-layer counts recorded by spans.py under the metric's own name
LAYER_COUNTS = {
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "chains.states_built": "count",
    "power_iter.matvecs": "count",
    "first_passage.block_matvecs": "count",
}


@dataclass
class OpRun:
    seconds: float
    rss_mb: float
    digest: str
    spans: dict | None = None


@dataclass
class Pass:
    traced: bool
    wall: float
    runs: list[OpRun]


class Runner:
    """Launches program processes from the work directory and times them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)
        self.env.pop("PYTHONWARNINGS", None)
        self.first = {}   # op index -> Outcome of its first run

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, str, str]:
        """Run cmd to completion: (exit code, wall s, max RSS MB, stdout, stderr)."""
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def run_op(self, index: int, op, traced: bool) -> OpRun:
        for name in op.outputs:
            (self.work / name).unlink(missing_ok=True)
        spans_path = self.work / ".spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "specrelax", *op.argv]
        code, wall, rss, stdout, stderr = self.spawn(cmd)
        files = {}
        for name in op.outputs:
            path = self.work / name
            files[name] = path.read_text(errors="replace") if path.exists() else ""
        outcome = Outcome(code, stdout, stderr, files)
        digest = hashlib.sha256(json.dumps([code, stdout, stderr, files]).encode()).hexdigest()
        self.first.setdefault(index, outcome)
        spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        return OpRun(wall, rss, digest, spans)

    def run_pass(self, ops) -> Pass:
        t0 = time.perf_counter()
        runs = [self.run_op(i, op, False) for i, op in enumerate(ops)]
        return Pass(False, time.perf_counter() - t0, runs)

    def run_paired(self, ops, pair: int) -> tuple[Pass, Pass]:
        """Each operation plain and traced, back to back.

        A pair shares the machine's speed of the moment, so the difference
        of the two sums is the tracing cost rather than drift between passes.
        Which run goes first alternates from operation to operation and from
        pair to pair, so that the second run's warmer caches favour neither.
        """
        plain, traced = [], []
        for i, op in enumerate(ops):
            for trace in ((False, True) if (i + pair) % 2 == 0 else (True, False)):
                (traced if trace else plain).append(self.run_op(i, op, trace))
        return (Pass(False, sum(r.seconds for r in plain), plain),
                Pass(True, sum(r.seconds for r in traced), traced))

    def import_seconds(self) -> float:
        code = ("import time; t = time.perf_counter(); import specrelax.cli; "
                "print(repr(time.perf_counter() - t))")
        rc, _, _, stdout, stderr = self.spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import specrelax.cli failed: {stderr.strip()}")
        return float(stdout)

    def importtime(self) -> tuple[float, float]:
        """(total, scipy) seconds of `import specrelax.cli` from -X importtime."""
        rc, _, _, _, stderr = self.spawn(
            [sys.executable, "-X", "importtime", "-c", "import specrelax.cli"])
        if rc != 0:
            raise RuntimeError(f"import specrelax.cli failed: {stderr.strip()[-300:]}")
        total = scipy = 0.0
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            try:
                self_us, cumulative_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue   # the header line
            name = fields[2]   # one space, then two more per nesting level
            package = name.strip().split(".")[0]
            if package == "specrelax" and name[1:2] != " ":
                total += cumulative_us / 1e6
            if package == "scipy":
                scipy += self_us / 1e6
        return total, scipy


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median([p.wall for p in plain]),
        "op_p50_s": statistics.median([r.seconds for p in plain for r in p.runs]),
        "slowest_op_s": statistics.median([max(r.seconds for r in p.runs) for p in plain]),
        "peak_rss_mb": statistics.median([max(r.rss_mb for r in p.runs) for p in plain]),
    }


def layer_metrics(ops, p: Pass) -> dict:
    """Per-layer values of one traced pass."""
    spans, counts = {}, {}
    ledger_calls = ledger_rows = 0
    for op, run in zip(ops, p.runs):
        data = run.spans or {"spans": {}, "counts": {}}
        for name, (calls, self_s) in data["spans"].items():
            c, s = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, s + self_s)
        for name, value in data["counts"].items():
            counts[name] = (max(counts.get(name, 0), value) if name.endswith("_max")
                            else counts.get(name, 0) + value)
        if op.ledger_rows:
            ledger_rows += op.ledger_rows
            ledger_calls += data["spans"].get("trajectory.ledger_at", (0, 0.0))[0]
    out = {}
    for metric, names in LAYER_TIMES.items():
        if isinstance(names, str):
            out[metric] = sum(s for n, (_, s) in spans.items() if n.startswith(names))
        else:
            out[metric] = sum(spans.get(n, (0, 0.0))[1] for n in names)
    for metric, name in LAYER_CALLS.items():
        out[metric] = spans.get(name, (0, 0.0))[0]
    for metric in LAYER_COUNTS:
        out[metric] = counts.get(metric, 0)
    out["trajectory.rows_per_ledger_call"] = ledger_rows / ledger_calls if ledger_calls else 0.0
    matvecs = counts.get("power_iter.matvecs", 0)
    consumed = spans.get("power_iter.StoppingState.update", (0, 0.0))[0]
    out["power_iter.useful_matvec_ratio"] = consumed / matvecs if matvecs else 0.0
    out["power_iter.iterate_mb"] = counts.get("power_iter.iterate_bytes_max", 0) / 2 ** 20
    return out


LAYER_UNITS = {**{m: "s" for m in LAYER_TIMES}, **{m: "count" for m in LAYER_CALLS},
               **LAYER_COUNTS,
               "import.total_s": "s", "import.scipy_s": "s",
               "trajectory.rows_per_ledger_call": "rows/call",
               "power_iter.useful_matvec_ratio": "ratio", "power_iter.iterate_mb": "MB",
               "trace.overhead_s": "s"}


def judge(ops, runner: Runner, passes: list[Pass]) -> tuple[bool, int, int, list[str]]:
    """Check every operation once, then hold each repeat to the same bytes.

    An operation fails when its check raises, or when a repeat prints other
    bytes than the first pass did.  `correct` stays true only when every
    failure is a KnownFault: a recorded program fault in its recorded form.
    """
    verdicts = {}   # op index -> None, or (is a known fault, reason)
    for i, op in enumerate(ops):
        try:
            op.check(runner.first[i])
            verdicts[i] = None
        except checks.KnownFault as exc:
            verdicts[i] = (True, str(exc))
        except checks.CheckFailed as exc:
            verdicts[i] = (False, str(exc))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            # output too malformed to check
            verdicts[i] = (False, f"{type(exc).__name__}: {exc}")
    first_digest = {i: run.digest for i, run in enumerate(passes[0].runs)}
    failures: dict[int, list[tuple[bool, str]]] = {}
    attempted = failed = 0
    for p in passes:
        for i, run in enumerate(p.runs):
            attempted += 1
            verdict = verdicts[i]
            if run.digest != first_digest[i]:
                verdict = (False, "output differs from the same operation's first run in this run")
            if verdict is not None:
                failed += 1
                failures.setdefault(i, []).append(verdict)
    correct = all(known for found in failures.values() for known, _ in found)
    lines = []
    for i, found in failures.items():
        unexpected = [reason for known, reason in found if not known]
        reason = unexpected[0] if unexpected else f"known fault: {found[0][1]}"
        lines.append(f"FAILED {ops[i].name} ({len(found)}x): {reason}")
    return correct, attempted, failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    if not (ROOT / "src" / "specrelax" / "cli.py").is_file():
        sys.stderr.write(f"no program source at {ROOT / 'src' / 'specrelax'}\n")
        return 2

    # SIGTERM unwinds like an exception, so the running command is killed
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    state = ROOT / ".specbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        ops = WORKLOADS[args.workload](args.seed, work)
        runner.import_seconds()   # compiles bytecode, warms the file cache
        setup_s = statistics.median([runner.import_seconds() for _ in range(SETUP_SAMPLES)])
        runner.spawn([sys.executable, "-m", "specrelax", "analyze", "k5"])
        if args.trace:
            imports = [runner.importtime() for _ in range(IMPORTTIME_SAMPLES)]
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            done = sum(not p.traced for p in passes)   # plain passes, or pairs
            if (done >= MIN_PASSES
                    and time.perf_counter() - start >= min(args.seconds, HARD_STOP_S)):
                break
            if args.trace:
                passes.extend(runner.run_paired(ops, done))
            else:
                passes.append(runner.run_pass(ops))
        correct, attempted, failed, lines = judge(ops, runner, passes)
        for line in lines:
            print(line)
        if args.trace:
            traced = [layer_metrics(ops, p) for p in passes if p.traced]
            values = {m: statistics.median([t[m] for t in traced]) for m in traced[0]}
            values["import.total_s"] = statistics.median([t for t, _ in imports])
            values["import.scipy_s"] = statistics.median([s for _, s in imports])
            walls = {t: statistics.median([p.wall for p in passes if p.traced == t])
                     for t in (True, False)}
            values["trace.overhead_s"] = walls[True] - walls[False]
            units = LAYER_UNITS
        else:
            values = end_to_end(passes, setup_s)
            units = E2E_UNITS
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {m: {"value": float(values[m]), "unit": units[m]} for m in units}}
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      passes=[{"traced": p.traced, "wall": p.wall,
                               "ops": {op.name: r.seconds for op, r in zip(ops, p.runs)}}
                              for p in passes])
        (state / f"result-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
