"""Regenerate the reference figures of README.md.

    python3 specbench/reference.py

Runs every workload in two sets of RUNS runs with --trace 0, each run with
its own seed (101.. for ledger, 201.. for chains, 301.. for cli-calls; the
second set takes the next RUNS seeds), at the run_seconds of BENCHMARK.json,
then once with --trace 1 (seed 1).  Prints markdown tables: each end-to-end
metric's median over each set with its quartile spread (IQR / median, as
statistics.quantiles(values, n=4) gives the quartiles), the change of the
second set's median against the first's next to the metric's bound, and
each per-layer metric of the traced run.  Takes about 45 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FIRST_SEED = {"ledger": 101, "chains": 201, "cli-calls": 301}
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                           "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    workloads = list(FIRST_SEED)
    sets = {w: [[run(w, FIRST_SEED[w] + RUNS * s + i, 0) for i in range(RUNS)] for s in (0, 1)]
            for w in workloads}
    traced = {w: run(w, 1, 1) for w in workloads}

    print(f"End to end: median over each set of {RUNS} runs (IQR / median); "
          "change = second median / first median - 1.\n")
    print("| metric | bound | " + " | ".join(f"{w} set 1 | {w} set 2 | {w} change"
                                           for w in workloads) + " |")
    print("|---|---|" + "---|" * 3 * len(workloads))
    for entry in BENCHMARK["end_to_end"]:
        metric = entry["name"]
        cells = []
        for w in workloads:
            values = [[r["metrics"][metric]["value"] for r in runs] for runs in sets[w]]
            mids = [statistics.median(v) for v in values]
            cells += [f"{m:.4g} ({spread(v):.3f})" for m, v in zip(mids, values)]
            cells.append(f"{mids[1] / mids[0] - 1:+.3f}")
        print(f"| `{metric}` ({entry['unit']}) | {entry['bound']} | " + " | ".join(cells) + " |")
    for label, cell in [
            ("failed / attempted",
             lambda runs: ", ".join(sorted({f"{r['failed']}/{r['attempted']}" for r in runs}))),
            ("correct", lambda runs: str(all(r["correct"] for r in runs)).lower())]:
        cells = [c for w in workloads for c in (cell(sets[w][0]), cell(sets[w][1]), "")]
        print(f"| {label} | | " + " | ".join(cells) + " |")

    print("\nPer layer: one traced run, seed 1.\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for entry in BENCHMARK["per_layer"]:
        metric = entry["name"]
        cells = [f"{traced[w]['metrics'][metric]['value']:.4g}" for w in workloads]
        print(f"| `{metric}` ({entry['unit']}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
