"""Run one specrelax command with a span recorder around every layer function.

    python spans.py OUT.json -- <specrelax arguments>

After `specrelax.cli` is imported, every public function of the layer
modules (and `StoppingState.update`) is replaced by a wrapper, in its own
module and in every specrelax module that imported it by name, so calls are
recorded wherever the caller looks the function up.  Spans nest: a span's
self time is its duration minus the time covered by its child spans.  A few
wrappers also count work from their arguments or results.  OUT.json gets
{"spans": {name: [calls, self_s]}, "counts": {name: value}}; the exit code
is the command's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("cli", "io", "presets", "chains", "trajectory", "rigidity", "thermo",
          "power_iter", "accel", "first_passage")
METHODS = {"power_iter": ("StoppingState.update",)}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _text_bytes(counts, fn, args, kwargs, result):
    counts["io.bytes_written"] += len(result.encode())


def _file_bytes(counts, fn, args, kwargs, result):
    counts["io.bytes_read"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _states(counts, fn, args, kwargs, result):
    counts["chains.states_built"] += result.n


def _power(counts, fn, args, kwargs, result):
    counts["power_iter.matvecs"] += result.steps
    counts["power_iter.iterate_bytes_max"] = max(counts["power_iter.iterate_bytes_max"],
                                                 result.iterates.nbytes)


def _block_steps(name):
    def hook(counts, fn, args, kwargs, result):
        counts["first_passage.block_matvecs"] += _arg(fn, args, kwargs, name)
    return hook


HOOKS = {
    "io.write_csv": _text_bytes,
    "io.dump_json": _text_bytes,
    "io.load_chain_file": _file_bytes,
    "io.load_profile_file": _file_bytes,
    "chains.build_chain": _states,
    "power_iter.run_power": _power,
    "first_passage.tail_curve": _block_steps("k_max"),
    "first_passage.fpt_tail": _block_steps("k"),
}


class Recorder:
    def __init__(self):
        self.stack: list[float] = []      # child time covered, per open span
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self.self_s[name] += duration - self.stack.pop()
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1] += duration
            if hook is not None:
                try:
                    hook(self.counts, fn, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, OSError):
                    pass  # a changed signature leaves the count at zero
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": {k: [self.calls[k], self.self_s[k]] for k in self.calls},
                       "counts": dict(self.counts)}, fh)


def install(recorder: Recorder):
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"specrelax.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                replaced[obj] = recorder.wrap(f"{layer}.{name}", obj)
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, recorder.wrap(f"{layer}.{path}", getattr(cls, meth)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "specrelax" or mod_name.startswith("specrelax."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    import specrelax.cli

    recorder = Recorder()
    install(recorder)
    try:
        return specrelax.cli.main(sys.argv[3:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
