"""File formats and deterministic serialization.

Chain files: JSON {"kernel": [[...]]} or dense CSV (n rows of n floats).
Profile files: JSON {"eigenvalues": [...], "log_weights": [...]}.
Floats are emitted with 17 significant digits so output is byte-stable and
round-trips exactly.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from .chains import DEFAULT_TOLERANCES, Tolerances, build_chain
from .errors import IoError
from .trajectory import SpectralProfile


def fmt(x) -> str:
    """17-significant-digit decimal rendering; empty string for missing."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")     # nan, inf and -inf included


def write_csv(path: str | None, header: list[str], rows: list[list]) -> str:
    """Render rows to CSV text and write it to `path`, or to stdout when there
    is none.  Returns the text."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    text = "\n".join(lines) + "\n"
    _write(path, text)
    return text


def dump_json(obj, path: str | None = None) -> str:
    """Deterministic JSON with full-precision floats, written as one line to
    `path`, or to stdout when there is none.  Returns the text, newline excluded."""
    text = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    _write(path, text + "\n")
    return text


def _write(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else fmt(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def read_json(path: str, what: str):
    """The parsed JSON of a file; IoError names it as a `what` file."""
    if not os.path.exists(path):
        raise IoError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:              # a directory, say
        raise IoError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:           # not JSON, or not UTF-8
        raise IoError(f"malformed {what} file {path}: {exc}") from exc


def read_csv(path: str, what: str, ndmin: int = 0) -> np.ndarray:
    """The floats of a comma-separated file; IoError names it as a `what` file."""
    if not os.path.exists(path):
        raise IoError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            # loadtxt only warns on a file of blank and '#' lines, and returns no numbers
            if not any(line.partition("#")[0].strip() for line in fh):
                raise ValueError("no numbers")
            fh.seek(0)
            return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=ndmin)
    except OSError as exc:
        raise IoError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise IoError(f"malformed {what} file {path}: {exc}") from exc


def load_input_file(path: str, tol: Tolerances = DEFAULT_TOLERANCES):
    """The chain or profile in a file, parsed once: JSON {"kernel": ...} or
    {"eigenvalues": ..., "log_weights": ...}, or else a dense CSV kernel."""
    if not path.endswith(".json"):
        return build_chain(read_csv(path, "chain", ndmin=2), tol)
    data = read_json(path, "input")
    if isinstance(data, dict) and "kernel" in data:
        try:
            kernel = np.asarray(data["kernel"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise IoError(f"malformed chain file {path}: {exc}") from exc
        return build_chain(kernel, tol)
    if isinstance(data, dict) and "eigenvalues" in data:
        return _profile_from(data, path)
    raise IoError(f"{path} holds neither a kernel nor a profile")


def _profile_from(data, path: str) -> SpectralProfile:
    try:
        lambdas = np.asarray(data["eigenvalues"], dtype=float)
        log_weights = np.asarray(data["log_weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed profile file {path}: {exc}") from exc
    return SpectralProfile(lambdas=lambdas, log_weights=log_weights)
