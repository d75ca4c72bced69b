"""File formats and deterministic serialization.

Chain files: JSON {"kernel": [[...]]} or dense CSV (n rows of n floats).
Profile files: JSON {"eigenvalues": [...], "log_weights": [...]}.
Floats are emitted with 17 significant digits so output is byte-stable and
round-trips exactly.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .chains import DEFAULT_TOLERANCES, ReversibleChain, Tolerances, build_chain
from .errors import IoError
from .trajectory import SpectralProfile


def fmt(x) -> str:
    """17-significant-digit decimal rendering; empty string for missing."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return format(x, ".17g")


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
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            return fmt(x)
        return float(fmt(x))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def load_input_file(path: str, tol: Tolerances | None = None):
    """The chain or profile in a file, parsed once: JSON {"kernel": ...} or
    {"eigenvalues": ..., "log_weights": ...}, or else a dense CSV kernel."""
    if not path.endswith(".json"):
        return load_chain_file(path, tol)
    data = _read_json(path, "input")
    if isinstance(data, dict) and "kernel" in data:
        return _chain_from(data, path, tol)
    if isinstance(data, dict) and "eigenvalues" in data:
        return _profile_from(data, path)
    raise IoError(f"{path} holds neither a kernel nor a profile")


def load_chain_file(path: str, tol: Tolerances | None = None) -> ReversibleChain:
    if path.endswith(".json"):
        return _chain_from(_read_json(path, "chain"), path, tol)
    if not os.path.exists(path):
        raise IoError(f"chain file not found: {path}")
    try:
        kernel = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise IoError(f"malformed chain file {path}: {exc}") from exc
    return build_chain(kernel, tol or DEFAULT_TOLERANCES)


def load_profile_file(path: str) -> SpectralProfile:
    return _profile_from(_read_json(path, "profile"), path)


def _read_json(path: str, what: str):
    if not os.path.exists(path):
        raise IoError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise IoError(f"malformed JSON in {path}: {exc}") from exc


def _chain_from(data, path: str, tol: Tolerances | None) -> ReversibleChain:
    try:
        kernel = np.asarray(data["kernel"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed chain file {path}: {exc}") from exc
    return build_chain(kernel, tol or DEFAULT_TOLERANCES)


def _profile_from(data, path: str) -> SpectralProfile:
    try:
        return SpectralProfile(
            lambdas=np.asarray(data["eigenvalues"], dtype=float),
            log_weights=np.asarray(data["log_weights"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed profile file {path}: {exc}") from exc


def save_profile(profile: SpectralProfile, path: str):
    dump_json({"eigenvalues": list(profile.lambdas),
               "log_weights": list(profile.log_weights)}, path)
