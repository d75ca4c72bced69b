"""File formats and deterministic serialization.

Chain files: JSON {"kernel": [[...]]} or dense CSV (n rows of n floats).
Profile files: JSON {"eigenvalues": [...], "log_weights": [...]}.
Floats are emitted with 17 significant digits so output is byte-stable and
round-trips exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

from .chains import DEFAULT_TOLERANCES, Tolerances, build_chain
from .errors import IoError
from .trajectory import SpectralProfile

# A kernel file of at least this size is parsed once per content (the kernel
# entries of `cache`).  Under it the parse costs about what a lookup does: the
# hash, hashlib's first import and np.load.  1 MiB is a kernel of n = 220 in repr.
CACHE_MIN_BYTES = 1 << 20


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


def read_json(path: str, what: str, raw: bytes | None = None):
    """The parsed JSON of a file, or of `raw`, its bytes read before; IoError
    names it as a `what` file."""
    with _reading(path, what), _text(path, raw) as fh:
        return json.load(fh)


def read_csv(path: str, what: str, ndmin: int = 0, raw: bytes | None = None) -> np.ndarray:
    """The floats of a comma-separated file, or of `raw`, its bytes read
    before; IoError names it as a `what` file."""
    with _reading(path, what), _text(path, raw) as fh:
        # loadtxt only warns on a file of blank and '#' lines, and returns no numbers
        if not any(line.partition("#")[0].strip() for line in fh):
            raise ValueError("no numbers")
        fh.seek(0)
        return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=ndmin)


@contextlib.contextmanager
def _reading(path: str, what: str):
    """Turns a missing file, and an OSError or ValueError while reading it,
    into one IoError line that names it as a `what` file."""
    if not os.path.exists(path):
        raise IoError(f"{what} file not found: {path}")
    try:
        yield
    except OSError as exc:              # a directory, say
        raise IoError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:           # not JSON, not numbers, or not UTF-8
        raise IoError(f"malformed {what} file {path}: {exc}") from exc


def _text(path: str, raw: bytes | None):
    """The file's text as `open(path)` decodes and names it, from `raw` if given."""
    if raw is None:
        return open(path)
    buffer = io.BytesIO(raw)
    buffer.name = path
    return io.TextIOWrapper(buffer)


def load_input_file(path: str, tol: Tolerances = DEFAULT_TOLERANCES):
    """The chain or profile in a file: JSON {"kernel": ...} or
    {"eigenvalues": ..., "log_weights": ...}, or else a dense CSV kernel."""
    parsed = _parse_input(path)
    return parsed if isinstance(parsed, SpectralProfile) else build_chain(parsed, tol)


def _parse_input(path: str):
    """The kernel array or the profile in a file, read once.  A file of at
    least CACHE_MIN_BYTES has its kernel parsed once per content: the array
    is stored in the kernel cache before any check runs on it, and a file
    with the same bytes is loaded from there."""
    kind, what = ("json", "input") if path.endswith(".json") else ("csv", "chain")
    with _reading(path, what), open(path, "rb") as fh:
        raw = fh.read()
    entry = None
    if len(raw) >= CACHE_MIN_BYTES:
        from . import cache

        entry = cache.kernel_entry(raw, kind)
        if entry and (hit := cache.load(entry)):
            return hit[0]
    if kind == "csv":
        kernel = read_csv(path, what, ndmin=2, raw=raw)
    else:
        data = read_json(path, what, raw)
        if not isinstance(data, dict) or ("kernel" not in data and "eigenvalues" not in data):
            raise IoError(f"{path} holds neither a kernel nor a profile")
        if "kernel" not in data:
            return _profile_from(data, path)
        try:
            kernel = np.asarray(data["kernel"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise IoError(f"malformed chain file {path}: {exc}") from exc
    if entry and (tmp := cache.write(entry, kernel)):
        cache.commit(tmp, entry)
    return kernel


def _profile_from(data, path: str) -> SpectralProfile:
    try:
        lambdas = np.asarray(data["eigenvalues"], dtype=float)
        log_weights = np.asarray(data["log_weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed profile file {path}: {exc}") from exc
    return SpectralProfile(lambdas=lambdas, log_weights=log_weights)
