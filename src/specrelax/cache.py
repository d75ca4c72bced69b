"""The on-disk cache of float64 arrays, in $XDG_CACHE_HOME/specrelax.

It holds two kinds of entry, each named (`entry`) by a SHA-256 of all that
decides its bits, so that a key never serves another input's arrays:

- `<sha256 of a chain file's bytes>-<csv|json>.npy`, the kernel the file
  parses to (for `io._parse_input`);
- `<sha256 of a solve key>-<eigh|eigvalsh>.npy`, LAPACK's raw output for one
  matrix (`solve_entry`, for `chains._certified_eigh`).

An entry is one or more arrays written back to back in the .npy format,
which round-trips them bit for bit.  Both kinds are stored by one rule:
`write` puts the arrays whole under a temporary name and `commit` renames
them in, so a reader never sees part of an entry; past BUDGET_BYTES the
least recently used entries are deleted.  Every fault of the cache is a
miss, so a command prints what it would print without it.

Nothing imports this module until an input is large enough to be cached.
"""

from __future__ import annotations

import contextlib
import functools
import os
import tempfile

import numpy as np

# past this, the least recently used entries are deleted
BUDGET_BYTES = 512 << 20


def directory() -> str | None:
    """$XDG_CACHE_HOME/specrelax, or ~/.cache/specrelax where that variable is
    unset, empty or relative; None where no home directory is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "specrelax") if os.path.isabs(base) else None


def load(entry: str, count: int = 1) -> tuple[np.ndarray, ...] | None:
    """The `count` float64 arrays an entry holds, marked as just used; None for
    a missing, empty, truncated, pickled or other-typed entry, or one with
    bytes after its last array."""
    try:
        with open(entry, "rb") as fh:
            arrays = tuple(np.lib.format.read_array(fh, allow_pickle=False)
                           for _ in range(count))
            if fh.read(1):
                return None
    except (OSError, ValueError):
        return None
    if any(a.dtype != np.float64 for a in arrays):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return arrays


def write(entry: str, *arrays: np.ndarray) -> str | None:
    """A new temporary file beside `entry` that holds the arrays, written
    without a copy of them; None where it cannot be written (no home, a full
    disk, a file where the directory should be)."""
    try:
        os.makedirs(os.path.dirname(entry), 0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(entry))
    except OSError:
        return None
    try:
        with os.fdopen(fd, "wb") as fh:
            for a in arrays:
                np.lib.format.write_array(fh, a, allow_pickle=False)
    except OSError:
        discard(tmp)
        return None
    return tmp


def commit(tmp: str, entry: str):
    """Rename a file made by `write` to `entry`, then evict; an OSError leaves
    the cache as it was."""
    try:
        os.replace(tmp, entry)
        _evict(os.path.dirname(entry), entry)
    except OSError:
        discard(tmp)


def discard(path: str):
    with contextlib.suppress(OSError):
        os.unlink(path)


def _evict(directory: str, keep: str):
    """Delete the least recently used files until the directory holds at most
    BUDGET_BYTES, sparing `keep`."""
    with os.scandir(directory) as it:
        files = sorted((e.stat().st_mtime_ns, e.stat().st_size, e.path)
                       for e in it if e.is_file(follow_symlinks=False))
    total = sum(size for _, size, _ in files)
    for _, size, path in files:
        if total <= BUDGET_BYTES:
            break
        if path != keep:
            discard(path)
            total -= size


# --- the keys -----------------------------------------------------------------

def entry(kind: str, *chunks) -> str | None:
    """The `kind` entry named by the SHA-256 of the chunks (bytes or
    C-contiguous arrays) in order; None where there is no cache directory."""
    import hashlib      # here, so that a command on a small input never loads it

    base, digest = directory(), hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return base and os.path.join(base, f"{digest.hexdigest()}-{kind}.npy")


def solve_entry(a: np.ndarray, routine: str) -> str | None:
    """The entry for LAPACK's `routine` ("eigh" or "eigvalsh") on the matrix
    `a`: a header line (the routine, the shape, numpy's version, and the
    OpenBLAS kernel and thread count, which decide LAPACK's bits), then a's
    rows.  None where numpy's OpenBLAS cannot be identified."""
    blas = blas_identity()
    return blas and entry(routine, f"{routine} {a.shape[0]}x{a.shape[1]} numpy {np.__version__} "
                                   f"{blas[0]} threads {blas[1]}\n".encode(), *a)


def blas_identity() -> tuple[str, int] | None:
    """(kernel, thread count) of numpy's OpenBLAS, read now: the kernel is the
    one it picked for this CPU, or was told to pick by OPENBLAS_CORETYPE.  None
    where that library is not found."""
    lib = _openblas()
    if lib is None:
        return None
    return lib.scipy_openblas_get_corename64_().decode(), lib.scipy_openblas_get_num_threads64_()


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, as a ctypes library, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(np.__file__))),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return lib
    return None
