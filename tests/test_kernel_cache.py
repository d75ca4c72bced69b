"""The kernel cache: a chain file of at least io.CACHE_MIN_BYTES is parsed once
per content, and no state of the cache changes what a command prints.

The reference for every command is the same call with the cache switched off
by raising CACHE_MIN_BYTES, which is the parse path of a small file, and
chains.CACHE_MIN_STATES, which is the solve path of a small chain.  Every
chain here is large enough for each of its solves to be cached too, so each
listing of the cache directory names the kernel entry and the solve entry
(none where numpy's OpenBLAS is not identified).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrelax import cache
from specrelax import io as kio

from conftest import (BLAS, KERNEL_DAMAGES, cache_files, check_every_cache_state, child_env,
                      random_reversible, run, solve_entry_names, uncached)

COMMANDS = [["analyze"], ["simulate", "--steps", "20"], ["rigidity"],
            ["thermo", "--steps", "20"], ["accel", "--steps", "5"],
            ["power", "--max-iter", "20"], ["fpt", "--kmax", "10"]]


@pytest.fixture(scope="module")
def kernel_files(tmp_path_factory):
    """A dense n = 410 chain as a CSV and as a JSON kernel file, each >= 1 MiB."""
    directory = tmp_path_factory.mktemp("kernels")
    kernel = random_reversible(410, np.random.default_rng(31)).kernel
    files = {"csv": directory / "k.csv", "json": directory / "k.json"}
    np.savetxt(files["csv"], kernel, delimiter=",", fmt="%.17g")
    files["json"].write_text(json.dumps({"kernel": kernel.tolist()}))
    assert min(f.stat().st_size for f in files.values()) >= kio.CACHE_MIN_BYTES
    return files


def entry_of(path: Path, home: Path, kind: str) -> Path:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return home / "specrelax" / f"{digest}-{kind}.npy"


def _unparsed(m):
    m.setattr(kio, "read_csv", None)
    m.setattr(kio, "read_json", None)


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_every_cache_state_prints_the_uncached_bytes(command, kind, kernel_files, cache_home,
                                                     monkeypatch, capsys):
    path = kernel_files[kind]
    argv = [command[0], str(path), *command[1:]]
    want, calls = uncached(argv, capsys, monkeypatch)
    assert want[0] == 0 and want[2] == ""
    assert cache_files(cache_home) == [] and len(calls) == 1

    assert run(argv, capsys) == want                      # cold: parsed and stored
    entry = entry_of(path, cache_home, kind)
    assert cache_files(cache_home) == sorted([entry.name, *solve_entry_names(calls)])
    # warm: loaded, not parsed
    check_every_cache_state(argv, entry, want, KERNEL_DAMAGES, _unparsed, capsys, monkeypatch)


def test_stored_array_is_the_parse(kernel_files, cache_home):
    for kind, path in kernel_files.items():
        chain = kio.load_input_file(str(path))
        stored = np.load(entry_of(path, cache_home, kind), allow_pickle=False)
        assert stored.dtype == np.float64
        assert np.array_equal(stored, chain.kernel)


def test_small_files_bypass_the_cache(tmp_path, cache_home, capsys):
    path = tmp_path / "small.csv"
    np.savetxt(path, random_reversible(20, np.random.default_rng(3)).kernel,
               delimiter=",", fmt="%.17g")
    assert run(["analyze", str(path)], capsys)[0] == 0
    assert not cache_home.exists()


def test_a_file_rewritten_with_its_size_and_mtime_is_parsed_again(tmp_path, cache_home,
                                                                   monkeypatch, capsys):
    # %.17e is fixed width for entries in (0, 1): two kernels of one order
    # give files of one size
    path = tmp_path / "k.csv"
    first, second = (random_reversible(410, np.random.default_rng(s)).kernel for s in (1, 2))
    np.savetxt(path, first, delimiter=",", fmt="%.17e")
    before = path.stat()
    assert before.st_size >= kio.CACHE_MIN_BYTES
    old = run(["analyze", str(path)], capsys)
    np.savetxt(path, second, delimiter=",", fmt="%.17e")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    new = run(["analyze", str(path)], capsys)
    assert new == uncached(["analyze", str(path)], capsys, monkeypatch)[0]
    assert new != old
    entries = []
    for kernel in (first, second):     # each content has its own kernel and solve entry
        np.savetxt(path, kernel, delimiter=",", fmt="%.17e")
        _, calls = uncached(["analyze", str(path)], capsys, monkeypatch)
        entries += [entry_of(path, cache_home, "csv").name, *solve_entry_names(calls)]
    assert len(set(entries)) == (4 if BLAS else 2)
    assert cache_files(cache_home) == sorted(entries)


@pytest.mark.parametrize("fault", ["text", "not-utf8"])
@pytest.mark.parametrize("kind", ["csv", "json"])
def test_a_malformed_large_file_is_one_line_each_time_and_never_stored(
        kind, fault, kernel_files, tmp_path, cache_home, monkeypatch, capsys):
    raw = bytearray(kernel_files[kind].read_bytes())
    if fault == "text":
        raw = raw[:-3] + b"x\n" if kind == "csv" else raw[:-1]
    else:               # decoded from the bytes read once, the position is open()'s
        raw[len(raw) // 2] = 0xFF
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(bytes(raw))
    argv = ["analyze", str(path)]
    want, _ = uncached(argv, capsys, monkeypatch)
    assert want[:2] == (3, "")
    assert want[2].startswith(f"error: IoError: malformed {'chain' if kind == 'csv' else 'input'}"
                              f" file {path}: ") and want[2].count("\n") == 1
    assert ("can't decode byte 0xff" in want[2]) == (fault == "not-utf8")
    assert run(argv, capsys) == want
    assert run(argv, capsys) == want
    assert cache_files(cache_home) == []


def test_eviction_keeps_the_budget_and_the_newest_entry(tmp_path, cache_home, monkeypatch):
    paths = []
    for seed in range(3):
        paths.append(tmp_path / f"k{seed}.csv")
        np.savetxt(paths[-1], random_reversible(230, np.random.default_rng(seed)).kernel,
                   delimiter=",", fmt="%.17g")
    a, b, c = (entry_of(p, cache_home, "csv") for p in paths)
    size = 230 * 230 * 8 + 128                  # the .npy header pads to 128 bytes
    monkeypatch.setattr(cache, "BUDGET_BYTES", 2 * size + size // 2)
    for p in paths[:2]:
        kio.load_input_file(str(p))
    assert cache_files(cache_home) == sorted([a.name, b.name])
    assert a.stat().st_size == size
    os.utime(a, (1e9, 1e9))
    os.utime(b, (1.1e9, 1.1e9))
    kio.load_input_file(str(paths[0]))          # a hit marks a as the most recently used
    kio.load_input_file(str(paths[2]))
    assert cache_files(cache_home) == sorted([a.name, c.name])

    monkeypatch.setattr(cache, "BUDGET_BYTES", size // 2)
    kio.load_input_file(str(paths[1]))          # over budget alone, and kept
    assert cache_files(cache_home) == [b.name]


def test_two_cold_runs_at_once(kernel_files, cache_home, monkeypatch, capsys):
    want, calls = uncached(["analyze", str(kernel_files["csv"])], capsys, monkeypatch)
    argv = [sys.executable, "-m", "specrelax", "analyze", str(kernel_files["csv"])]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1] == (want[1].encode(), b"")
    assert cache_files(cache_home) == sorted([entry_of(kernel_files["csv"], cache_home, "csv").name,
                                              *solve_entry_names(calls)])


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--steps", "20"]],
                         ids=lambda c: c[0])
def test_a_column_major_kernel_entry_prints_the_uncached_bytes(command, kernel_files, cache_home,
                                                               monkeypatch, capsys):
    # an entry of the right values saved in Fortran order is a hit, and its
    # kernel hands LAPACK the bytes the row-major one does
    argv = [command[0], str(kernel_files["csv"]), *command[1:]]
    want, _ = uncached(argv, capsys, monkeypatch)
    assert run(argv, capsys) == want
    entry = entry_of(kernel_files["csv"], cache_home, "csv")
    np.save(entry, np.asfortranarray(np.load(entry)))
    assert np.load(entry).flags.f_contiguous
    with monkeypatch.context() as m:
        _unparsed(m)
        assert run(argv, capsys) == want


def test_importing_the_cli_loads_no_hashlib(tmp_path):
    # the per-call floor: a command on a small input loads neither hashlib nor
    # ctypes, nor the cache module that would use them; ctypes counts only when
    # `import numpy` has not loaded it already (numpy 2 does)
    np.savetxt(tmp_path / "small.csv", random_reversible(12, np.random.default_rng(5)).kernel,
               delimiter=",", fmt="%.17g")
    src = Path(kio.__file__).resolve().parents[1]
    for argv in (["analyze", "k5"], ["analyze", "cycle-50"], ["analyze", "small.csv"]):
        code = ("import sys, numpy; before = set(sys.modules); "
                "from specrelax.cli import main; "
                f"assert main({argv!r}) == 0; "
                "print([m for m in ('hashlib', '_hashlib', 'specrelax.cache') if m in sys.modules]"
                " + [m for m in ('ctypes', '_ctypes') if m in sys.modules and m not in before])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                             check=True).stdout
        assert out.splitlines()[-1] == "[]", argv


@pytest.mark.parametrize("xdg", [None, "", "relative/xdg"], ids=["unset", "empty", "relative"])
def test_the_cache_home_defaults_to_dot_cache(xdg, kernel_files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert run(["analyze", str(kernel_files["csv"])], capsys)[0] == 0
    assert entry_of(kernel_files["csv"], tmp_path / ".cache", "csv").exists()


def test_a_full_disk_leaves_no_file_behind(kernel_files, cache_home, monkeypatch, capsys):
    def full(fh, array, **kw):
        fh.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    argv = ["analyze", str(kernel_files["json"])]
    want, _ = uncached(argv, capsys, monkeypatch)
    monkeypatch.setattr(np.lib.format, "write_array", full)
    assert run(argv, capsys) == want
    assert cache.write(str(cache_home / "specrelax" / "x.npy"), np.zeros(3)) is None
    assert cache_files(cache_home) == []


def test_an_entry_that_cannot_be_renamed_in_leaves_no_file_behind(kernel_files, cache_home,
                                                                  monkeypatch, capsys):
    # a directory where the entry should be: a miss, and os.replace fails
    argv = ["analyze", str(kernel_files["csv"])]
    want, calls = uncached(argv, capsys, monkeypatch)
    entry = entry_of(kernel_files["csv"], cache_home, "csv")
    (entry / "occupied").mkdir(parents=True)
    assert run(argv, capsys) == want
    assert cache_files(cache_home) == sorted([entry.name, *solve_entry_names(calls)])
    assert [p.name for p in entry.iterdir()] == ["occupied"]
