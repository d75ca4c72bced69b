"""The solve cache: the eigenproblem of a chain of at least
chains.CACHE_MIN_STATES[routine] states is solved by LAPACK once per matrix,
and no state of the cache changes what a command prints.

The reference for every command is the same call with the cache switched off
by raising CACHE_MIN_STATES, which is the solve path of a small chain.  The
chain files here are under io.CACHE_MIN_BYTES, so the cache holds solve
entries alone.  Where numpy's OpenBLAS is not identified the tests that need
an entry are skipped, and the others check that none is written.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrelax import cache, chains
from specrelax import io as kio
from specrelax.errors import EigensolveFailure

from conftest import (BLAS, DAMAGED, cache_files, centered_random_start, check_every_cache_state,
                      child_env, needs_blas, power_stream, record_solves, run, solve_cache_off,
                      solve_entry_name, solve_entry_names, uncached)

N = 410     # analyze's eigvalsh, and eigh on the chain and on fpt's block, are cached

COMMANDS = [["analyze"], ["simulate", "--steps", "20"], ["power", "--max-iter", "20"],
            ["fpt", "--kmax", "10"]]


def banded_reversible(n: int, rng: np.random.Generator, width: int = 3) -> np.ndarray:
    """The kernel of a random reversible chain on a cycle in which each state
    talks to the `width` nearest on either side: a file of few digits."""
    w = np.zeros((n, n))
    for shift in range(1, width + 1):
        band = rng.uniform(0.1, 1.0, n)
        w[np.arange(n), (np.arange(n) + shift) % n] = band
    w += w.T
    return w / w.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("chains") / "k.csv"
    np.savetxt(path, banded_reversible(N, np.random.default_rng(32)), delimiter=",",
               fmt="%.17g")
    assert path.stat().st_size < kio.CACHE_MIN_BYTES
    assert N - 1 >= max(chains.CACHE_MIN_STATES.values())
    return path


@needs_blas
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_every_cache_state_prints_the_uncached_bytes(command, chain_file, cache_home,
                                                     monkeypatch, capsys):
    argv = [command[0], str(chain_file), *command[1:]]
    want, calls = uncached(argv, capsys, monkeypatch)
    solves = solve_entry_names(calls)
    assert want[0] == 0 and want[2] == ""
    assert len(solves) == 1 and cache_files(cache_home) == []

    assert run(argv, capsys) == want                      # cold: solved and stored
    assert cache_files(cache_home) == solves
    warm = []           # read, not solved
    check_every_cache_state(argv, cache_home / "specrelax" / solves[0], want, len(DAMAGED),
                            lambda m: warm.append(record_solves(m)), capsys, monkeypatch)
    assert warm == [[]]


@needs_blas
def test_stored_arrays_are_lapacks_output(chain_file, cache_home):
    chain = kio.load_input_file(str(chain_file))
    with pytest.MonkeyPatch.context() as m:
        calls = record_solves(m)
        chains.spectral_decomposition(chain)
    (routine, a), = calls
    lam, y = np.linalg.eigh(a)
    stored = cache.load(str(cache_home / "specrelax" / solve_entry_name(routine, a)), 2)
    assert all(s.dtype == np.float64 for s in stored)
    assert np.array_equal(stored[0], lam) and np.array_equal(stored[1], y)


@needs_blas
def test_twins_presets_and_absorbed_blocks_share_entries(tmp_path, cache_home, monkeypatch,
                                                         capsys):
    # a preset and a file of its kernel, and a CSV and a JSON of one kernel,
    # hand LAPACK the same matrix; so do two fpt calls on one target
    kernel = chains.cycle_graph(N).kernel
    np.savetxt(tmp_path / "cycle.csv", kernel, delimiter=",", fmt="%.17g")
    kio.dump_json({"kernel": kernel}, str(tmp_path / "cycle.json"))
    assert max(p.stat().st_size for p in tmp_path.iterdir()) < kio.CACHE_MIN_BYTES
    pairs = [(["analyze", f"cycle-{N}"], ["analyze", str(tmp_path / "cycle.csv")]),
             (["analyze", str(tmp_path / "cycle.csv")], ["analyze", str(tmp_path / "cycle.json")]),
             (["fpt", f"cycle-{N}", "--start", "uniform"],
              ["fpt", str(tmp_path / "cycle.json"), "--start", "quasistationary"])]
    for first, second in pairs:
        assert run(first, capsys)[0] == 0
        before = cache_files(cache_home)
        want, _ = uncached(second, capsys, monkeypatch)
        with monkeypatch.context() as m:
            calls = record_solves(m)
            assert run(second, capsys) == want
        assert calls == [], second
        assert cache_files(cache_home) == before


def test_small_chains_bypass_the_cache(cache_home, monkeypatch, capsys):
    # each routine has its own threshold: eigvalsh, which costs less than
    # eigh, is cached only on larger chains
    eigh, eigvalsh = chains.CACHE_MIN_STATES["eigh"], chains.CACHE_MIN_STATES["eigvalsh"]
    assert eigh < eigvalsh
    small = [["simulate", f"cycle-{eigh - 1}", "--steps", "3"],
             ["fpt", f"cycle-{eigh}", "--kmax", "3"],     # an absorbed block of eigh - 1
             ["analyze", f"cycle-{eigvalsh - 1}"]]
    for argv in small:
        assert run(argv, capsys)[0] == 0
    assert not cache_home.exists()
    calls = record_solves(monkeypatch)
    for argv in [["simulate", f"cycle-{eigh}", "--steps", "3"], ["analyze", f"cycle-{eigvalsh}"]]:
        assert run(argv, capsys)[0] == 0
    assert sorted(routine for routine, _ in calls) == ["eigh", "eigvalsh"]
    assert len(cache_files(cache_home)) == (2 if BLAS else 0)


@needs_blas
def test_an_unidentified_blas_reads_no_entry(chain_file, cache_home, monkeypatch, capsys):
    argv = ["simulate", str(chain_file), "--steps", "5"]
    want, _ = uncached(argv, capsys, monkeypatch)
    assert run(argv, capsys) == want
    assert len(cache_files(cache_home)) == 1
    monkeypatch.setattr(cache, "blas_identity", lambda: None)
    calls = record_solves(monkeypatch)
    assert run(argv, capsys) == want
    assert [routine for routine, _ in calls] == ["eigh"]


def test_an_unidentified_blas_writes_no_entry(chain_file, cache_home, monkeypatch, capsys):
    monkeypatch.setattr(cache, "blas_identity", lambda: None)
    for command in COMMANDS:
        argv = [command[0], str(chain_file), *command[1:]]
        want, _ = uncached(argv, capsys, monkeypatch)
        calls = record_solves(monkeypatch)
        assert run(argv, capsys) == want
        assert run(argv, capsys) == want
        assert len(calls) == 2, command
    assert cache_files(cache_home) == []


def test_a_column_major_kernel_hands_lapack_the_same_bytes(chain_file, cache_home,
                                                          monkeypatch):
    # a kernel given to build_chain column-major is kept row-major: it is
    # solved, keyed, returned and iterated as the same kernel given row-major
    chain = kio.load_input_file(str(chain_file))
    fortran = chains.build_chain(np.asfortranarray(chain.kernel))
    assert fortran.kernel.flags.c_contiguous and chain.kernel.flags.c_contiguous
    solves = [(chains.spectral_decomposition, lambda d: (d.eigenvalues, d.eigenvectors)),
              (chains.chain_spectrum, lambda lam: (lam,))]
    for solve, arrays in solves:
        with monkeypatch.context() as m:
            solve_cache_off(m)
            want = [a.tobytes() for a in arrays(solve(chain))]
            assert [a.tobytes() for a in arrays(solve(fortran))] == want
        calls = record_solves(monkeypatch)
        for c in (fortran, fortran, chain):     # cold, then warm on either layout
            assert [a.tobytes() for a in arrays(solve(c))] == want
        assert len(calls) == (1 if BLAS else 3)
    assert len(cache_files(cache_home)) == (2 if BLAS else 0)
    g0 = centered_random_start(chain, np.random.default_rng(7))
    assert ([a.tobytes() for a in power_stream(fortran, g0, 50)]
            == [a.tobytes() for a in power_stream(chain, g0, 50)])


@pytest.mark.parametrize("solve", ["eigh", "eigvalsh"])
def test_a_failing_lapack_output_raises_and_is_never_stored(solve, chain_file, cache_home,
                                                            monkeypatch, capsys):
    real = getattr(np.linalg, solve)

    def perturbed(a):
        out = real(a)
        if solve == "eigh":
            out.eigenvectors[0, 1] += 1e-6
        else:
            out[3] += 1e-3
        return out

    monkeypatch.setattr(np.linalg, solve, perturbed)
    argv = ["simulate" if solve == "eigh" else "analyze", str(chain_file)]
    want, _ = uncached(argv, capsys, monkeypatch)
    assert want[:2] == (4, "") and want[2].startswith("error: EigensolveFailure: ")
    assert run(argv, capsys) == want
    assert run(argv, capsys) == want
    assert cache_files(cache_home) == []
    chain = kio.load_input_file(str(chain_file))
    with pytest.raises(EigensolveFailure):
        (chains.spectral_decomposition if solve == "eigh" else chains.chain_spectrum)(chain)
    assert cache_files(cache_home) == []


@needs_blas
def test_another_blas_kernel_or_thread_count_misses(chain_file, cache_home):
    # each OpenBLAS kernel and thread count has its own entry; the kernel is
    # forced, for the child alone, to one other than the one this CPU selects
    other = "Sandybridge" if BLAS[0] == "Haswell" else "Haswell"
    settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": other},
                {"OPENBLAS_NUM_THREADS": "1"}]
    identities = []
    for extra in settings:
        env = child_env(**extra)
        subprocess.run([sys.executable, "-m", "specrelax", "analyze", str(chain_file)],
                       capture_output=True, env=env, check=True, timeout=120)
        identities.append(subprocess.run(
            [sys.executable, "-c", "from specrelax.cache import blas_identity as b; print(b())"],
            capture_output=True, text=True, env=env, check=True, timeout=120).stdout)
        assert len(cache_files(cache_home)) == len(set(identities)), extra
    assert identities[0] == identities[-1]


def test_two_cold_runs_at_once(chain_file, cache_home, monkeypatch, capsys):
    argv = ["simulate", str(chain_file), "--steps", "5"]
    want, calls = uncached(argv, capsys, monkeypatch)
    procs = [subprocess.Popen([sys.executable, "-m", "specrelax", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=child_env())
             for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1] == (want[1].encode(), b"")
    assert cache_files(cache_home) == solve_entry_names(calls)


def test_numpy_without_its_openblas_is_unidentified(tmp_path, monkeypatch):
    # a numpy whose numpy.libs holds no loadable OpenBLAS: a file that is no
    # library, and a library without OpenBLAS's symbols (ctypes' own)
    import _ctypes

    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas64_a.so").write_bytes(b"not a library")
    (libs / "libscipy_openblas64_b.so").symlink_to(_ctypes.__file__)
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    cache._openblas.cache_clear()
    try:
        assert cache.blas_identity() is None
    finally:
        monkeypatch.undo()
        cache._openblas.cache_clear()
    assert cache.blas_identity() == BLAS
