"""The pinned grid's traces against committed hashes.

A refactor of the solvers must leave their iterates bit-identical on the
pinned grid with one BLAS thread.  Each cell generates one instance at
p = 10 and seed 0, runs `solve` at the default settings and `solve_basic`
at eps0 = 1e-5 and k_max = 500 (where it stops at its step budget), and
hashes each result.  The hashes hold for one numpy and OpenBLAS build on
one OpenBLAS core, which together key them.  A change that moves the
iterates re-pins them: run this file as a script,

    PYTHONPATH=src python tests/test_trace_hashes.py

which names the cells whose hash differs from `PINNED` under the running
key, and paste the printed entry into `PINNED`.
"""

import ast
import ctypes
import glob
import hashlib
import pathlib

import numpy as np
import pytest

from conftest import run_with_blas_threads
from sympeig import GeneratorSpec, SolverParams, solve, solve_basic

CELLS = (("dense", 200), ("sparse", 800), ("slr", 800))
P = 10
SEED = 0
BASIC = {"eps0": 1e-5, "k_max": 500}

# the fields hashed per row: all of `InnerStep`'s, and `OuterStage`'s but its
# wall time and `reason`, which the pinned values predate and which the
# hashed fields determine
INNER_FIELDS = ("k", "stage", "f", "gnorm", "gamma", "t", "beta", "window_max", "capped")
OUTER_FIELDS = ("stage", "beta", "eps", "theta", "reached", "inner_iters", "refused",
                "residue", "sigma_ratio")

PINNED = {
    ("2.4.6", "0.3.31.188.0", "SkylakeX"): {
        "dense-200 solve":
            "290e50aa2d3a10c684cb45ff06977c86cc0a21edc8a4e811260d57946bbeb656",
        "dense-200 solve_basic":
            "c0037baaad6eea64a1fcb38d8f0a1f8fb8802b53d63defc45152f5dcb541c417",
        "sparse-800 solve":
            "ea2b165bdf9ac1d3644aa7f952baf3a9c431e3349aac1677ab205216b0264734",
        "sparse-800 solve_basic":
            "d7403eb2eed90617e72b9111380ddb96cc7e7bb391a832835766ba975f7c876d",
        "slr-800 solve":
            "7a81db0a8287f1a7e58b4828889a46487c9e6427bc2f56d32175ddaafcd51a9e",
        "slr-800 solve_basic":
            "54bea088543170d4a8998e726e8c2afa6ab725325e248d2220e1bcdea77c7fe5",
    },
}


def environment_key():
    """(numpy version, OpenBLAS version, OpenBLAS core) of numpy's BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    core = "unknown"
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn().decode()
    return (np.__version__, blas.get("version", "unknown"), core)


def _plain(value):
    # a form whose repr is exact and does not depend on the scalar's type
    if value is None or isinstance(value, np.ndarray):
        return value if value is None else value.tobytes()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def result_hash(res):
    """sha256 of a result's trace rows, eigenpairs, last iterate and status."""
    h = hashlib.sha256()
    for rows, names in ((res.trace.inner, INNER_FIELDS), (res.trace.outer, OUTER_FIELDS)):
        for row in rows:
            h.update(repr(tuple(_plain(getattr(row, name)) for name in names)).encode())
    for array in (res.eigenvalues, res.eigenbasis, res.x_final):
        h.update(repr(_plain(array)).encode())
    h.update(res.status.value.encode())
    return h.hexdigest()


def cell_hashes():
    """{cell: hash} for every cell and solver, in `PINNED`'s form."""
    hashes = {}
    for family, n in CELLS:
        op, _ = GeneratorSpec(family, n, seed=SEED).make()
        hashes[f"{family}-{n} solve"] = result_hash(solve(op, P))
        basic = solve_basic(op, P, SolverParams(**BASIC))
        hashes[f"{family}-{n} solve_basic"] = result_hash(basic)
    return hashes


_RUN = "from test_trace_hashes import cell_hashes\nprint(repr(cell_hashes()))\n"


def _hashes_with_one_thread():
    return ast.literal_eval(run_with_blas_threads(_RUN, threads=1))


def moved_cells(key, found):
    """The cells pinned under `key` whose hash in `found` differs."""
    return [cell for cell, pinned in PINNED[key].items() if found.get(cell) != pinned]


def test_pinned_grid_traces_are_unchanged():
    key = environment_key()
    if key not in PINNED:
        pytest.skip(f"no hashes pinned for numpy, OpenBLAS, core = {key}")
    moved = moved_cells(key, _hashes_with_one_thread())
    assert not moved, f"iterates moved in cells {moved} under {key}"


if __name__ == "__main__":
    key = environment_key()
    found = _hashes_with_one_thread()
    print("    ({}): {{".format(", ".join(f'"{part}"' for part in key)))
    for cell, digest in found.items():
        print(f'        "{cell}":\n            "{digest}",')
    print("    },")
    if key not in PINNED:
        print(f"no entry is pinned for {key}")
    else:
        moved = moved_cells(key, found)
        for cell in moved:
            print(f"moved: {cell}, pinned {PINNED[key][cell]}, now {found.get(cell)}")
        if not moved:
            print(f"no cell moved from the entry pinned for {key}")
