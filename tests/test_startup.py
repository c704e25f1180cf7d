"""What importing the package and its command line loads and starts.

``import ropefreq`` loads its modules on first use of a name, so it imports
no NumPy. ``import ropefreq.cli`` loads NumPy with OpenBLAS started on one
thread, since every product the program makes is pinned to one, and leaves
``OPENBLAS_NUM_THREADS`` as it found it; a process that loaded NumPy first
keeps the count its BLAS started with. Each case runs in a fresh process,
and counts the process's threads in ``/proc/self/task``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Prints what a fresh process holds after importing ``sys.argv[1]``'s
# modules in order: whether NumPy is loaded, its threads, BLAS's thread
# count (None without OpenBLAS's entry points), whether the environment is
# as it was before the imports, and the variable's value.
PROBE = """
import importlib, json, os, sys
before = dict(os.environ)
for name in sys.argv[1].split(","):
    importlib.import_module(name)
blas = None
if "numpy" in sys.modules:
    from ropefreq.diagnostics import _openblas
    blas = _openblas() and _openblas()[1]()
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "tasks": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "blas": blas,
    "environ": dict(os.environ) == before,
    "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""

# The package's public names, loaded on first use: a module by its name,
# every module's ``__all__`` by a star import, ``dir`` and an unknown name.
SURFACE = """
import sys
import ropefreq

modules = ("attention", "bands", "diagnostics", "errors", "rope", "synthetic")
assert ropefreq.rope is sys.modules["ropefreq.rope"]
names = {}
exec("from ropefreq import *", names)
union = sorted(name for module in modules for name in getattr(ropefreq, module).__all__)
assert ropefreq.__all__ == union and len(union) == 38, union
for module in modules:
    for name in getattr(ropefreq, module).__all__:
        assert names[name] is getattr(getattr(ropefreq, module), name), name
assert set(union) <= set(dir(ropefreq))
try:
    ropefreq.no_such_name
except AttributeError as exc:
    assert "no attribute 'no_such_name'" in str(exc), exc
else:
    raise AssertionError("ropefreq.no_such_name resolved")
"""


def run(code: str, *args: str, threads: str | None = None) -> str:
    """Stdout of ``code`` in a fresh interpreter, with OPENBLAS_NUM_THREADS=``threads`` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def probe(modules: str, threads: str | None) -> dict:
    return json.loads(run(PROBE, modules, threads=threads))


@pytest.fixture(scope="module")
def counted():
    """What ``import numpy`` alone starts at OPENBLAS_NUM_THREADS=2 (two threads on two CPUs).

    Skips where threads cannot be counted or BLAS's count cannot be read.
    """
    got = probe("numpy", "2")
    if got["tasks"] is None:
        pytest.skip("no /proc/self/task")
    if got["blas"] is None:
        pytest.skip("no OpenBLAS entry points")
    return got


def test_import_ropefreq_loads_no_numpy():
    got = probe("ropefreq", "2")
    assert got["numpy"] is False
    assert got["environ"] and got["variable"] == "2"


@pytest.mark.parametrize("threads", ["2", None], ids=["two", "unset"])
def test_the_cli_starts_blas_on_one_thread(counted, threads):
    got = probe("ropefreq.cli", threads)
    assert (got["tasks"], got["blas"]) == (1, 1)
    assert got["environ"] and got["variable"] == threads


def test_numpy_loaded_first_keeps_its_count(counted):
    got = probe("numpy,ropefreq.cli", "2")
    assert (got["tasks"], got["blas"]) == (counted["tasks"], counted["blas"])
    assert got["environ"] and got["variable"] == "2"


def test_the_package_keeps_its_public_names():
    run(SURFACE)
