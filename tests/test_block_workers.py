"""``evaluate_shared`` on two block workers against the same loop on one.

With numpy's OpenBLAS found and a second CPU, the evaluator computes logits
blocks of ``_MIN_PAIRED_ROWS`` rows or more two at a time, the second on a
worker thread, and so the band groups when two band panels fit its work
buffer, with OpenBLAS pinned to one thread while they run. Without them it
runs the same loop in the calling thread and leaves BLAS alone. Both must
give the same outputs, compared with ``==``, at the same BLAS thread count:
the count itself can move a logit's last bit (at 16x16 with four heads, one
of ``positional_mass``), so the tests pin BLAS to one thread around both
runs.
"""

import os
import threading
from contextlib import nullcontext

import numpy as np
import pytest

import ropefreq.diagnostics as diagnostics
from ropefreq import (
    ConfigurationError,
    RotaryConfig,
    SharingParams,
    build_shared_qkv,
    evaluate_shared,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
)

CONFIG = RotaryConfig.interleaved(128)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the worker run on a one-CPU machine too: the outputs must not tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def shared_keys(text_tokens, s=1.0):
    base = make_grid(16, 16, CONFIG.dim, seed=10, style_strength=0.9)
    scene = plant_scene(base, kind="identity", noise_level=1.0, seed=11)
    text = make_text(text_tokens, CONFIG.dim, seed=12)
    params = SharingParams(mode="plain", s=s)
    return scene, build_shared_qkv(scene.target, text, scene.reference, params, CONFIG)


class _Chunks:
    """A binary file that keeps what is written to it, and fails the write numbered ``fail``."""

    def __init__(self, fail=None):
        self.chunks = []
        self.fail = fail

    def write(self, data) -> None:
        if len(self.chunks) == self.fail:
            raise OSError("disk full")
        self.chunks.append(bytes(data))


def evaluate(monkeypatch, worker, qkv, scene, heads=1, partition=None, out=None, pinned=True):
    """``(evaluation, passes)``, with the threads that computed each pass's blocks or groups.

    ``passes`` holds, for each pass over blocks or band groups, whether it
    was paired, how many items it had, and the set of ``(main, threads)``
    it computed them with: whether the main thread computed one and
    OpenBLAS's thread count while it did (``None`` without OpenBLAS).
    Without ``worker``, the evaluator does not find OpenBLAS. With
    ``pinned``, OpenBLAS is pinned to one thread around the evaluation.
    """
    passes = []
    pairs = diagnostics._pairs
    blas = diagnostics._openblas()

    def recorded(compute, items, paired):
        threads = set()
        passes.append((paired, len(items), threads))

        def traced(item, slot):
            main = threading.current_thread() is threading.main_thread()
            threads.add((main, None if blas is None else blas[1]()))
            return compute(item, slot)

        return pairs(traced, items, paired)

    with diagnostics._blas_pinned() if pinned else nullcontext(), monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_pairs", recorded)
        if not worker:
            patch.setattr(diagnostics, "_openblas", lambda: None)
        evaluation = evaluate_shared(qkv, scene, heads, partition, attention_out=out)
    return evaluation, passes


def test_the_openblas_numpy_runs_on_is_found(monkeypatch):
    # NumPy's wheels bundle OpenBLAS in numpy.libs; its entry points must be
    # found where the process maps it from there, and set one thread when
    # asked. An OpenBLAS mapped from anywhere else is not taken.
    homes = tuple(
        os.path.dirname(os.path.realpath(np.__file__)) + tail + os.sep for tail in ("", ".libs")
    )
    mapped = False
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        mapped = any(os.path.realpath(path).startswith(homes) for path in paths)
    blas = diagnostics._openblas()
    assert (blas is not None) == mapped
    if blas is not None:
        before = blas[1]()
        blas[0](1)
        assert blas[1]() == 1
        blas[0](before)
    monkeypatch.setattr(np, "__file__", "/nowhere/numpy/__init__.py")
    assert diagnostics._openblas.__wrapped__() is None


# Budgets in rows of logits, with blocks paired from 3 rows: the default
# (blocks of 32 rows, one band group at a time) and budgets for paired
# blocks of 7, 5 and 3 rows, beside paired band groups of 14, 10 and 6 rows,
# and for unpaired blocks of 3 rows beside paired groups of 3. The last
# block is one row at 7 rows with 4 text tokens (260 query rows) and at 5
# rows without (256), and at 3 rows it is one row without and two with; the
# last group of 3 rows is one row without text tokens.
@pytest.mark.parametrize("budget_rows", [None, 14, 10, 6, 3], ids=["4MiB", "14", "10", "6", "3"])
@pytest.mark.parametrize("text_tokens", [0, 4])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_the_worker_moves_no_output(heads, text_tokens, budget_rows, monkeypatch, two_cpus):
    scene, qkv = shared_keys(text_tokens, s=100.0)
    monkeypatch.setattr(diagnostics, "_MIN_PAIRED_ROWS", 3)
    if budget_rows is not None:
        budget = budget_rows * diagnostics._row_bytes(len(qkv.k), heads)
        monkeypatch.setattr(diagnostics, "_BLOCK_BYTES", budget)
    partition = make_even_partition(CONFIG, 3, "all") if heads == 1 else None
    blas = diagnostics._openblas()
    runs = {}
    for worker in (True, False):
        out = _Chunks()
        evaluation, passes = evaluate(monkeypatch, worker, qkv, scene, heads, partition, out)
        runs[worker] = evaluation, out.chunks
        # The blocks pair unless half the budget is under three rows.
        assert passes[0][0] == (budget_rows != 3)
        for paired, items, threads in passes:
            if worker and blas is not None and paired and items > 1:
                # Both threads computed, each with one BLAS thread.
                assert threads == {(True, 1), (False, 1)}
            else:
                assert {main for main, _ in threads} == {True}
    assert runs[True] == runs[False]
    evaluation, chunks = runs[True]
    assert (evaluation.attribution is None) == (heads != 1)
    assert len(b"".join(chunks)) == 4 * len(qkv.q) * len(qkv.k)


def test_blas_is_pinned_only_while_a_worker_runs(monkeypatch, two_cpus):
    # At 16x16 the 32-row blocks pair, but two band groups' panels do not
    # fit their buffer, so the band pass runs in the caller with BLAS's own
    # thread count. Under a 20-row budget neither pass pairs.
    blas = diagnostics._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS entry points in this process")
    scene, qkv = shared_keys(4)
    partition = make_even_partition(CONFIG, 3, "all")
    before = blas[1]()
    _, passes = evaluate(monkeypatch, True, qkv, scene, partition=partition, pinned=False)
    assert [(paired, threads) for paired, _, threads in passes] == [
        (True, {(True, 1), (False, 1)}),
        (False, {(True, before)}),
    ]
    monkeypatch.setattr(diagnostics, "_BLOCK_BYTES", 20 * diagnostics._row_bytes(len(qkv.k), 1))
    _, passes = evaluate(monkeypatch, True, qkv, scene, partition=partition, pinned=False)
    assert [(paired, threads) for paired, _, threads in passes] == [(False, {(True, before)})] * 2
    assert blas[1]() == before


def counts():
    """The process's thread count and OpenBLAS's (``None`` without OpenBLAS)."""
    blas = diagnostics._openblas()
    return threading.active_count(), None if blas is None else blas[1]()


@pytest.mark.parametrize("heads", [1, 2])
def test_a_non_finite_block_on_the_worker_raises_as_in_the_caller(heads, monkeypatch, two_cpus):
    # One huge feature in the first row of the second block, which the
    # worker computes: that row's logit against its own key overflows, and
    # every other row only puts its weight on that key.
    scene, qkv = shared_keys(4)
    step = diagnostics._block_rows(len(qkv.k), heads)
    qkv.k[step, 0] = 1e300
    before = counts()
    streamed = {}
    for worker in (True, False):
        out = _Chunks()
        with pytest.raises(ConfigurationError, match="softmax is not finite"):
            evaluate(monkeypatch, worker, qkv, scene, heads, out=out)
        streamed[worker] = out.chunks
        assert counts() == before
    # The first block was streamed before the second one raised.
    assert streamed[True] == streamed[False]
    assert len(b"".join(streamed[True])) == 4 * step * len(qkv.k)


def test_threads_and_blas_come_back_however_the_evaluation_ends(monkeypatch, two_cpus):
    scene, qkv = shared_keys(4)
    partition = make_even_partition(CONFIG, 3, "all")
    before = counts()
    evaluate_shared(qkv, scene, band_partition=partition, attention_out=_Chunks())
    assert counts() == before
    # A write that fails while the worker computes the next block.
    with pytest.raises(OSError, match="disk full"):
        evaluate_shared(qkv, scene, band_partition=partition, attention_out=_Chunks(fail=3))
    assert counts() == before
    qkv.k[-1, 0] = np.inf
    with pytest.raises(ConfigurationError, match="not finite"):
        evaluate_shared(qkv, scene, band_partition=partition)
    assert counts() == before


def test_overlapping_evaluations_share_the_pin(two_cpus):
    # Two evaluations in two threads may start and end in either order; the
    # count the first found comes back only when the last ends.
    blas = diagnostics._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS entry points in this process")
    before = blas[1]()
    first, second = diagnostics._blas_pinned(), diagnostics._blas_pinned()
    assert first.__enter__() and second.__enter__()
    first.__exit__(None, None, None)
    assert blas[1]() == 1
    second.__exit__(None, None, None)
    assert blas[1]() == before
