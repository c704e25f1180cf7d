"""``evaluate_shared`` with a worker thread against the same loop without one.

The evaluator pins NumPy's OpenBLAS to one thread for its whole span,
wherever it finds the entry points, on any CPU count. With a second CPU,
one worker thread shares every block and band pass with the caller; with
one CPU the caller makes the same calls itself, one after the other. Both
must give the same outputs, compared with ``==``, whatever thread count
BLAS starts with: two BLAS threads moved a logit's last bit (at 16x16 with
four heads, one of ``positional_mass``) while the evaluator left BLAS at
its own count.
"""

import os
import sys
import threading
import time

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
from ropefreq._worker import Worker

CONFIG = RotaryConfig.interleaved(128)


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


def evaluate(monkeypatch, cpus, qkv, scene, heads=1, partition=None, out=None):
    """``(evaluation, seen)`` of an evaluation on ``cpus`` CPUs.

    ``seen`` holds, for every call the evaluator splits between the caller
    and its worker, whether the main thread made it and OpenBLAS's thread
    count while it did (``None`` without OpenBLAS).
    """
    seen = set()
    blas = diagnostics._openblas()

    class Recorded(Worker):
        def split(self, here, there=None):
            def traced(call):
                def run():
                    main = threading.current_thread() is threading.main_thread()
                    seen.add((main, None if blas is None else blas[1]()))
                    return call()

                return run

            return super().split(traced(here), there and traced(there))

    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "Worker", Recorded)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        evaluation = evaluate_shared(qkv, scene, heads, partition, attention_out=out)
    return evaluation, seen


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


# Budgets in rows of logits: the default (blocks of 64 rows) and blocks of
# 14, 10, 6 and 3 rows. At 3 rows the last block is one row without text
# tokens (256 query rows) and two with them (260), so its product takes the
# rows before it, and the one-row block leaves the worker's half of its rows
# empty. With one head, band groups are as high as the blocks under every
# budget, the default's 64 rows included, and always run two at a time,
# the caller's group and the worker's each in its own half of the block's
# buffer: the 256 image rows make four groups under the default budget, and
# with an odd count (19 of 14 rows, 43 of 6) the caller runs the last alone.
@pytest.mark.parametrize("budget_rows", [None, 14, 10, 6, 3], ids=["4MiB", "14", "10", "6", "3"])
@pytest.mark.parametrize("text_tokens", [0, 4])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_the_worker_moves_no_output(heads, text_tokens, budget_rows, monkeypatch):
    scene, qkv = shared_keys(text_tokens, s=100.0)
    if budget_rows is not None:
        budget = budget_rows * diagnostics._row_bytes(len(qkv.k), heads)
        monkeypatch.setattr(diagnostics, "_BLOCK_BYTES", budget)
    partitions = [make_even_partition(CONFIG, 3), None] if heads == 1 else [None]
    blas = diagnostics._openblas()
    for partition in partitions:
        runs = {}
        for cpus in (2, 1):
            out = _Chunks()
            evaluation, seen = evaluate(monkeypatch, cpus, qkv, scene, heads, partition, out)
            runs[cpus] = evaluation, out.chunks
            if cpus == 2 and blas is not None:
                # Both threads computed, each with one BLAS thread.
                assert seen == {(True, 1), (False, 1)}
            else:
                assert seen == {(True, None if blas is None else 1)}
        assert runs[2] == runs[1]
        evaluation, chunks = runs[2]
        assert (evaluation.attribution is None) == (partition is None)
        assert len(b"".join(chunks)) == 4 * len(qkv.q) * len(qkv.k)


def test_blas_is_pinned_for_the_whole_evaluation(monkeypatch):
    # Every split call runs with one BLAS thread, on one CPU or two, and
    # the count BLAS started with comes back however the evaluation ends.
    blas = diagnostics._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS entry points in this process")
    scene, qkv = shared_keys(4)
    partition = make_even_partition(CONFIG, 3)
    before = blas[1]()
    blas[0](2)
    try:
        started = blas[1]()
        for cpus in (1, 2):
            _, seen = evaluate(monkeypatch, cpus, qkv, scene, partition=partition)
            assert {threads for _, threads in seen} == {1}
            assert blas[1]() == started
        qkv.k[-1, 0] = np.inf
        for cpus in (1, 2):
            with pytest.raises(ConfigurationError, match="not finite"):
                evaluate(monkeypatch, cpus, qkv, scene, partition=partition)
            assert blas[1]() == started
    finally:
        blas[0](before)


def test_the_blas_thread_count_moves_no_output(monkeypatch):
    # At 16x16 with four heads and plain sharing at s = 100, two BLAS
    # threads once moved the last bit of positional_mass. The evaluator now
    # pins BLAS, so one value comes out whatever count BLAS starts with, on
    # one CPU or two.
    blas = diagnostics._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS entry points in this process")
    scene, qkv = shared_keys(4, s=100.0)
    before = blas[1]()
    masses = set()
    try:
        for threads in (1, 2):
            blas[0](threads)
            for cpus in (1, 2):
                evaluation, _ = evaluate(monkeypatch, cpus, qkv, scene, heads=4)
                masses.add(evaluation.alignment.positional_mass)
    finally:
        blas[0](before)
    assert len(masses) == 1


def counts():
    """The process's thread count and OpenBLAS's (``None`` without OpenBLAS)."""
    blas = diagnostics._openblas()
    return threading.active_count(), None if blas is None else blas[1]()


@pytest.mark.parametrize("heads", [1, 2])
def test_a_non_finite_block_on_the_worker_raises_as_in_the_caller(heads, monkeypatch):
    # One huge feature in a row of the second block that the worker
    # computes: with one head a row of the block's second half, with two
    # heads a feature of head 1. That row's logit against its own key
    # overflows, and every other row only puts its weight on that key.
    scene, qkv = shared_keys(4)
    step = diagnostics._block_rows(len(qkv.k), heads)
    qkv.k[step + (step + 1) // 2 + 1, 0 if heads == 1 else CONFIG.dim // heads] = 1e300
    before = counts()
    streamed = {}
    for cpus in (2, 1):
        out = _Chunks()
        with pytest.raises(ConfigurationError, match="softmax is not finite"):
            evaluate(monkeypatch, cpus, qkv, scene, heads, out=out)
        streamed[cpus] = out.chunks
        assert counts() == before
    # The first block was streamed before the second one raised.
    assert streamed[2] == streamed[1]
    assert len(b"".join(streamed[2])) == 4 * step * len(qkv.k)


def test_threads_and_blas_come_back_however_the_evaluation_ends(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scene, qkv = shared_keys(4)
    partition = make_even_partition(CONFIG, 3)
    before = counts()
    evaluate_shared(qkv, scene, band_partition=partition, attention_out=_Chunks())
    assert counts() == before
    # A write that fails between two blocks the worker shares.
    with pytest.raises(OSError, match="disk full"):
        evaluate_shared(qkv, scene, band_partition=partition, attention_out=_Chunks(fail=3))
    assert counts() == before
    qkv.k[-1, 0] = np.inf
    with pytest.raises(ConfigurationError, match="not finite"):
        evaluate_shared(qkv, scene, band_partition=partition)
    assert counts() == before


def test_overlapping_evaluations_share_the_pin():
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


def test_a_split_ends_both_calls_before_it_raises(monkeypatch):
    # The caller's exception is raised over the worker's, and only once the
    # worker's call has ended, so no call is left running into a buffer.
    # The process may run on two CPUs, so the worker starts its thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ended = []

    def there():
        time.sleep(0.05)
        ended.append(threading.current_thread() is threading.main_thread())
        raise ValueError("there")

    def here():
        raise KeyError("here")

    threads = threading.active_count()
    with Worker() as worker:
        with pytest.raises(KeyError, match="here"):
            worker.split(here, there)
        assert ended == [False]
        with pytest.raises(ValueError, match="there"):
            worker.split(lambda: None, there)
        assert worker.split(lambda: 1, lambda: 2) == (1, 2)
        assert threading.active_count() == threads + 1
    assert threading.active_count() == threads
    with pytest.raises(KeyError, match="here"):
        Worker(threaded=False).split(here, there)
    assert ended == [False, False]


@pytest.mark.parametrize("cpus", [1, 2])
def test_without_affinity_the_cpu_count_decides(monkeypatch, cpus):
    # Where the platform reports no affinity, a worker starts its thread
    # only if os.cpu_count() gives a second CPU; its splits are the same.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    threads = threading.active_count()
    with Worker() as worker:
        assert threading.active_count() == threads + (cpus > 1)
        assert worker.split(lambda: 1, lambda: 2) == (1, 2)
    assert threading.active_count() == threads


def test_concurrent_evaluations_keep_their_outputs(monkeypatch):
    # Three evaluations in three threads, each sharing its blocks with a
    # worker of its own: six threads on two CPUs, switching as often as the
    # interpreter lets them. Each gives the outputs it gives alone, BLAS's
    # count comes back, and every thread ends.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scene, qkv = shared_keys(4, s=100.0)
    partition = make_even_partition(CONFIG, 3)
    runs = [(1, partition), (2, None), (4, None)]
    monkeypatch.setattr(diagnostics, "_BLOCK_BYTES", 10 * diagnostics._row_bytes(len(qkv.k), 1))
    want = [evaluate_shared(qkv, scene, heads, part) for heads, part in runs]
    before = counts()
    got = [None] * len(runs)

    def run(i):
        got[i] = evaluate_shared(qkv, scene, *runs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert counts() == before
