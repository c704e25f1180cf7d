"""The blocked attention evaluator against a dense reference.

The reference (``dense_reference.py``) builds the full N x 2N softmax and
per-band logits with plain NumPy and walks the image queries one at a time,
the way the metrics are defined. The block budget is shrunk so that every
evaluation runs in several blocks, the last one shorter than the rest.
"""

import io
import json
import math
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ropefreq._csvrows
import ropefreq.bands
import ropefreq.diagnostics
import ropefreq.rope
from dense_reference import (
    dense_alignment,
    dense_attribution,
    dense_saturated,
    dense_softmax,
    streamed_evaluation,
)
from ropefreq import (
    Band,
    BandMaskSpec,
    ConfigurationError,
    RotaryConfig,
    SharingParams,
    TimestepRamp,
    build_shared_qkv,
    decay_curve,
    evaluate_shared,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
)
from ropefreq._worker import Worker
from ropefreq.cli import ExperimentConfig, _all_or_nothing, main, run_experiment

CFG = RotaryConfig(dim=32)
GRID = 5
TEXT = 3
ROWS_PER_BLOCK = 5


RAMP = TimestepRamp(0.2, 0.8, 1.0, 1.4, total_steps=10)
SHARINGS = {
    "none": (SharingParams(mode="none"), None),
    "plain": (SharingParams(mode="plain", s=1.0), None),
    "plain_no_adain": (SharingParams(mode="plain", s=0.7, adain_enabled=False), None),
    "shifted": (SharingParams(mode="shifted", s=1.0, offset=(2, -1)), None),
    # Every reference key off the grid, at negative x: no query has an aligned key.
    "shifted_off_grid": (SharingParams(mode="shifted", s=1.0, offset=(-7, 9)), None),
    "frequency_aware": (
        SharingParams(mode="frequency_aware", s_hf=0.3, s_lf=1.2, beta=2.0),
        None,
    ),
    "frequency_aware_ramp": (
        SharingParams(mode="frequency_aware", s_hf=0.3, s_lf=1.2, beta=1.5, ramp=RAMP),
        4,
    ),
    "mask_zero": (
        SharingParams(mode="plain", s=1.0,
                      band_mask_override=BandMaskSpec(Band("high", 0, 5), "zero")),
        None,
    ),
    "mask_scale": (
        SharingParams(mode="plain", s=1.0,
                      band_mask_override=BandMaskSpec(Band("low", 11, 16), "scale", 0.5)),
        None,
    ),
}


@pytest.fixture
def ragged_blocks(monkeypatch):
    """Shrink the block budget so each evaluation takes several ragged blocks."""

    def for_keys(n_keys, heads):
        budget = ROWS_PER_BLOCK * ropefreq.diagnostics._row_bytes(n_keys, heads)
        monkeypatch.setattr(ropefreq.diagnostics, "_BLOCK_BYTES", budget)

    return for_keys


def stacked_blocks(q, k, heads, rows=ROWS_PER_BLOCK):
    """The softmax blocks of the kernel over ``q`` and ``k``, stacked in query order."""
    assert ropefreq.diagnostics._block_rows(k.shape[0], heads) == rows
    # Each block is copied as it comes: the next one overwrites its buffer.
    blocks = [
        (start, attention.copy()) for start, attention, _ in ropefreq.diagnostics._blocks(q, k, heads)
    ]
    assert len(blocks) > 1 and [start for start, _ in blocks] == list(range(0, q.shape[0], rows))
    return np.vstack([attention for _, attention in blocks])


def scene_and_text(seed=0):
    base = make_grid(GRID, GRID, CFG.dim, seed=seed, style_strength=0.6)
    scene = plant_scene(base, kind="shuffle", noise_level=0.3, seed=seed + 1)
    return scene, make_text(TEXT, CFG.dim, seed=seed + 2)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(SHARINGS))
def test_blocked_evaluation_matches_dense_reference(name, heads, ragged_blocks):
    scene, text = scene_and_text()
    params, step = SHARINGS[name]
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, CFG, step)
    n_queries, n_keys = qkv.q.shape[0], qkv.k.shape[0]
    ragged_blocks(n_keys, heads)
    assert n_queries % ROWS_PER_BLOCK != 0 and n_queries > 2 * ROWS_PER_BLOCK
    partition = make_even_partition(CFG, 3) if heads == 1 else None

    attention = dense_softmax(qkv.q, qkv.k, heads)
    evaluation, streamed = streamed_evaluation(qkv, scene, heads, partition)
    # The very softmax blocks that evaluate_shared folds.
    blocks = stacked_blocks(qkv.q, qkv.k, heads)
    # BLAS may round a product differently depending on how many rows it
    # multiplies at once, so the blocked softmax can differ from the one-shot
    # dense one in the last bit; both round to the same <f4 bytes.
    np.testing.assert_allclose(blocks, attention, rtol=0, atol=1e-15)
    assert streamed == attention.astype("<f4").tobytes()
    assert streamed == blocks.astype("<f4").tobytes()

    # On the same softmax rows, the block-by-block reductions equal the
    # per-query loop exactly.
    exact = dense_alignment(blocks, qkv, scene)
    assert evaluation.alignment.as_dict() == exact
    assert exact == pytest.approx(dense_alignment(attention, qkv, scene), abs=1e-12, rel=0)

    if partition is None or params.mode == "none":
        assert evaluation.attribution is None
        return
    got = evaluation.attribution
    assert got.n_pairs == GRID**4
    assert got.mean_abs_logit == pytest.approx(dense_attribution(qkv, partition), abs=1e-12, rel=0)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("s", [1.0, 100.0, 1e200])
def test_saturated_counts_are_each_rows_saturated_heads(s, heads, ragged_blocks):
    # At s = 100 some rows saturate and some do not, in one head or both.
    scene, text = scene_and_text()
    qkv = build_shared_qkv(scene.target, text, scene.reference, SharingParams(mode="plain", s=s), CFG)
    ragged_blocks(len(qkv.k), heads)
    counts = np.concatenate(
        [saturated.copy() for _, _, saturated in ropefreq.diagnostics._blocks(qkv.q, qkv.k, heads)]
    )
    np.testing.assert_array_equal(counts, dense_saturated(qkv.q, qkv.k, heads))


@pytest.mark.parametrize("threaded", [False, True], ids=["one-thread", "worker"])
@pytest.mark.parametrize("heads", [2, 4, 8])
def test_heads_are_added_in_head_order(heads, threaded):
    # The caller and a worker compute heads in buffers of their own; the
    # caller adds them to the first head in head order and divides, the
    # bits of one thread adding each head as it comes. One block here.
    scene, text = scene_and_text()
    qkv = build_shared_qkv(scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG)
    q, k = qkv.q, qkv.k
    width = CFG.dim // heads
    want = None
    for h in range(heads):
        a = q[:, h * width : (h + 1) * width] @ k[:, h * width : (h + 1) * width].T
        a *= 1 / math.sqrt(width)
        a -= a.max(axis=1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=1, keepdims=True)
        want = a if want is None else want.__iadd__(a)
    want /= heads
    with Worker(threaded) as worker:
        ((start, got, _),) = ropefreq.diagnostics._blocks(q, k, heads, worker=worker)
        assert start == 0 and got.tobytes() == want.tobytes()


def test_a_block_takes_the_budgets_rows_on_any_cpu_count(monkeypatch):
    # A block takes the rows the 4 MiB budget holds, at most 64, on one CPU
    # or two: 64 at 32x32 with two heads, 63 over 64x64's 8,196 keys with
    # one head, 31 with two and 21 with four (three buffers), and 15 over
    # 128x128's 32,772 keys. No block is under three rows, not even at the
    # 524,288-key bound, where one row of logits fills the whole budget:
    # there the logits buffers hold three rows, 12 MiB with one head,
    # 24 MiB with two and 36 MiB with more.
    diagnostics = ropefreq.diagnostics
    cases = [(100, 1), (2052, 2), (8196, 1), (8196, 2), (8196, 4), (32772, 1), (524288, 1),
             (524288, 2), (524288, 4)]
    for cpus in (1, 2):
        monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rows = [diagnostics._block_rows(n_keys, heads) for n_keys, heads in cases]
        assert rows == [64, 64, 63, 31, 21, 15, 3, 3, 3]
        shapes = [diagnostics._logits_shape(4100, n_keys, heads) for n_keys, heads in cases]
        assert [rows for _, rows, _ in shapes] == rows
        assert [8 * np.prod(shape) for shape in shapes[-3:]] == [12 * 2**20, 24 * 2**20, 36 * 2**20]


def test_a_band_group_is_a_one_head_block_high_and_two_panels_fit_in_it():
    # Unpatched, on every square grid up to the 524,288-key bound: a band
    # group takes the rows of a one-head logits block, and two groups'
    # panels over the N reference keys fit in that block's logits over all
    # 2N + T keys, so the work buffer is one block's logits and the groups
    # always run two at a time. Only the keys' shapes are read.
    diagnostics = ropefreq.diagnostics
    partition = make_even_partition(CFG, 3)
    bound = diagnostics._BLOCK_BYTES // 8
    for text in (0, 4, 77):
        grids = range(1, math.isqrt((bound - text) // 2) + 1)
        for grid in grids:
            n = grid * grid
            k = np.broadcast_to(0.0, (2 * n + text, 2))
            qkv = SimpleNamespace(k=k, q=k[: n + text], ref=k[n + text :])
            fold = diagnostics._AttributionFold(partition, qkv, n)
            assert fold.rows == diagnostics._block_rows(len(k), 1)
            assert 2 * fold.panel_size <= math.prod(diagnostics._logits_shape(n + text, len(k), 1))
        assert 2 * grids[-1] ** 2 + text <= bound < 2 * (grids[-1] + 1) ** 2 + text


def test_non_finite_logits_raise_without_a_numpy_warning():
    # pyproject.toml turns RuntimeWarning into an error, so a warning from the
    # overflowing matmul or softmax would fail this test before the guard.
    # SharingParams rejects an infinite s, so one reference key is made infinite by hand.
    scene, text = scene_and_text()
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, CFG)
    qkv.k[-1, 0] = math.inf
    with pytest.raises(ConfigurationError, match="not finite"):
        evaluate_shared(qkv, scene)


def test_run_experiment_allocates_no_dense_matrix():
    # At 24x24 the dim-128 features, rotated q/k and layouts alone outweigh
    # one dense matrix; at 48x48 one dense f64 matrix is about twice the peak.
    grid = 48
    raw = json.loads((Path(__file__).parents[1] / "configs" / "copying_demo.json").read_text())
    raw["grid"] = {"width": grid, "height": grid}
    cfg = ExperimentConfig.from_json_dict(raw)
    n = grid * grid
    dense_bytes = 8 * (n + cfg.normalized["text_tokens"]) * (2 * n + cfg.normalized["text_tokens"])
    tracemalloc.start()
    try:
        with _all_or_nothing() as stage:
            result = run_experiment(cfg, stage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result["entries"][0]["band_attribution"] is not None
    assert peak < dense_bytes


def test_streamed_sweep_holds_less_than_one_matrix(tmp_path):
    # Each entry's matrix goes to its staged file block by block, so the
    # run's peak stays below one entry's <f4 matrix however many entries
    # it writes; the entries' matrices are not held until the run ends.
    grid = 48
    raw = json.loads((Path(__file__).parents[1] / "configs" / "copying_demo.json").read_text())
    raw["grid"] = {"width": grid, "height": grid}
    raw["output"] = {"report": str(tmp_path / "report.json"), "attention": str(tmp_path / "a.f4")}
    assert len(raw["sweep"]) > 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    n, text = grid * grid, raw["text_tokens"]
    matrix_bytes = 4 * (n + text) * (2 * n + text)
    tracemalloc.start()
    try:
        assert main(["shared-attn", str(config), "--quiet"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for i in range(len(raw["sweep"])):
        assert (tmp_path / f"a.entry{i}.f4").stat().st_size == matrix_bytes
    assert peak < matrix_bytes


def traced_growth(fn, *args, **kwargs):
    """``(result, bytes)``: ``fn``'s result and its traced peak above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def demo_scene(grid, text_tokens=4):
    """The copying demo's scene and text at ``grid`` x ``grid``, and its rotary config."""
    config = RotaryConfig.interleaved(128)
    base = make_grid(grid, grid, config.dim, seed=10, style_strength=0.9)
    scene = plant_scene(base, kind="identity", noise_level=1.0, seed=11)
    return scene, make_text(text_tokens, config.dim, seed=12), config


def test_shared_qkv_assembly_holds_one_stack():
    # AdaIN writes into k and the runs are rotated in place or into k, so
    # besides k assembly holds four rotation budgets (the sines, the cosines
    # and two products of a block) and small statistics: AdaIN's statistics
    # take one block of rows at a time, where NumPy's std held a temporary
    # the size of the target features (6.25 MiB here), and six budgets were
    # held while the products were not taken in place. Stacking separate
    # parts held the parts, the stack and the AdaIN output at once, about
    # 2.7 k here; an AdaIN output apart from k would be live during the
    # rotation too.
    scene, text, config = demo_scene(80)
    params = SharingParams(mode="plain", s=1.0)
    qkv, peak = traced_growth(build_shared_qkv, scene.target, text, scene.reference, params, config)
    assert peak < qkv.k.nbytes + 4 * ropefreq.rope._ROWS_BYTES + 2**19


def test_evaluation_holds_one_block():
    # A block holds the rows of logits the budget holds (63 here), in one
    # buffer every block reuses; after the last block, each band's logits
    # of two groups of image-query rows against the reference keys are
    # computed in that buffer, one band panel of each group at a time.
    # Besides it only small transients: the alignment fold's boolean mask
    # of the block's row maxima (one byte per reference column), its
    # per-query arrays and the groups' band sums. A band panel of its own
    # (2 MiB here) does not fit, nor do all three bands' panels of a group
    # at once, nor an f64 copy of the block's reference columns, nor a
    # second block.
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    partition = make_even_partition(config, 3)
    _, peak = traced_growth(evaluate_shared, qkv, scene, band_partition=partition)
    blocks = 8 * ropefreq.diagnostics._block_rows(len(qkv.k), 1) * len(qkv.k)
    assert peak < blocks + 2**20


class _Discard:
    """A binary file that keeps nothing written to it."""

    def write(self, data) -> None:
        pass


def test_streaming_evaluation_holds_one_block_and_one_write_chunk():
    # Each block's rows are cast to <f4 and written a chunk at a time, so a
    # streamed matrix adds one chunk to the block, not a <f4 copy of a whole
    # block (1 MiB here).
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    _, peak = traced_growth(evaluate_shared, qkv, scene, attention_out=_Discard())
    blocks = 8 * ropefreq.diagnostics._block_rows(len(qkv.k), 1) * len(qkv.k)
    assert peak < blocks + ropefreq.rope._ROWS_BYTES + 2**20


@pytest.mark.parametrize("heads", [2, 4])
def test_multi_head_streaming_evaluation_holds_one_block_budget(heads):
    # With more than one head a block holds two logits buffers, the head
    # average and the odd head being computed, and with more than two a
    # third for the even head computed beside it; a block (31 rows here
    # with two heads, 21 with four) is only as high as lets them all fit
    # the one budget, so the peak is that of one head. Two buffers of the
    # one-head height (8 MiB here) do not fit.
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    _, peak = traced_growth(evaluate_shared, qkv, scene, heads=heads, attention_out=_Discard())
    assert peak < ropefreq.diagnostics._BLOCK_BYTES + ropefreq.rope._ROWS_BYTES + 2**20


class _Chunks:
    """A binary file that keeps each write as it came."""

    def __init__(self):
        self.chunks = []

    def write(self, data) -> None:
        self.chunks.append(bytes(data))


def test_attribution_and_stream_keep_their_bytes_across_band_panels_and_write_chunks(
    monkeypatch,
):
    # The bands' |logit| sums are compared with ==: the fold computes one
    # band panel at a time in the work buffer, and each must add the same
    # bits as summing the stacked panels of a group of rows over (rows,
    # keys) and adding the groups in order. The budget sets the group
    # height and the block height too, at least three rows. The streamed
    # rows go out 7 at a time. With 4 text tokens and groups and blocks of
    # 48 query rows there are five full groups and a sixth of 20 (16 image
    # rows and the 4 text rows), and so of blocks, so every block ends in a
    # short chunk. Without text tokens a panel over the 256 reference keys
    # fills exactly half of a block's 512 columns, so the two groups in
    # flight fill the block. With the smallest budget, blocks and groups are three rows
    # high: with text tokens the last block is two rows, and without them
    # the last block and the last group are one, and each multiplies the
    # rows before it too.
    for text_tokens, group in ((4, 48), (0, 48), (4, 1), (0, 1)):
        with monkeypatch.context() as patch:
            check_bytes_across_panels_and_chunks(patch, text_tokens, group, chunk=7)


def check_bytes_across_panels_and_chunks(monkeypatch, text_tokens, group, chunk):
    scene, text, config = demo_scene(16, text_tokens)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    n_queries, n_keys, n = len(qkv.q), len(qkv.k), scene.target.n_tokens
    assert n_queries == n + text_tokens and n_keys == n_queries + n
    budget = group * ropefreq.diagnostics._row_bytes(n_keys, 1)
    monkeypatch.setattr(ropefreq.diagnostics, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(ropefreq.rope, "_ROWS_BYTES", 4 * n_keys * chunk)
    group = block = max(group, 3)
    if group > 3:
        # With text tokens, the last group holds both kinds of row.
        assert text_tokens == 0 or (n - 1) // group == (n_queries - 1) // group
    else:
        # The last block is two rows or one, and so is the last group without text tokens.
        assert n_queries % 3 == (2 if text_tokens else 1) and n % 3 == 1
    partition = make_even_partition(config, 3)
    out = _Chunks()
    evaluation = evaluate_shared(qkv, scene, band_partition=partition, attention_out=out)

    ref = qkv.k[n_queries:]
    scale = 1.0 / math.sqrt(config.dim)
    totals = np.zeros(len(partition.bands))
    for start in range(0, n, group):
        # A product of fewer than three rows takes the rows before it too.
        stop = min(start + group, n_queries)
        lo = max(0, min(start, stop - 3))
        qb = qkv.q[lo:stop]
        stacked = np.stack([
            np.matmul(qb[:, 2 * band.start : 2 * band.stop], ref[:, 2 * band.start : 2 * band.stop].T)
            for band in partition.bands
        ])
        stacked *= scale
        totals += np.abs(stacked[:, start - lo : min(stop, n) - lo]).sum(axis=(1, 2))
    got = evaluation.attribution
    assert got.n_pairs == n * n
    assert got.mean_abs_logit == {
        band.label: float(total / (n * n)) for band, total in zip(partition.bands, totals)
    }

    rows = [min(block, n_queries - start) for start in range(0, n_queries, block)]
    sizes = [4 * n_keys * min(chunk, r - c) for r in rows for c in range(0, r, chunk)]
    assert [len(c) for c in out.chunks] == sizes and sizes[-1] < 4 * n_keys * chunk
    streamed = b"".join(out.chunks)
    assert streamed == stacked_blocks(qkv.q, qkv.k, 1, rows=block).astype("<f4").tobytes()
    assert streamed == dense_softmax(qkv.q, qkv.k).astype("<f4").tobytes()


def test_the_row_budget_alone_sets_every_row_loop(monkeypatch):
    # rope._ROWS_BYTES is the one budget of the fixed-budget row loops other
    # than the logits blocks: shrunk alone, it cuts the rotation, the decay
    # cosines, the CSV rows and the streamed <f4 chunks into more blocks.
    # Each loop is counted by a side effect it already has: the rotation's
    # calls of _rotate_pairs, the heights bands takes from _block_height,
    # write_rows' writes and the attention_out writes.
    rotate, height = ropefreq.rope._rotate_pairs, ropefreq.bands._block_height
    scene, text, config = demo_scene(8)
    cfg = RotaryConfig.single_axis(128)
    partition = make_even_partition(cfg, 3)

    def blocks(patch):
        rotations, heights, rows, matrix = [], [], [], _Chunks()
        patch.setattr(ropefreq.rope, "_rotate_pairs", lambda *args: rotations.append(rotate(*args)))

        def decay_height(*args):
            heights.append(height(*args))
            return heights[-1]

        patch.setattr(ropefreq.bands, "_block_height", decay_height)
        params = SharingParams(mode="plain", s=1.0)
        qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
        evaluate_shared(qkv, scene, attention_out=matrix)
        curve = decay_curve(range(2000), partition, cfg, include_full=True)
        ropefreq._csvrows.write_rows(curve, SimpleNamespace(write=rows.append))
        return [len(rotations), -(-2000 // heights[0]), len(rows), len(matrix.chunks)], matrix.chunks

    with monkeypatch.context() as patch:
        shipped, _ = blocks(patch)
    budget = 4096
    monkeypatch.setattr(ropefreq.rope, "_ROWS_BYTES", budget)
    shrunk, chunks = blocks(monkeypatch)
    # 3 rotations, 4 cosine blocks of 512 deltas, 3 CSV blocks of 862 and 2 <f4 writes of 64 and 4 rows.
    assert shipped == [3, 4, 3, 2]
    assert all(s > b for s, b in zip(shrunk, shipped)), (shipped, shrunk)
    assert max(map(len, chunks)) <= budget


@pytest.mark.parametrize(
    "s, rows",
    [(s, rows) for s in (1.0, 1000.0) for rows in (1, 7, 64, sys.maxsize)],
    ids=lambda v: "unlimited" if v == sys.maxsize else str(v),
)
@pytest.mark.parametrize("streamed", [False, True], ids=["report", "streamed"])
@pytest.mark.parametrize("text_tokens", [0, 4])
@pytest.mark.parametrize("heads, bands", [(1, 3), (2, None)], ids=["1-head-3-band", "2-head"])
def test_block_height_decides_no_output(heads, bands, text_tokens, streamed, s, rows, monkeypatch):
    # Compared with ==: the band sums are taken over fixed groups of
    # image-query rows, not over the logits blocks, and every other output
    # is row by row or summed in row order. A block of fewer than three rows
    # multiplies the rows before it too, so no logits go by BLAS gemv, which
    # rounds otherwise than gemm: at s = 1000 that moved the last bit of
    # positional_mass while one-row blocks were multiplied alone. At
    # s = 1000 most one-head rows saturate and some do not, so the notes
    # are not empty.
    scene, text, config = demo_scene(16, text_tokens)
    params = SharingParams(mode="plain", s=s)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    partition = None if bands is None else make_even_partition(config, bands)

    def run():
        out = io.BytesIO() if streamed else None
        evaluation = evaluate_shared(qkv, scene, heads, partition, attention_out=out)
        return evaluation, None if out is None else out.getvalue()

    want = run()
    assert (want[0].attribution is None) == (bands is None)
    assert bool(want[0].notes) == (s == 1000.0 and heads == 1)
    monkeypatch.setattr(ropefreq.diagnostics, "_block_rows", lambda n_keys, heads=1: rows)
    assert run() == want


def test_sweep_holds_one_entry_at_a_time():
    # Each entry's keys are let go before the next entry is built, so a
    # second entry adds only its report lines to the peak. Without
    # attribution, assembly sets the peak, so a pinned entry would add its k.
    raw = json.loads((Path(__file__).parents[1] / "configs" / "copying_demo.json").read_text())
    raw["grid"] = {"width": 48, "height": 48}
    raw["attribution_bands"] = None
    assert len(raw["sweep"]) == 2

    def run(raw):
        with _all_or_nothing() as stage:
            return run_experiment(ExperimentConfig.from_json_dict(raw), stage)

    both, peak = traced_growth(run, raw)
    first, first_peak = traced_growth(run, {**raw, "sweep": raw["sweep"][:1]})
    assert len(both["entries"]) == 2 and len(first["entries"]) == 1
    assert peak < first_peak + 2**18
