"""The blocked attention evaluator against a dense reference.

The reference (``dense_reference.py``) builds the full N x 2N softmax and
per-band logits with plain NumPy and walks the image queries one at a time,
the way the metrics are defined. The block budget is shrunk so that every
evaluation runs in several blocks, the last one shorter than the rest.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ropefreq.attention
import ropefreq.diagnostics
import ropefreq.rope
from dense_reference import dense_alignment, dense_attribution, dense_softmax, streamed_evaluation
from ropefreq import (
    Band,
    BandMaskSpec,
    ConfigurationError,
    RotaryConfig,
    SharingParams,
    TimestepRamp,
    build_shared_qkv,
    evaluate_shared,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
)
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
        budget = ROWS_PER_BLOCK * ropefreq.attention._row_bytes(n_keys, heads)
        monkeypatch.setattr(ropefreq.attention, "_BLOCK_BYTES", budget)

    return for_keys


def stacked_blocks(q, k, heads, rows=ROWS_PER_BLOCK):
    """The softmax blocks of the kernel over ``q`` and ``k``, stacked in query order."""
    assert ropefreq.attention._block_rows(k.shape[0], heads) == rows
    # Each block is copied as it comes: the next one overwrites its buffer.
    blocks = [(start, attention.copy()) for start, attention in ropefreq.attention._blocks(q, k, heads)]
    assert len(blocks) > 1 and [start for start, _ in blocks] == list(range(0, q.shape[0], rows))
    return np.vstack([attention for _, attention in blocks])


def scene_and_text(seed=0):
    base = make_grid(GRID, GRID, CFG.dim, seed=seed, style_strength=0.6)
    scene = plant_scene(base, kind="shuffle", noise_level=0.3, seed=seed + 1)
    return scene, make_text(TEXT, CFG.dim, seed=seed + 2)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("name", sorted(SHARINGS))
def test_blocked_evaluation_matches_dense_reference(name, heads, ragged_blocks):
    scene, text = scene_and_text()
    params, step = SHARINGS[name]
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, CFG, step)
    n_queries, n_keys = qkv.q.shape[0], qkv.k.shape[0]
    ragged_blocks(n_keys, heads)
    assert n_queries % ROWS_PER_BLOCK != 0 and n_queries > 2 * ROWS_PER_BLOCK
    partition = make_even_partition(CFG, 3, "all") if heads == 1 else None

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
    # One block's logits are held, in a buffer every block reuses; each
    # band's logits against the reference keys are computed in that buffer
    # once the block's softmax rows are folded. Besides it only small
    # transients: the alignment fold's boolean mask of the block's row
    # maxima (one byte per reference column) and its per-query arrays. A
    # band panel of its own (2 MiB here) does not fit, nor do all three
    # bands' panels at once, nor an f64 copy of the block's reference
    # columns, nor the previous block held while the next is computed.
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    partition = make_even_partition(config, 3, "all")
    _, peak = traced_growth(evaluate_shared, qkv, scene, band_partition=partition)
    block = 8 * ropefreq.attention._block_rows(len(qkv.k)) * len(qkv.k)
    assert peak < block + 2**20


class _Discard:
    """A binary file that keeps nothing written to it."""

    def write(self, data) -> None:
        pass


def test_streaming_evaluation_holds_one_block_and_one_write_chunk():
    # Each block's rows are cast to <f4 and written a chunk at a time, so a
    # streamed matrix adds one chunk to the block, not a <f4 copy of the
    # whole block (2 MiB here).
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    _, peak = traced_growth(evaluate_shared, qkv, scene, attention_out=_Discard())
    block = 8 * ropefreq.attention._block_rows(len(qkv.k)) * len(qkv.k)
    assert peak < block + ropefreq.diagnostics._WRITE_BYTES + 2**20


@pytest.mark.parametrize("heads", [2, 4])
def test_multi_head_streaming_evaluation_holds_one_block_budget(heads):
    # With more than one head a block holds two logits buffers, the head
    # average and the head being computed; the block is only as high as lets
    # both fit the one budget, so the peak is that of one head. Two buffers of
    # the one-head height (8 MiB here) do not fit.
    scene, text, config = demo_scene(64)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    _, peak = traced_growth(evaluate_shared, qkv, scene, heads=heads, attention_out=_Discard())
    assert peak < ropefreq.attention._BLOCK_BYTES + ropefreq.diagnostics._WRITE_BYTES + 2**20


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
    # band panel at a time in the kernel's logits buffer, and each must add
    # the same bits as summing the stacked panels of a block over (rows,
    # keys) and adding the blocks in order. The streamed rows go out 7 at a
    # time. With 4 text tokens and blocks of 48 query rows there are five
    # full blocks and a sixth of 20 (16 image rows and the 4 text rows), so
    # every block ends in a short chunk. Without text tokens a panel over
    # the 256 reference keys fills exactly half of a block's 512 columns.
    # With one-row blocks each query row is a block, a panel and a chunk.
    for text_tokens, step in ((4, 48), (0, 48), (4, 1)):
        with monkeypatch.context() as patch:
            check_bytes_across_panels_and_chunks(patch, text_tokens, step, chunk=7)


def check_bytes_across_panels_and_chunks(monkeypatch, text_tokens, step, chunk):
    scene, text, config = demo_scene(16, text_tokens)
    params = SharingParams(mode="plain", s=1.0)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    n_queries, n_keys, n = len(qkv.q), len(qkv.k), scene.target.n_tokens
    assert n_queries == n + text_tokens and n_keys == n_queries + n
    # With text tokens and blocks of more than one row, the last block holds both kinds of row.
    assert text_tokens == 0 or step == 1 or (n - 1) // step == (n_queries - 1) // step
    budget = step * ropefreq.attention._row_bytes(n_keys, 1)
    monkeypatch.setattr(ropefreq.attention, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(ropefreq.diagnostics, "_WRITE_BYTES", 4 * n_keys * chunk)
    partition = make_even_partition(config, 3, "all")
    out = _Chunks()
    evaluation = evaluate_shared(qkv, scene, band_partition=partition, attention_out=out)

    ref = qkv.k[n_queries:]
    scale = 1.0 / math.sqrt(config.dim)
    totals = np.zeros(len(partition.bands))
    for start in range(0, n_queries, step):
        qb = qkv.q[start : start + step]
        stacked = np.stack([
            np.matmul(qb[:, 2 * band.start : 2 * band.stop], ref[:, 2 * band.start : 2 * band.stop].T)
            for band in partition.bands
        ])
        stacked *= scale
        totals += np.abs(stacked[:, : max(0, n - start)]).sum(axis=(1, 2))
    got = evaluation.attribution
    assert got.n_pairs == n * n
    assert got.mean_abs_logit == {
        band.label: float(total / (n * n)) for band, total in zip(partition.bands, totals)
    }

    rows = [min(step, n_queries - start) for start in range(0, n_queries, step)]
    sizes = [4 * n_keys * min(chunk, r - c) for r in rows for c in range(0, r, chunk)]
    assert [len(c) for c in out.chunks] == sizes and sizes[-1] < 4 * n_keys * chunk
    streamed = b"".join(out.chunks)
    assert streamed == stacked_blocks(qkv.q, qkv.k, 1, rows=step).astype("<f4").tobytes()
    assert streamed == dense_softmax(qkv.q, qkv.k).astype("<f4").tobytes()


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
