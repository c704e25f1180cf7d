"""The blocked attention evaluator against a dense reference.

The reference below builds the full N x 2N softmax and per-band logits with
plain NumPy and walks the image queries one at a time, the way the metrics
are defined. It imports nothing private from ``ropefreq``. The block budget
is shrunk so that every evaluation runs in several blocks, the last one
shorter than the rest.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ropefreq.attention
from ropefreq import (
    Band,
    BandMaskSpec,
    ConfigurationError,
    ModulationSchedule,
    RotaryConfig,
    SharingParams,
    TimestepRamp,
    band_attribution,
    build_shared_qkv,
    compute_alignment,
    evaluate_shared,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
    shared_attend,
)
from ropefreq.cli import ExperimentConfig, run_experiment

CFG = RotaryConfig(dim=32)
GRID = 5
TEXT = 3
ROWS_PER_BLOCK = 5


def dense_softmax(q, k, heads):
    head_dim = q.shape[1] // heads
    attention = np.zeros((q.shape[0], k.shape[0]))
    for h in range(heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        logits = (q[:, sl] @ k[:, sl].T) * (1.0 / math.sqrt(head_dim))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attention += e / e.sum(axis=1, keepdims=True)
    return attention / heads


def dense_alignment(attention, qkv, scene, radius):
    q_rows = [i for i, lab in enumerate(qkv.query_layout) if lab.source == "target-image"]
    ref_cols = [i for i, lab in enumerate(qkv.key_layout) if lab.source == "reference-image"]
    if not ref_cols:
        return dict.fromkeys(
            ("positional_mass", "semantic_mass", "argmax_positional_rate",
             "argmax_semantic_rate", "reference_mass"), 0.0)
    col_of_index = {qkv.key_layout[c].index: c for c in ref_cols}
    pos_mass = sem_mass = ref_mass = 0.0
    pos_hits = sem_hits = 0
    for i, row in enumerate(q_rows):
        qx, qy = qkv.query_layout[row].position.as_tuple()
        aligned = [
            c for c in ref_cols
            if max(abs(qkv.key_layout[c].position.x - qx),
                   abs(qkv.key_layout[c].position.y - qy)) <= radius
        ]
        sem_col = col_of_index[int(scene.correspondence[i])]
        ref_row = attention[row, ref_cols]
        ref_mass += float(ref_row.sum())
        pos_mass += float(attention[row, aligned].sum())
        sem_mass += float(attention[row, sem_col])
        winner = ref_cols[int(np.argmax(ref_row))]
        pos_hits += winner in aligned
        sem_hits += winner == sem_col
    n = len(q_rows)
    return {
        "positional_mass": pos_mass / n,
        "semantic_mass": sem_mass / n,
        "argmax_positional_rate": pos_hits / n,
        "argmax_semantic_rate": sem_hits / n,
        "reference_mass": ref_mass / n,
    }


def dense_attribution(qkv, partition):
    q_rows = [i for i, lab in enumerate(qkv.query_layout) if lab.source == "target-image"]
    ref_cols = [i for i, lab in enumerate(qkv.key_layout) if lab.source == "reference-image"]
    scale = 1.0 / math.sqrt(qkv.q.shape[1])
    out = {}
    for band in partition.bands:
        cols = slice(2 * band.start, 2 * band.stop)
        logits = (qkv.q[:, cols] @ qkv.k[:, cols].T) * scale
        out[band.label] = float(np.abs(logits[np.ix_(q_rows, ref_cols)]).mean())
    return out


RAMP = TimestepRamp(0.2, 0.8, 1.0, 1.4, total_steps=10)
SHARINGS = {
    "none": (SharingParams(mode="none"), None),
    "plain": (SharingParams(mode="plain", s=1.0), None),
    "plain_no_adain": (SharingParams(mode="plain", s=0.7, adain_enabled=False), None),
    "shifted": (SharingParams(mode="shifted", s=1.0, offset=(2, -1)), None),
    "frequency_aware": (
        SharingParams(mode="frequency_aware",
                      schedule=ModulationSchedule.for_config(CFG, 0.3, 1.2, 2.0)),
        None,
    ),
    "frequency_aware_ramp": (
        SharingParams(mode="frequency_aware", ramp=RAMP,
                      schedule=ModulationSchedule.for_config(CFG, 0.3, 1.2, 1.5)),
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

    def for_keys(n_keys):
        monkeypatch.setattr(ropefreq.attention, "_BLOCK_BYTES", 8 * n_keys * ROWS_PER_BLOCK)

    return for_keys


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
    ragged_blocks(n_keys)
    assert n_queries % ROWS_PER_BLOCK != 0 and n_queries > 2 * ROWS_PER_BLOCK
    partition = make_even_partition(CFG, 3, "all") if heads == 1 else None

    attention = dense_softmax(qkv.q, qkv.k, heads)
    evaluation = evaluate_shared(
        qkv, scene, CFG, heads=heads, band_partition=partition, keep_attention=True
    )
    report = shared_attend(
        scene.target, text, scene.reference, params, CFG,
        heads=heads, step=step, band_partition=partition,
    )
    # BLAS may round a product differently depending on how many rows it
    # multiplies at once, so the blocked softmax can differ from the one-shot
    # dense one in the last bit; both round to the same <f4 bytes.
    np.testing.assert_allclose(report.attention, attention, rtol=0, atol=1e-15)
    assert evaluation.attention.dtype == np.dtype("<f4")
    assert evaluation.attention.tobytes() == attention.astype("<f4").tobytes()
    assert evaluation.attention.tobytes() == report.attention.astype("<f4").tobytes()

    # On the same softmax rows, the block-by-block reductions equal the
    # per-query loop exactly at radius 0.
    exact = dense_alignment(report.attention, qkv, scene, 0)
    assert evaluation.alignment.as_dict() == exact
    assert compute_alignment(report, scene).as_dict() == exact
    assert exact == pytest.approx(dense_alignment(attention, qkv, scene, 0), abs=1e-12, rel=0)
    relaxed = compute_alignment(report, scene, radius=2).as_dict()
    assert relaxed == pytest.approx(dense_alignment(attention, qkv, scene, 2), abs=1e-12, rel=0)

    if partition is None or params.mode == "none":
        assert evaluation.attribution is None
        return
    want = dense_attribution(qkv, partition)
    for got in (evaluation.attribution, band_attribution(report, partition)):
        assert got.n_pairs == GRID**4
        assert got.mean_abs_logit == pytest.approx(want, abs=1e-12, rel=0)


def test_non_finite_logits_raise_without_a_numpy_warning():
    # pyproject.toml turns RuntimeWarning into an error, so a warning from the
    # overflowing matmul or softmax would fail this test before the guard.
    scene, text = scene_and_text()
    params = SharingParams(mode="plain", s=math.inf)
    with pytest.raises(ConfigurationError, match="not finite"):
        shared_attend(scene.target, text, scene.reference, params, CFG)


def test_run_experiment_allocates_no_dense_matrix():
    # At 24x24 the dim-128 features, rotated q/k/v and layouts alone outweigh
    # one dense matrix; at 48x48 one dense f64 matrix is about twice the peak.
    grid = 48
    raw = json.loads((Path(__file__).parents[1] / "configs" / "copying_demo.json").read_text())
    raw["grid"] = {"width": grid, "height": grid}
    cfg = ExperimentConfig.from_json_dict(raw)
    n = grid * grid
    dense_bytes = 8 * (n + cfg.text_tokens) * (2 * n + cfg.text_tokens)
    tracemalloc.start()
    try:
        result, _ = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result["entries"][0]["band_attribution"] is not None
    assert peak < dense_bytes
