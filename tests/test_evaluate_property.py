"""Property: the blocked evaluator equals the dense reference on generated setups.

Generated setups cover grids up to 4x4 (square or not), dims 8/16/32, zero
to three text tokens, every sharing mode (shifted offsets that leave the
grid included), band masks, ramps, one or two heads, and one to three
attribution bands with one head. The block budget is shrunk to a few query
rows, so most evaluations run in several blocks, the last one shorter.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ropefreq.attention
from dense_reference import dense_alignment, dense_attribution, dense_softmax, streamed_evaluation
from ropefreq import (
    Band,
    BandMaskSpec,
    ModulationSchedule,
    RotaryConfig,
    SharingParams,
    TimestepRamp,
    build_shared_qkv,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
)

SCALES = st.floats(0.2, 1.5)


@st.composite
def sharings(draw, config: RotaryConfig, cells: int):
    """``(params, step)`` of one sharing section over a grid of ``cells`` cells."""
    mode = draw(st.sampled_from(["frequency_aware", "shifted", "plain", "none"]))
    # AdaIN takes per-channel statistics, which one cell does not have.
    kwargs = {"mode": mode, "adain_enabled": cells > 1 and draw(st.booleans())}
    step = None
    if mode in ("plain", "shifted"):
        kwargs["s"] = draw(SCALES)
    if mode == "shifted":
        kwargs["offset"] = tuple(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=2)))
    if mode == "frequency_aware":
        s_hf, s_lf, beta = draw(SCALES), draw(SCALES), draw(st.floats(0.5, 3.0))
        kwargs["schedule"] = ModulationSchedule.for_config(config, s_hf, s_lf, beta)
        if draw(st.booleans()):
            kwargs["ramp"] = TimestepRamp(*(draw(SCALES) for _ in range(4)), total_steps=3)
            step = draw(st.integers(0, 2))
    if mode != "none" and draw(st.booleans()):
        start = draw(st.integers(0, config.n_chunks - 1))
        stop = draw(st.integers(start + 1, config.n_chunks))
        scale = draw(st.one_of(st.none(), SCALES))
        kwargs["band_mask_override"] = BandMaskSpec(
            Band("masked", start, stop), "zero" if scale is None else "scale", scale
        )
    return SharingParams(**kwargs), step


@st.composite
def setups(draw):
    config = RotaryConfig(dim=draw(st.sampled_from([8, 16, 32])))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 1000))
    base = make_grid(width, height, config.dim, seed=seed, style_strength=draw(st.floats(0, 0.9)))
    kind = draw(st.sampled_from(["identity", "shuffle"]))
    scene = plant_scene(base, kind=kind, noise_level=draw(st.floats(0, 1)), seed=seed + 1)
    text = make_text(draw(st.integers(0, 3)), config.dim, seed=seed + 2)
    params, step = draw(sharings(config, width * height))
    heads = draw(st.integers(1, 2))
    partition = None
    if heads == 1:
        partition = make_even_partition(config, draw(st.integers(1, 3)), "all")
    rows_per_block = draw(st.integers(1, 4))
    return config, scene, text, params, step, heads, partition, rows_per_block


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=setups())
def test_blocked_evaluation_equals_dense_reference(setup):
    config, scene, text, params, step, heads, partition, rows_per_block = setup
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config, step)
    budget = rows_per_block * ropefreq.attention._row_bytes(qkv.k.shape[0], heads)
    with mock.patch.object(ropefreq.attention, "_BLOCK_BYTES", budget):
        evaluation, streamed = streamed_evaluation(qkv, scene, config, heads, partition)
        # Each block is copied as it comes: the next one overwrites its buffer.
        blocks = [
            (start, attention.copy())
            for start, attention, _ in ropefreq.attention._attention_blocks(
                qkv.q, qkv.k, heads, None, config, slice(None)
            )
        ]
    assert [start for start, _ in blocks] == list(range(0, qkv.q.shape[0], rows_per_block))
    stacked = np.vstack([attention for _, attention in blocks])

    attention = dense_softmax(qkv.q, qkv.k, heads)
    np.testing.assert_allclose(stacked, attention, rtol=0, atol=1e-15)
    assert streamed == attention.astype("<f4").tobytes()
    assert streamed == stacked.astype("<f4").tobytes()

    exact = dense_alignment(stacked, qkv, scene)
    assert evaluation.alignment.as_dict() == exact
    assert exact == pytest.approx(dense_alignment(attention, qkv, scene), abs=1e-12, rel=0)

    if partition is None or params.mode == "none":
        assert evaluation.attribution is None
        return
    got = evaluation.attribution
    assert got.n_pairs == scene.target.n_tokens**2
    assert got.mean_abs_logit == pytest.approx(dense_attribution(qkv, partition), abs=1e-12, rel=0)
