import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ropefreq.attention
from dense_reference import (
    dense_attribution,
    dense_band_logits,
    evaluate_with_reference,
    streamed_evaluation,
)
from ropefreq import (
    Band,
    BandMaskSpec,
    ConfigurationError,
    ModulationSchedule,
    RotaryConfig,
    ShapeError,
    SharingParams,
    TimestepRamp,
    TokenSet,
    adain,
    apply_rope_batch,
    build_shared_qkv,
    chunk_decomposition,
    evaluate_shared,
    grid_positions,
    make_even_partition,
    make_grid,
    make_text,
    modulation_scales,
    plant_scene,
    ramp_at,
    shift_positions,
)
from ropefreq.attention import _blocks, _column_stats
from ropefreq.diagnostics import _band_panels
from ropefreq.reportio import layout_to_json

CFG = RotaryConfig(dim=32)


def image_set(n_cols, n_rows, dim, seed):
    return make_grid(n_cols, n_rows, dim, seed)


class TestTokenSet:
    def test_text_positions_must_be_zero(self):
        with pytest.raises(ConfigurationError):
            TokenSet(np.ones((2, 4)), np.array([[0, 0], [1, 0]]), "text")

    def test_grid_positions_must_be_row_major(self):
        pos = grid_positions(2, 2)[::-1]
        with pytest.raises(ConfigurationError):
            TokenSet(np.ones((4, 4)), pos, "image", grid_shape=(2, 2))

    def test_rejects_nonfinite(self):
        feats = np.ones((1, 4))
        feats[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            TokenSet(feats, np.zeros((1, 2)), "image")

    def test_free_positions_without_grid_shape(self):
        ts = TokenSet(np.ones((2, 4)), np.array([[5, -3], [0, 9]]), "image")
        assert ts.positions.dtype == np.int64
        assert ts.positions.tolist() == [[5, -3], [0, 9]]


class TestAdain:
    def test_idempotent_on_matching_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 6))
        np.testing.assert_allclose(adain(x, x), x, atol=1e-9)

    def test_transfers_mean_and_std(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = rng.standard_normal((100, 4)) * 2.0 + 3.0
        out = adain(x, y)
        np.testing.assert_allclose(out.mean(axis=0), y.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), y.std(axis=0), atol=1e-6)

    def test_constant_channel_passes_through_reference_mean(self):
        x = np.ones((5, 3))
        x[:, 1] = np.arange(5)
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 3)) + 4.0
        out = adain(x, y)
        np.testing.assert_allclose(out[:, 0], np.full(5, y[:, 0].mean()), atol=1e-12)

    def test_matches_statistics_oracle(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((8, 5)), rng.standard_normal((9, 5))
        np.testing.assert_allclose(adain(x, y), oracles.o_adain(x, y), atol=1e-12)

    def test_out_is_bit_identical(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((8, 5)), rng.standard_normal((9, 5))
        x[:, 2] = 1.5  # a degenerate channel takes the reference mean
        expected = adain(x, y)
        stack = np.full((10, 5), 7.0)
        rows = stack[1:9]
        assert adain(x, y, out=rows) is rows
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(stack[[0, 9]], 7.0)
        assert adain(x, y, out=x) is x
        np.testing.assert_array_equal(x, expected)
        with pytest.raises(ShapeError):
            adain(x, y, out=np.empty((9, 5)))

    def test_blocked_statistics_keep_the_bits_of_whole_matrix_statistics(self, monkeypatch):
        # Three rows at a time: x's 11 rows and y's 13 take several ragged blocks.
        monkeypatch.setattr(ropefreq.attention, "_ROWS_BYTES", 3 * 8 * 6)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((11, 6)) * 3.0 + 1e4, rng.standard_normal((13, 6)) - 2.0
        x[:, 4] = -7.25  # a degenerate channel takes the reference mean
        mean_x, std_x, mean_y, std_y = x.mean(axis=0), x.std(axis=0), y.mean(axis=0), y.std(axis=0)
        degenerate = std_x < 1e-8
        expected = (x - mean_x) / np.where(degenerate, 1.0, std_x) * std_y + mean_y
        expected[:, degenerate] = mean_y[degenerate]
        assert degenerate.tolist() == [False] * 4 + [True, False]
        assert adain(x, y).tobytes() == expected.tobytes()

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            adain(np.ones((3, 4)), np.ones((3, 5)))

    def test_reference_needs_two_rows(self):
        with pytest.raises(ShapeError):
            adain(np.ones((3, 4)), np.ones((1, 4)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 70),
    width=st.integers(1, 9),
    rows=st.integers(1, 16),
    log_scale=st.floats(-8, 8),
    offset=st.floats(-1e8, 1e8),
    constant=st.booleans(),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, width=4, rows=1, log_scale=8.0, offset=-1e8, constant=True, fortran=False, seed=0)
@example(n=61, width=8, rows=7, log_scale=-8.0, offset=1.0, constant=False, fortran=False, seed=1)
def test_blocked_column_statistics_equal_numpys(
    n, width, rows, log_scale, offset, constant, fortran, seed
):
    # Bit for bit, so even a zero mean keeps its sign. A constant channel is
    # AdaIN's degenerate path; a lone column and a column-major matrix are
    # the layouts NumPy sums pairwise.
    x = np.random.default_rng(seed).standard_normal((n, width)) * 10.0**log_scale + offset
    if constant:
        x[:, 0] = offset
    if fortran:
        x = np.asfortranarray(x)
    mean, std = _column_stats(x, rows)
    assert mean.tobytes() == x.mean(axis=0).tobytes()
    assert std.tobytes() == x.std(axis=0).tobytes()


def kernel(qf, qpos, kf, kpos, heads=1):
    """The softmax rows of the blocked kernel on rows rotated at their positions.

    The inputs are small enough for one block, which the unpacking checks.
    """
    q_rot = apply_rope_batch(qf, qpos, CFG)
    k_rot = apply_rope_batch(kf, kpos, CFG)
    ((start, attention),) = _blocks(q_rot, k_rot, heads)
    assert start == 0
    return attention


class TestAttend:
    def test_single_key_gets_all_attention(self):
        attention = kernel(np.ones((1, 32)), [[2, 3]], np.ones((1, 32)), [[5, 1]])
        np.testing.assert_array_equal(attention, [[1.0]])

    def test_identical_keys_at_same_position_split_evenly(self):
        qf = np.random.default_rng(4).standard_normal((1, 32))
        attention = kernel(qf, [[0, 0]], np.vstack([qf, qf]), [[3, 2], [3, 2]])
        np.testing.assert_allclose(attention, [[0.5, 0.5]], atol=1e-12)

    def test_symmetric_displacements_with_query_equal_key(self):
        f = np.random.default_rng(5).standard_normal((1, 32))
        attention = kernel(f, [[0, 0]], np.vstack([f, f]), [[1, 0], [-1, 0]])
        np.testing.assert_allclose(attention, [[0.5, 0.5]], atol=1e-12)

    def test_six_token_case_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        qf = rng.standard_normal((6, 32))
        kf = rng.standard_normal((6, 32))
        qpos = rng.integers(-4, 5, (6, 2))
        kpos = rng.integers(-4, 5, (6, 2))
        attention = kernel(qf, qpos, kf, kpos)

        q_rot = [oracles.o_apply_rope(list(qf[i]), *qpos[i], 32, 10000.0) for i in range(6)]
        k_rot = [oracles.o_apply_rope(list(kf[i]), *kpos[i], 32, 10000.0) for i in range(6)]
        logits = np.array(
            [[oracles.o_dot(qr, kr) / math.sqrt(32) for kr in k_rot] for qr in q_rot],
            dtype=np.longdouble,
        )
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = (e / e.sum(axis=1, keepdims=True)).astype(np.float64)
        np.testing.assert_allclose(attention, expected, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        attention = kernel(
            rng.standard_normal((4, 32)), rng.integers(0, 4, (4, 2)),
            rng.standard_normal((9, 32)), rng.integers(0, 4, (9, 2)), heads=2,
        )
        np.testing.assert_allclose(attention.sum(axis=1), np.ones(4), atol=1e-9)

    def test_multihead_output_stacks_head_slices(self):
        # With heads=2 each head attends over its own slice of chunks; the
        # kernel's attention is the mean of the per-head softmaxes.
        rng = np.random.default_rng(8)
        qf, qpos = rng.standard_normal((3, 32)), rng.integers(0, 3, (3, 2))
        kf, kpos = rng.standard_normal((5, 32)), rng.integers(0, 3, (5, 2))
        attention = kernel(qf, qpos, kf, kpos, heads=2)
        q_rot = apply_rope_batch(qf, qpos, CFG)
        k_rot = apply_rope_batch(kf, kpos, CFG)
        per_head = []
        for sl in [slice(0, 16), slice(16, 32)]:
            logits = q_rot[:, sl] @ k_rot[:, sl].T / math.sqrt(16)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            per_head.append(e / e.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(attention, np.mean(per_head, axis=0), atol=1e-12)

    def test_head_divisibility_error(self):
        scene, text = scene_and_text()
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG
        )
        with pytest.raises(ConfigurationError, match="divisible"):
            evaluate_shared(qkv, scene, CFG, heads=3)


class TestAttendBandDecomposition:
    def test_generic_attend_band_logits_reconstruct(self):
        rng = np.random.default_rng(30)
        qf, qpos = rng.standard_normal((4, 32)), rng.integers(0, 4, (4, 2))
        kf, kpos = rng.standard_normal((6, 32)), rng.integers(0, 4, (6, 2))
        part = make_even_partition(CFG, 4, "all")
        q_rot = apply_rope_batch(qf, qpos, CFG)
        k_rot = apply_rope_batch(kf, kpos, CFG)
        # Each band's panel is computed into the buffer the next band reuses.
        panels = _band_panels(q_rot, k_rot, part, np.empty((4, 6)))
        per_band = np.stack([panel.copy() for panel in panels])
        logits = q_rot @ k_rot.T / math.sqrt(32)
        assert per_band.shape == (4, 4, 6)
        np.testing.assert_allclose(per_band.sum(axis=0), logits, atol=1e-8)


class TestModulationScales:
    def test_constant_when_endpoints_equal(self):
        np.testing.assert_array_equal(modulation_scales(1.0, 1.0, 2.0, 7), np.ones(7))

    def test_linear_beta_is_arithmetic_progression(self):
        out = modulation_scales(0.2, 1.0, 1.0, 5)
        np.testing.assert_allclose(np.diff(out), 0.2, atol=1e-15)

    def test_hand_evaluated_vector(self):
        out = modulation_scales(0.3, 1.5, 2.0, 5)
        np.testing.assert_allclose(out, [0.3, 0.375, 0.6, 0.975, 1.5], atol=1e-12)

    def test_endpoints_bitwise_exact(self):
        out = modulation_scales(0.1234567, 3.7654321, 2.7, 9)
        assert out[0] == 0.1234567 and out[-1] == 3.7654321

    def test_monotone_when_increasing(self):
        out = modulation_scales(0.3, 1.2, 2.0, 33)
        assert np.all(np.diff(out) >= 0)

    def test_needs_two_chunks(self):
        with pytest.raises(ConfigurationError):
            modulation_scales(0.3, 1.2, 2.0, 1)

    def test_beta_positive(self):
        with pytest.raises(ConfigurationError):
            modulation_scales(0.3, 1.2, 0.0, 4)

    @pytest.mark.parametrize(
        "s_hf, s_lf, beta",
        [(math.inf, 1.0, 2.0), (0.3, math.nan, 2.0), (0.3, 1.0, math.inf), (-0.3, 1.0, 2.0)],
    )
    def test_scales_and_beta_must_be_finite_and_positive(self, s_hf, s_lf, beta):
        with pytest.raises(ConfigurationError):
            modulation_scales(s_hf, s_lf, beta, 4)
        with pytest.raises(ConfigurationError):
            ModulationSchedule(s_hf, s_lf, beta, np.ones(4))


class TestSchedule:
    def test_per_axis_layout(self):
        cfg = RotaryConfig(dim=16)
        sched = ModulationSchedule.for_config(cfg, 0.3, 1.5, 2.0)
        expected_axis = modulation_scales(0.3, 1.5, 2.0, 4)
        np.testing.assert_array_equal(sched.per_chunk_scales[:4], expected_axis)
        np.testing.assert_array_equal(sched.per_chunk_scales[4:], expected_axis)

    def test_temporal_chunks_get_s_lf(self):
        cfg = RotaryConfig.flux_like(128)
        sched = ModulationSchedule.for_config(cfg, 0.3, 1.2, 2.0)
        np.testing.assert_array_equal(
            sched.per_chunk_scales[list(cfg.temporal_chunks)], np.full(8, 1.2)
        )

    def test_matches_oracle(self):
        sched = ModulationSchedule.for_config(RotaryConfig(dim=64), 0.4, 1.3, 2.0)
        exp = oracles.o_modulation_scales(0.4, 1.3, 2.0, 16)
        np.testing.assert_allclose(sched.per_chunk_scales[:16], exp, atol=1e-15)


class TestRamp:
    RAMP = TimestepRamp(s_hf_start=0.2, s_hf_end=0.6, s_lf_start=1.0, s_lf_end=1.4, total_steps=5)

    def test_start_values_exact(self):
        assert ramp_at(self.RAMP, 0) == (0.2, 1.0)

    def test_end_values_exact(self):
        assert ramp_at(self.RAMP, 4) == (0.6, 1.4)

    def test_midpoint(self):
        s_hf, s_lf = ramp_at(self.RAMP, 2)
        assert s_hf == pytest.approx(0.4, abs=1e-12)
        assert s_lf == pytest.approx(1.2, abs=1e-12)

    def test_single_step_uses_start(self):
        ramp = TimestepRamp(0.2, 0.6, 1.0, 1.4, total_steps=1)
        assert ramp_at(ramp, 0) == (0.2, 1.0)

    @pytest.mark.parametrize("t", [-1, 5])
    def test_out_of_range(self, t):
        with pytest.raises(ConfigurationError):
            ramp_at(self.RAMP, t)


class TestShiftPositions:
    def test_zero_offset(self):
        pos = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(shift_positions(pos, (0, 0)), pos)

    def test_grid_width_offset_disjoint(self):
        pos = grid_positions(4, 4)
        shifted = shift_positions(pos, (4, 0))
        assert set(shifted[:, 0].tolist()) == {4, 5, 6, 7}

    def test_negative_offset(self):
        out = shift_positions(np.array([[0, 0], [1, 0]]), (-3, 2))
        assert out.tolist() == [[-3, 2], [-2, 2]]

    def test_rejects_position_list(self):
        with pytest.raises(ShapeError):
            shift_positions([0, 0, 1, 0], (1, 0))

    @pytest.mark.parametrize(
        "offset", [(2**63 - 1, 0), (0, -(2**63) - 1), (10**30, 0), (-(10**30), 5)]
    )
    def test_rejects_a_shift_out_of_int64(self, offset):
        # NumPy's int64 addition would wrap these (or fail to convert them).
        with pytest.raises(ConfigurationError, match="int64"):
            shift_positions(grid_positions(2, 2), offset)

    def test_shift_to_the_int64_bounds_is_exact(self):
        out = shift_positions(grid_positions(2, 2), (2**63 - 2, -(2**63)))
        assert out.tolist() == [
            [2**63 - 2, -(2**63)], [2**63 - 1, -(2**63)],
            [2**63 - 2, -(2**63) + 1], [2**63 - 1, -(2**63) + 1],
        ]


def scene_and_text(dim=32, grid=4, noise=0.0, kind="identity", seed=0):
    base = make_grid(grid, grid, dim, seed=seed)
    scene = plant_scene(base, kind=kind, noise_level=noise, seed=seed + 1)
    text = make_text(3, dim, seed=seed + 2)
    return scene, text


class TestBuildSharedQKV:
    def test_mode_none_has_no_reference_rows(self):
        scene, text = scene_and_text()
        qkv = build_shared_qkv(scene.target, text, scene.reference, SharingParams(mode="none"), CFG)
        assert qkv.k[qkv.key_layout.rows("reference-image")].size == 0
        assert qkv.k.shape[0] == scene.target.n_tokens + text.n_tokens

    def test_mode_none_reduces_to_attend_on_target(self):
        scene, text = scene_and_text()
        qkv = build_shared_qkv(scene.target, text, scene.reference, SharingParams(mode="none"), CFG)
        _, attention, tied = evaluate_with_reference(qkv, scene, CFG)
        assert tied
        features = np.vstack([scene.target.features, text.features])
        positions = np.vstack([scene.target.positions, text.positions])
        base = kernel(features, positions, features, positions)
        np.testing.assert_allclose(attention, base, atol=1e-15)
        _, streamed = streamed_evaluation(qkv, scene, CFG)
        assert streamed == base.astype("<f4").tobytes()

    def test_constant_schedule_equals_plain(self):
        scene, text = scene_and_text(noise=0.1, kind="shuffle")
        sched = ModulationSchedule.for_config(CFG, 0.7, 0.7, 2.0)
        fa = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="frequency_aware", schedule=sched), CFG,
        )
        plain = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=0.7), CFG
        )
        np.testing.assert_allclose(fa.k, plain.k, atol=1e-12)

    def test_middle_chunk_scale_per_axis(self):
        cfg = RotaryConfig(dim=256)  # 64 chunks per axis
        scene, text = scene_and_text(dim=256)
        sched = ModulationSchedule.for_config(cfg, 0.3, 1.5, 2.0)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="frequency_aware", schedule=sched, adain_enabled=False), cfg,
        )
        ref_rot = apply_rope_batch(scene.reference.features, scene.reference.positions, cfg)
        expected_mid = 0.3 + (1.5 - 0.3) * (32 / 63) ** 2
        n_target = scene.target.n_tokens + text.n_tokens
        for axis_chunks in (cfg.x_chunks, cfg.y_chunks):
            mid_chunk = axis_chunks[32]
            cols = slice(2 * mid_chunk, 2 * mid_chunk + 2)
            ratio = qkv.k[n_target:, cols] / ref_rot[:, cols]
            np.testing.assert_allclose(ratio, expected_mid, atol=1e-12)

    def test_modulation_commutes_with_rotation(self):
        scene, text = scene_and_text(noise=0.05, kind="shuffle")
        sched = ModulationSchedule.for_config(CFG, 0.3, 1.2, 2.0)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="frequency_aware", schedule=sched, adain_enabled=False), CFG,
        )
        pre_modulated = scene.reference.features * np.repeat(sched.per_chunk_scales, 2)
        alt = apply_rope_batch(pre_modulated, scene.reference.positions, CFG)
        n_target = scene.target.n_tokens + text.n_tokens
        np.testing.assert_allclose(qkv.k[n_target:], alt, atol=1e-12)

    def test_mirror_symmetry_for_duplicated_reference(self):
        scene, text = scene_and_text(noise=0.0, kind="identity")
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="plain", s=1.0, adain_enabled=False), CFG,
        )
        _, attention, tied = evaluate_with_reference(qkv, scene, CFG)
        assert tied
        n_img, n_txt = scene.target.n_tokens, text.n_tokens
        ref_cols = slice(n_img + n_txt, n_img + n_txt + n_img)
        np.testing.assert_allclose(
            attention[:n_img, :n_img], attention[:n_img, ref_cols], atol=1e-9
        )

    def test_modulated_logit_matches_chunk_decomposition(self):
        scene, text = scene_and_text(noise=0.1, kind="shuffle", seed=5)
        sched = ModulationSchedule.for_config(CFG, 0.3, 1.2, 2.0)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="frequency_aware", schedule=sched, adain_enabled=False), CFG,
        )
        n_target = scene.target.n_tokens + text.n_tokens
        i, j = 3, 7  # query token i, reference key j
        logit = float(qkv.q[i] @ qkv.k[n_target + j])
        delta = scene.reference.positions[j] - scene.target.positions[i]
        terms = chunk_decomposition(
            scene.target.features[i], scene.reference.features[j], delta, CFG
        )
        expected = sum(s * t.value for s, t in zip(sched.per_chunk_scales, terms))
        assert logit == pytest.approx(expected, abs=1e-9)

    def test_adain_applied_before_rotation(self):
        scene, text = scene_and_text(noise=0.3, kind="shuffle", seed=9)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG
        )
        normed = adain(scene.target.features, scene.reference.features)
        expected = apply_rope_batch(normed, scene.target.positions, CFG)
        np.testing.assert_allclose(qkv.q[: scene.target.n_tokens], expected, atol=1e-12)

    def test_shifted_mode_offsets_reference_positions(self):
        scene, text = scene_and_text()
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="shifted", offset=(4, 0), s=1.0), CFG,
        )
        layout = qkv.key_layout
        ref_positions = layout.positions[layout.rows("reference-image")].tolist()
        target_positions = {tuple(p) for p in scene.target.positions.tolist()}
        assert all(tuple(p) not in target_positions for p in ref_positions)

    def test_layout_json_matches_token_positions(self):
        scene, text = scene_and_text()
        offset = (2, -3)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="shifted", offset=offset, s=1.0), CFG,
        )

        def rows(source, positions, dx=0, dy=0):
            return [
                {"source": source, "index": i, "position": [int(x) + dx, int(y) + dy]}
                for i, (x, y) in enumerate(positions)
            ]

        queries = rows("target-image", scene.target.positions) + rows("target-text", text.positions)
        keys = queries + rows("reference-image", scene.reference.positions, *offset)
        # The layout's JSON text parses back to exactly these rows, in order.
        assert json.loads(layout_to_json(qkv.query_layout)) == queries
        assert json.loads(layout_to_json(qkv.key_layout)) == keys

    def test_shifted_zero_offset_notes_degeneration(self):
        scene, text = scene_and_text()
        qkv = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="shifted", offset=(0, 0), s=1.0), CFG,
        )
        assert any("zero offset" in note for note in qkv.notes)

    def test_band_mask_override_zeroes_reference_chunk_columns(self):
        scene, text = scene_and_text()
        params = SharingParams(
            mode="plain", s=1.0, band_mask_override=BandMaskSpec(Band("high", 0, 4), "zero")
        )
        qkv = build_shared_qkv(scene.target, text, scene.reference, params, CFG)
        n_target = scene.target.n_tokens + text.n_tokens
        assert np.all(qkv.k[n_target:, :8] == 0.0)
        assert np.any(qkv.k[:n_target, :8] != 0.0)

    def test_grid_mismatch_raises(self):
        scene, text = scene_and_text()
        other = make_grid(3, 3, 32, seed=2)
        with pytest.raises(ShapeError):
            build_shared_qkv(scene.target, text, other, SharingParams(mode="plain", s=1.0), CFG)

    def test_ramp_reinterpolates_schedule(self):
        scene, text = scene_and_text()
        ramp = TimestepRamp(0.2, 0.6, 1.0, 1.4, total_steps=5)
        sched = ModulationSchedule.for_config(CFG, 0.99, 1.01, 2.0)
        params = SharingParams(mode="frequency_aware", schedule=sched, ramp=ramp)
        qkv_mid = build_shared_qkv(scene.target, text, scene.reference, params, CFG, step=2)
        expected_sched = ModulationSchedule.for_config(CFG, 0.4, 1.2, 2.0)
        direct = build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="frequency_aware", schedule=expected_sched), CFG,
        )
        np.testing.assert_allclose(qkv_mid.k, direct.k, atol=1e-12)

    def test_sharing_params_validation(self):
        with pytest.raises(ConfigurationError):
            SharingParams(mode="plain", s=0.0)
        with pytest.raises(ConfigurationError):
            SharingParams(mode="frequency_aware")
        with pytest.raises(ConfigurationError):
            SharingParams(mode="shifted", s=1.0)
        with pytest.raises(ConfigurationError):
            SharingParams(mode="plain", offset=(1, 0))

    def test_per_band_logits_sum_to_logits(self):
        scene, text = scene_and_text(noise=0.1, kind="shuffle")
        part = make_even_partition(CFG, 3, "all")
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG
        )
        evaluation, _, tied = evaluate_with_reference(qkv, scene, CFG, band_partition=part)
        assert tied
        logits = qkv.q @ qkv.k.T / math.sqrt(32)
        np.testing.assert_allclose(
            dense_band_logits(qkv.q, qkv.k, part).sum(axis=0), logits, atol=1e-8
        )
        assert evaluation.attribution.mean_abs_logit == pytest.approx(
            dense_attribution(qkv, part), abs=1e-12, rel=0
        )

    def test_band_partition_requires_single_head(self):
        scene, text = scene_and_text()
        part = make_even_partition(CFG, 3, "all")
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG
        )
        with pytest.raises(ConfigurationError):
            evaluate_shared(qkv, scene, CFG, heads=2, band_partition=part)

    def test_band_partition_must_cover_all_chunks(self):
        scene, text = scene_and_text()
        part = make_even_partition(CFG, 2, "x")
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), CFG
        )
        with pytest.raises(ConfigurationError):
            evaluate_shared(qkv, scene, CFG, band_partition=part)


class TestPositionValidation:
    def test_fractional_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenSet(np.ones((1, 32)), np.array([[0.5, 0.0]]), "image")

    def test_whole_valued_floats_accepted(self):
        ts = TokenSet(np.ones((1, 32)), np.array([[2.0, -3.0]]), "image")
        assert ts.positions.dtype == np.int64
        np.testing.assert_array_equal(ts.positions, [[2, -3]])
