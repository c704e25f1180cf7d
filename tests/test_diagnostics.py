import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dense_reference import dense_attribution, dense_band_logits, dense_saturated, evaluate_with_reference
from ropefreq import (
    Band,
    BandMaskSpec,
    ConfigurationError,
    PlantedScene,
    RotaryConfig,
    ShapeError,
    SharingParams,
    TokenSet,
    build_shared_qkv,
    evaluate_shared,
    grid_positions,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
)
from ropefreq.diagnostics import _AlignmentFold, _row_order_sum

CFG = RotaryConfig(dim=32)
COPYING = json.loads((Path(__file__).parent / "fixtures" / "copying_fixture.json").read_text())


def run(scene, text, params, heads=1, bands=None, config=CFG):
    """``(evaluation, partition, qkv)`` of one shared setup."""
    part = make_even_partition(config, bands) if bands else None
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    evaluation = evaluate_shared(qkv, scene, heads=heads, band_partition=part)
    return evaluation, part, qkv


def basic_scene(kind="shuffle", noise=0.1, seed=0, grid=4, dim=32):
    base = make_grid(grid, grid, dim, seed=seed)
    scene = plant_scene(base, kind=kind, noise_level=noise, seed=seed + 1)
    return scene, make_text(3, dim, seed=seed + 2)


class TestComputeAlignment:
    def test_identity_scene_positional_equals_semantic(self):
        scene, text = basic_scene(kind="identity")
        m = run(scene, text, SharingParams(mode="plain", s=1.0))[0].alignment
        assert m.positional_mass == m.semantic_mass
        assert m.argmax_positional_rate == m.argmax_semantic_rate

    def test_mode_none_zeroes_reference_metrics(self):
        scene, text = basic_scene()
        m = run(scene, text, SharingParams(mode="none"))[0].alignment
        assert m.positional_mass == 0.0
        assert m.semantic_mass == 0.0
        assert m.argmax_positional_rate == 0.0
        assert m.argmax_semantic_rate == 0.0
        assert m.reference_mass == 0.0

    def test_tied_reference_weights_resolve_to_the_lower_index(self):
        # argmax takes the first of equal maxima; the fold's winner must too.
        scene, text = basic_scene(kind="identity")
        params = SharingParams(mode="plain")
        qkv = build_shared_qkv(scene.target, text, scene.reference, params, CFG)
        fold = _AlignmentFold(qkv, scene)
        np.testing.assert_array_equal(fold.aligned, np.arange(scene.target.n_tokens))
        attention = np.full((len(qkv.q), len(qkv.k)), 0.01)
        ref = attention[:, fold.ref_cols]
        ref[0, [0, 5]] = 0.3  # row 0 aligns with reference 0, the lower of the tie
        ref[1, [0, 1]] = 0.3  # row 1 aligns with reference 1, the higher of the tie
        fold.add(0, attention)
        assert fold.pos_hit[0] and not fold.pos_hit[1]

    def test_fields_bounded_and_dominated_by_reference_mass(self):
        scene, text = basic_scene()
        m = run(scene, text, SharingParams(mode="plain", s=1.0))[0].alignment
        for value in m.as_dict().values():
            assert 0.0 <= value <= 1.0
        assert m.positional_mass <= m.reference_mass
        assert m.semantic_mass <= m.reference_mass

    def test_masses_partition_per_query(self):
        scene, text = basic_scene()
        *_, qkv = run(scene, text, SharingParams(mode="plain", s=1.0))
        n_img = scene.target.n_tokens
        n_txt = text.n_tokens
        _, attn, tied = evaluate_with_reference(qkv, scene)
        assert tied
        tgt = attn[:n_img, :n_img].sum(axis=1)
        txt = attn[:n_img, n_img : n_img + n_txt].sum(axis=1)
        ref = attn[:n_img, n_img + n_txt :].sum(axis=1)
        np.testing.assert_allclose(tgt + txt + ref, np.ones(n_img), atol=1e-9)

    def test_shifted_mode_has_zero_positional_mass(self):
        scene, text = basic_scene()
        m = run(scene, text, SharingParams(mode="shifted", offset=(4, 0), s=1.0))[0].alignment
        assert m.positional_mass == 0.0
        assert m.argmax_positional_rate == 0.0
        assert m.reference_mass > 0.0

    def test_query_count_mismatch_raises(self):
        scene, text = basic_scene()
        other_base = make_grid(3, 3, 32, seed=50)
        other = plant_scene(other_base, kind="identity", seed=51)
        *_, qkv = run(scene, text, SharingParams(mode="plain", s=1.0))
        with pytest.raises(ShapeError):
            evaluate_shared(qkv, other)

    def test_repeated_reference_position_raises(self):
        scene, text = basic_scene()
        *_, qkv = run(scene, text, SharingParams(mode="plain", s=1.0))
        *parts, (source, positions) = qkv.parts
        positions = positions.copy()
        positions[-1] = positions[-2]
        repeated = replace(qkv, parts=(*parts, (source, positions)))
        with pytest.raises(ShapeError, match="repeat a grid position"):
            evaluate_shared(repeated, scene)

    def test_monotone_reference_mass_on_positive_logit_fixture(self):
        # 1x2 grid of nonnegative features: x offsets are zero and y chunks
        # rotate by at most ~0.01 rad, so every reference logit stays positive
        # and softmax mass on the reference grows with the plain scale.
        rng = np.random.default_rng(3)
        feats = np.abs(rng.standard_normal((2, 16)))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        cfg = RotaryConfig(dim=16)
        target = TokenSet(feats, grid_positions(1, 2))
        scene = PlantedScene(
            target=target,
            reference=target,
            correspondence=np.arange(2),
        )
        text = make_text(0, 16, seed=0)
        masses = []
        for s in (0.5, 1.0, 2.0, 4.0):
            qkv = build_shared_qkv(
                target, text, target, SharingParams(mode="plain", s=s, adain_enabled=False), cfg
            )
            evaluation, attention, tied = evaluate_with_reference(qkv, scene)
            assert tied
            n = target.n_tokens
            logits_ref = (attention[:n, n:] > 0).all()
            assert logits_ref
            masses.append(evaluation.alignment.reference_mass)
        assert all(a < b for a, b in zip(masses, masses[1:]))


class TestBandAttribution:
    def test_requires_reference_keys(self):
        scene, text = basic_scene()
        evaluation, part, _ = run(scene, text, SharingParams(mode="none"), bands=3)
        assert part is not None and evaluation.attribution is None

    def test_single_band_equals_full_logits(self):
        scene, text = basic_scene()
        evaluation, _, qkv = run(scene, text, SharingParams(mode="plain", s=1.0), bands=1)
        n_img, n_txt = scene.target.n_tokens, text.n_tokens
        full = qkv.q @ qkv.k.T / math.sqrt(CFG.dim)
        expected = np.abs(full[:n_img, n_img + n_txt :]).mean()
        assert evaluation.attribution.mean_abs_logit["full"] == pytest.approx(expected, abs=1e-12)

    def test_sums_past_the_largest_float_are_scaled_exactly(self):
        # Reference keys scaled by 2**1019 scale every band logit by it
        # exactly. Over an 8x8 grid the |logit| sums then pass the largest
        # float, so they are taken of the logits times a power of two, and
        # each mean is still 2**1019 times the mean at s = 1, bit for bit.
        scene, text = basic_scene(grid=8)
        means = [
            run(scene, text, SharingParams(mode="plain", s=s), bands=3)[0].attribution
            for s in (1.0, 2.0**1019)
        ]
        assert means[1].mean_abs_logit == {k: v * 2.0**1019 for k, v in means[0].mean_abs_logit.items()}
        assert math.inf in [v * means[1].n_pairs for v in means[1].mean_abs_logit.values()]

    def test_zeroed_band_has_zero_attribution(self):
        scene, text = basic_scene()
        params = SharingParams(
            mode="plain", s=1.0, band_mask_override=BandMaskSpec(Band("high", 0, 6), "zero")
        )
        evaluation, part, _ = run(scene, text, params, bands=3)
        attr = evaluation.attribution
        assert part.bands[0].stop == 6
        assert attr.mean_abs_logit["high"] == 0.0
        assert attr.mean_abs_logit["low"] > 0.0

    def test_bands_reconstruct_logits(self):
        scene, text = basic_scene(seed=21)
        evaluation, part, qkv = run(scene, text, SharingParams(mode="plain", s=1.0), bands=3)
        logits = qkv.q @ qkv.k.T / math.sqrt(CFG.dim)
        per_band = dense_band_logits(qkv.q, qkv.k, part)
        np.testing.assert_allclose(per_band.sum(axis=0), logits, atol=1e-8)
        assert evaluation.attribution.mean_abs_logit == pytest.approx(
            dense_attribution(qkv, part), abs=1e-12, rel=0
        )

    def test_zeroing_high_band_reduces_positional_mass_on_copying_scene(self):
        cfg = RotaryConfig.interleaved(128)
        base = make_grid(8, 8, 128, seed=10, style_strength=0.9)
        scene = plant_scene(base, kind="identity", noise_level=1.0, seed=11)
        text = make_text(4, 128, seed=12)
        plain_m = run(scene, text, SharingParams(mode="plain", s=1.0), config=cfg)[0].alignment
        masked = SharingParams(
            mode="plain", s=1.0, band_mask_override=BandMaskSpec(Band("high", 0, 22), "zero")
        )
        masked_m = run(scene, text, masked, config=cfg)[0].alignment
        assert masked_m.positional_mass < plain_m.positional_mass


SATURATED = (
    "softmax saturated: in over half of the image-query rows and heads,"
    " one key takes over 0.99 of the weight"
)


class TestSaturationNote:
    """The note fires when over half of the (image-query row, head) pairs give one key > 0.99."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("s", [1.0, 50.0, 60.0, 90.0, 100.0, 1e200])
    def test_note_follows_the_dense_count_of_image_rows(self, s, heads):
        # At s = 90 with two heads exactly half of the pairs saturate: no note.
        scene, text = basic_scene()
        evaluation, _, qkv = run(scene, text, SharingParams(mode="plain", s=s), heads=heads)
        n = scene.target.n_tokens
        pairs = int(dense_saturated(qkv.q, qkv.k, heads)[:n].sum())
        assert evaluation.notes == ((SATURATED,) if 2 * pairs > n * heads else ())

    def test_saturated_text_rows_are_not_counted(self):
        # Image features in the first 16 columns and text features in the
        # last 16 stay orthogonal under rotation, which turns column pairs.
        # Each text row's own key then takes all its weight; no image row's does.
        n, t = 4, 12
        image = np.zeros((n, 32))
        image[:, :16] = np.random.default_rng(0).standard_normal((n, 16)) / 4
        text = np.zeros((t, 32))
        text[:, 16 : 16 + t] = 100 * np.eye(t)
        target = TokenSet(image, grid_positions(2, 2))
        scene = PlantedScene(target, target, np.arange(n))
        text_set = TokenSet(text, np.zeros((t, 2), dtype=np.int64))
        qkv = build_shared_qkv(target, text_set, target, SharingParams(mode="none"), CFG)
        saturated = dense_saturated(qkv.q, qkv.k)
        assert saturated[n:].all() and not saturated[:n].any()
        assert evaluate_shared(qkv, scene).notes == ()


class TestChecksAgainstTheKeys:
    """Heads and the band partition are checked against the width of the keys evaluated."""

    def keys(self):
        scene, text = basic_scene(dim=64)
        params = SharingParams(mode="plain", s=1.0)
        return build_shared_qkv(scene.target, text, scene.reference, params, RotaryConfig(dim=64)), scene

    @pytest.mark.parametrize("dim", [128, 32])
    def test_partition_for_another_width_raises(self, dim):
        # Checked against a config of that width, a dim-128 partition used to
        # pass and read its slow bands from columns the keys do not have.
        qkv, scene = self.keys()
        part = make_even_partition(RotaryConfig(dim=dim), 3)
        with pytest.raises(ConfigurationError, match="covering every chunk"):
            evaluate_shared(qkv, scene, band_partition=part)

    def test_heads_that_split_a_chunk_raise(self):
        # 64 columns make no whole-chunk heads of three; a dim-6 config used to
        # pass and split them into 21-wide heads.
        qkv, scene = self.keys()
        with pytest.raises(ConfigurationError, match="divisible"):
            evaluate_shared(qkv, scene, heads=3)

    def test_partition_of_the_keys_width_runs(self):
        qkv, scene = self.keys()
        part = make_even_partition(RotaryConfig(dim=64), 3)
        evaluation = evaluate_shared(qkv, scene, heads=1, band_partition=part)
        assert evaluation.attribution.mean_abs_logit == pytest.approx(
            dense_attribution(qkv, part), abs=1e-12, rel=0
        )
        assert evaluation.attribution.n_pairs == scene.target.n_tokens**2


@pytest.mark.parametrize("mode, frozen", [("plain", "plain"), ("frequency_aware", "freq_aware")])
def test_oracle_search_metrics_reproduce_copying_fixture(mode, frozen):
    # The fixture-search helpers in oracles.py scan scenes with the library
    # and must agree with the frozen, oracle-built copying fixture.
    kwargs = {"mode": "plain", "s": 1.0} if mode == "plain" else {"mode": mode}
    got, _ = oracles.library_metrics(
        COPYING["kind"], COPYING["seed"], COPYING["noise_level"], COPYING["style_strength"], kwargs
    )
    assert got.as_dict() == pytest.approx(COPYING[frozen], abs=1e-9, rel=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e300), min_size=1, max_size=300))
# Added pairwise, the small terms would not vanish one by one into the large one.
@example([1.0] + [2.0**-60] * 256)
def test_row_order_sum_adds_left_to_right(values):
    # Masses are never negative; a query loop adds them one at a time.
    total = 0.0
    for v in values:
        total += v
    assert _row_order_sum(np.array(values)) == total
