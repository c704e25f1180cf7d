import math

import numpy as np
import pytest

import ropefreq.rope
from ropefreq import ConfigurationError, grid_positions, make_grid, make_text, plant_scene
from ropefreq.synthetic import NOISE_LEVEL_MAX


class TestMakeGrid:
    def test_same_seed_is_bitwise_identical(self):
        a = make_grid(5, 3, 16, seed=42)
        b = make_grid(5, 3, 16, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_single_token_grid(self):
        ts = make_grid(1, 1, 8, seed=0)
        assert ts.n_tokens == 1
        np.testing.assert_array_equal(ts.positions, [[0, 0]])

    def test_rows_are_unit_norm(self):
        ts = make_grid(8, 8, 128, seed=7)
        np.testing.assert_allclose(np.linalg.norm(ts.features, axis=1), 1.0, atol=1e-12)

    def test_positions_row_major(self):
        ts = make_grid(3, 2, 8, seed=1)
        np.testing.assert_array_equal(
            ts.positions, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        )

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(0, 4, 8, seed=0)

    def test_styled_rows_unit_norm_and_correlated(self):
        plainest = make_grid(8, 8, 128, seed=3)
        styled = make_grid(8, 8, 128, seed=3, style_strength=0.9)
        np.testing.assert_allclose(np.linalg.norm(styled.features, axis=1), 1.0, atol=1e-12)
        cos_plain = plainest.features @ plainest.features.T
        cos_styled = styled.features @ styled.features.T
        off = ~np.eye(64, dtype=bool)
        assert cos_styled[off].mean() > 0.7
        assert abs(cos_plain[off].mean()) < 0.05

    def test_style_strength_range_checked(self):
        with pytest.raises(ConfigurationError):
            make_grid(2, 2, 8, seed=0, style_strength=1.0)


class TestMakeText:
    def test_positions_all_zero(self):
        ts = make_text(5, 16, seed=0)
        assert ts.modality == "text"
        np.testing.assert_array_equal(ts.positions, np.zeros((5, 2)))

    def test_empty_text_set(self):
        ts = make_text(0, 16, seed=0)
        assert ts.n_tokens == 0


class TestPlantScene:
    def test_identity_zero_noise_copies_exactly(self):
        base = make_grid(4, 4, 16, seed=5)
        scene = plant_scene(base, kind="identity", noise_level=0.0, seed=6)
        np.testing.assert_array_equal(scene.reference.features, base.features)
        np.testing.assert_array_equal(scene.correspondence, np.arange(16))

    def test_shuffle_zero_noise_places_features_exactly(self):
        base = make_grid(4, 4, 16, seed=5)
        scene = plant_scene(base, kind="shuffle", noise_level=0.0, seed=6)
        for i in range(base.n_tokens):
            np.testing.assert_array_equal(
                scene.reference.features[scene.correspondence[i]], base.features[i]
            )

    def test_shift_wraps_row_major_index(self):
        base = make_grid(3, 3, 8, seed=1)
        scene = plant_scene(base, kind="shift", noise_level=0.0, seed=2, shift=2)
        np.testing.assert_array_equal(scene.correspondence, (np.arange(9) + 2) % 9)

    def test_shift_bounds_checked(self):
        base = make_grid(2, 2, 8, seed=1)
        with pytest.raises(ConfigurationError):
            plant_scene(base, kind="shift", shift=4, seed=0)

    def test_unknown_kind_rejected(self):
        base = make_grid(2, 2, 8, seed=1)
        with pytest.raises(ConfigurationError):
            plant_scene(base, kind="rotate", seed=0)

    def test_determinism(self):
        base = make_grid(4, 4, 32, seed=9)
        a = plant_scene(base, kind="shuffle", noise_level=0.2, seed=10)
        b = plant_scene(base, kind="shuffle", noise_level=0.2, seed=10)
        np.testing.assert_array_equal(a.reference.features, b.reference.features)
        np.testing.assert_array_equal(a.correspondence, b.correspondence)

    def test_matched_pairs_most_similar_on_average(self):
        base = make_grid(4, 4, 64, seed=11)
        scene = plant_scene(base, kind="shuffle", noise_level=0.1, seed=12)
        sims = base.features @ scene.reference.features.T
        matched = [sims[i, scene.correspondence[i]] for i in range(16)]
        unmatched = [
            sims[i, j]
            for i in range(16)
            for j in range(16)
            if j != scene.correspondence[i]
        ]
        assert np.mean(matched) > np.mean(unmatched)

    def test_matched_cosine_tracks_noise_level(self):
        base = make_grid(4, 4, 64, seed=13)
        scene = plant_scene(base, kind="identity", noise_level=0.5, seed=14)
        matched = np.einsum("ij,ij->i", base.features, scene.reference.features)
        assert matched.mean() == pytest.approx(1 / np.sqrt(1 + 0.25), abs=0.05)

    def test_inverse_permutation_recovers_target_without_noise(self):
        base = make_grid(4, 4, 16, seed=15)
        scene = plant_scene(base, kind="shuffle", noise_level=0.0, seed=16)
        recovered = scene.reference.features[scene.correspondence]
        np.testing.assert_array_equal(recovered, base.features)

    def test_reference_positions_enumerate_same_grid(self):
        base = make_grid(5, 2, 8, seed=17)
        scene = plant_scene(base, kind="shuffle", seed=18)
        np.testing.assert_array_equal(scene.reference.positions, grid_positions(5, 2))

    def test_negative_noise_rejected(self):
        base = make_grid(2, 2, 8, seed=1)
        with pytest.raises(ConfigurationError):
            plant_scene(base, noise_level=-0.1, seed=0)

    @pytest.mark.parametrize("dim", [2, 128])
    def test_rows_at_the_noise_bound_are_unit_norm(self, dim):
        base = make_grid(4, 4, dim, seed=1)
        scene = plant_scene(base, noise_level=NOISE_LEVEL_MAX, seed=0)
        norms = np.linalg.norm(scene.reference.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
        for past in (1e155, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                plant_scene(base, noise_level=past, seed=0)


class TestPlantedSceneValidation:
    def test_rejects_non_permutation_correspondence(self):
        from ropefreq import PlantedScene

        base = make_grid(2, 2, 8, seed=1)
        with pytest.raises(ConfigurationError):
            PlantedScene(
                target=base,
                reference=base,
                correspondence=np.array([0, 0, 1, 2]),
            )


def whole_matrix_scene(width, height, dim, seed, style_strength, kind, noise_level, scene_seed, shift):
    """The grid, text and reference features as whole-matrix NumPy expressions build them."""
    rng = np.random.default_rng(seed)
    style = rng.standard_normal(dim)
    style /= np.linalg.norm(style)
    feats = rng.standard_normal((width * height, dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    feats = np.sqrt(1.0 - style_strength**2) * feats + style_strength * style
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    text = np.random.default_rng(seed + 2).standard_normal((3, dim))
    text /= np.linalg.norm(text, axis=1, keepdims=True)
    rng = np.random.default_rng(scene_seed)
    n = width * height
    corr = rng.permutation(n) if kind == "shuffle" else (np.arange(n) + shift) % n
    noisy = feats + noise_level / np.sqrt(dim) * rng.standard_normal(feats.shape)
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    ref = np.empty_like(feats)
    ref[corr] = noisy
    return feats, text, ref


@pytest.mark.parametrize("rows_bytes", [8 * 16 * 3, 8 * 16 * 7, 2**20], ids=["3-rows", "7-rows", "1MiB"])
@pytest.mark.parametrize("kind, shift", [("identity", 0), ("shuffle", 0), ("shift", -5)])
def test_blocked_scene_keeps_the_bits_of_whole_matrix_expressions(monkeypatch, rows_bytes, kind, shift):
    # The builders normalize and perturb a block of rows at a time; the
    # generator draws the same values in blocks, and each row's norm is its
    # own sum, so every byte matches. 7x5 cells leave a ragged last block.
    monkeypatch.setattr(ropefreq.rope, "_ROWS_BYTES", rows_bytes)
    args = 7, 5, 16, 21, 0.9
    feats, text, ref = whole_matrix_scene(*args, kind, 0.8, 4, shift)
    base = make_grid(*args)
    scene = plant_scene(base, kind=kind, noise_level=0.8, seed=4, shift=shift)
    assert base.features.tobytes() == feats.tobytes()
    assert make_text(3, 16, seed=23).features.tobytes() == text.tobytes()
    assert scene.reference.features.tobytes() == ref.tobytes()
