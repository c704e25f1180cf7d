import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ropefreq.rope
from ropefreq import (
    ConfigurationError,
    RotaryConfig,
    ShapeError,
    apply_rope_batch,
    chunk_decomposition,
    frequencies,
    reconstruct_inner_product,
    relative_inner_product,
)

CFG128 = RotaryConfig(dim=128)
# One chunk on x with theta_0 == 1, so a token at (x, 0) is turned by x radians.
CFG2 = RotaryConfig.single_axis(2)


class TestRotaryConfig:
    def test_default_partition_splits_halves(self):
        cfg = RotaryConfig(dim=8)
        assert cfg.x_chunks == (0, 1)
        assert cfg.y_chunks == (2, 3)
        assert cfg.temporal_chunks == ()

    @pytest.mark.parametrize("dim", [0, -2, 7])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ConfigurationError):
            RotaryConfig(dim=dim)

    # A dim whose f64 row passes the 256 KiB row budget, one above 32,768,
    # is refused before any tuple of chunk indices is built (16,385 of them
    # take about 0.6 MB). The bound is fixed at import, so a test that
    # shrinks the budget does not move it.
    @pytest.mark.parametrize(
        "build",
        [
            lambda dim: RotaryConfig(dim=dim),
            lambda dim: RotaryConfig.single_axis(dim, axis="y"),
            RotaryConfig.interleaved,
            RotaryConfig.flux_like,
        ],
        ids=["default", "single_axis", "interleaved", "flux_like"],
    )
    def test_dim_is_bounded_by_the_row_budget(self, build, monkeypatch):
        monkeypatch.setattr(ropefreq.rope, "_ROWS_BYTES", 64)
        assert build(32_768).n_chunks == 16_384
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="up to 32768, got 32770"):
                build(32_770)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("base", [1.0, 0.5, -3.0])
    def test_rejects_base_at_most_one(self, base):
        with pytest.raises(ConfigurationError):
            RotaryConfig(dim=4, rope_base=base)

    # An infinite base gave theta = 0 on every chunk but chunk 0, a string
    # raised TypeError from the comparison, and an integer too large for a
    # float raised OverflowError from frequencies().
    @pytest.mark.parametrize(
        "base", [math.inf, math.nan, "10", 10**400, None], ids=["inf", "nan", "str", "10**400", "None"]
    )
    def test_rejects_base_that_is_not_a_finite_number(self, base):
        message = f"rope_base must be a finite number above 1, got {base!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            RotaryConfig(dim=4, rope_base=base)

    @pytest.mark.parametrize("base", [10000, np.float64(500.0), np.int64(10), sys.float_info.max])
    def test_accepts_any_finite_real_base_above_one(self, base):
        theta = frequencies(RotaryConfig(dim=4, rope_base=base))
        assert theta[0] == 1.0 and np.isfinite(theta).all()

    # Each constructor refuses a dim that is not an integer, or is a bool,
    # with the dim error; 4.0 raised TypeError from range and "8" from <.
    @pytest.mark.parametrize("dim", [4.0, "8", True, None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda dim: RotaryConfig(dim=dim),
            lambda dim: RotaryConfig.single_axis(dim, axis="y"),
            RotaryConfig.interleaved,
            RotaryConfig.flux_like,
        ],
        ids=["default", "single_axis", "interleaved", "flux_like"],
    )
    def test_rejects_dim_that_is_not_an_integer(self, build, dim):
        with pytest.raises(ConfigurationError, match=re.escape(f"up to 32768, got {dim!r}")):
            build(dim)

    def test_accepts_numpy_integer_dim(self):
        assert RotaryConfig(dim=np.int64(8)).x_chunks == (0, 1)

    def test_rejects_overlapping_partitions(self):
        with pytest.raises(ConfigurationError):
            RotaryConfig(dim=4, x_chunks=(0, 1), y_chunks=(1,))

    def test_rejects_incomplete_cover(self):
        with pytest.raises(ConfigurationError):
            RotaryConfig(dim=8, x_chunks=(0,), y_chunks=(1,))

    def test_flux_like_reserves_temporal(self):
        cfg = RotaryConfig.flux_like(128)
        assert cfg.temporal_chunks == tuple(range(8))
        assert len(cfg.y_chunks) == 28 and len(cfg.x_chunks) == 28

    def test_interleaved_alternates(self):
        cfg = RotaryConfig.interleaved(16)
        assert cfg.x_chunks == (0, 2, 4, 6)
        assert cfg.y_chunks == (1, 3, 5, 7)


class TestFrequencies:
    def test_dim4_matches_paper_series(self):
        theta = frequencies(RotaryConfig(dim=4))
        np.testing.assert_allclose(theta, [1.0, 0.01], rtol=1e-14)

    def test_first_frequency_is_exactly_one(self):
        for dim in (2, 6, 128):
            assert frequencies(RotaryConfig(dim=dim))[0] == 1.0

    def test_strictly_decreasing(self):
        theta = frequencies(CFG128)
        assert np.all(np.diff(theta) < 0)

    def test_dim128_last_chunk_matches_independent_pow(self):
        # (1e-4)^(126/128) evaluated in high precision via mpmath
        import mpmath

        mpmath.mp.dps = 50
        expected = float(mpmath.power(mpmath.mpf(1) / 10000, mpmath.mpf(126) / 128))
        got = frequencies(CFG128)[63]
        assert got == pytest.approx(expected, rel=1e-15)


class TestRotateChunk:
    def test_zero_angle_identity(self):
        np.testing.assert_array_equal(apply_rope_batch([[1.0, 0.0]], [(0, 0)], CFG2), [[1.0, 0.0]])

    def test_quarter_turn(self):
        # Rotations commute with the quarter turn (a, b) -> (-b, a).
        (c, s), turned = apply_rope_batch([[1.0, 0.0], [0.0, 1.0]], [(5, 0), (5, 0)], CFG2)
        np.testing.assert_array_equal(turned, [-s, c])
        np.testing.assert_allclose([c, s], [math.cos(5.0), math.sin(5.0)], atol=1e-15)

    def test_matches_complex_multiplication(self):
        rng = np.random.default_rng(3)
        chunk = rng.standard_normal(2)
        z = complex(chunk[0], chunk[1]) * np.exp(7j)
        np.testing.assert_allclose(
            apply_rope_batch([chunk], [(7, 0)], CFG2)[0], [z.real, z.imag], atol=1e-15
        )

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        chunks = rng.standard_normal((20, 2))
        pos = np.column_stack([rng.integers(-10, 11, size=20), np.zeros(20, dtype=np.int64)])
        out = apply_rope_batch(chunks, pos, CFG2)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(chunks, axis=1), rtol=0, atol=1e-15
        )

    def test_rejects_wrong_size(self):
        with pytest.raises(ShapeError):
            apply_rope_batch([[1.0, 2.0, 3.0]], [(0, 0)], CFG2)


class TestApplyRope:
    def test_origin_is_identity(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((1, 128))
        np.testing.assert_array_equal(apply_rope_batch(v, [(0, 0)], CFG128), v)

    def test_hand_evaluated_dim4(self):
        cfg = RotaryConfig(dim=4, x_chunks=(0,), y_chunks=(1,))
        (out,) = apply_rope_batch([[1.0, 0.0, 1.0, 0.0]], [(1, 0)], cfg)
        np.testing.assert_allclose(out, [math.cos(1.0), math.sin(1.0), 1.0, 0.0], atol=1e-15)

    def test_norm_preserved_at_mixed_position(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(128)
        (out,) = apply_rope_batch([v], [(3, -2)], CFG128)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-10)

    def test_matches_complex_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(64)
        cfg = RotaryConfig(dim=64)
        (out,) = apply_rope_batch([v], [(5, -3)], cfg)
        exp = oracles.o_apply_rope(list(v), 5, -3, 64, 10000.0)
        np.testing.assert_allclose(out, exp, atol=1e-14)

    def test_temporal_chunks_never_move(self):
        cfg = RotaryConfig.flux_like(32)
        v = np.zeros(32)
        v[: 2 * len(cfg.temporal_chunks)] = np.arange(1, 2 * len(cfg.temporal_chunks) + 1)
        pos = [(0, 0), (9, -4), (100, 55)]
        np.testing.assert_array_equal(apply_rope_batch([v] * 3, pos, cfg), [v] * 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_rope_batch(np.ones((1, 12)), [(0, 0)], CFG128)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((5, 128))
        pos = rng.integers(-10, 10, size=(5, 2))
        batch = apply_rope_batch(feats, pos, CFG128)
        for i in range(5):
            exp = oracles.o_apply_rope(list(feats[i]), *pos[i].tolist(), 128, 10000.0)
            np.testing.assert_allclose(batch[i], exp, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("make", [RotaryConfig.interleaved, RotaryConfig.flux_like])
    def test_single_is_a_batch_row(self, make):
        cfg = make(64)
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((6, 64))
        pos = rng.integers(-40, 40, size=(6, 2))
        batch = apply_rope_batch(feats, pos, cfg)
        axes = (cfg.x_chunks, cfg.y_chunks, cfg.temporal_chunks)
        for i in range(6):
            exp = oracles.o_apply_rope(list(feats[i]), *pos[i].tolist(), 64, 10000.0, axes)
            np.testing.assert_allclose(batch[i], exp, rtol=0, atol=1e-13)

    def test_rotate_chunk_is_a_batch_chunk(self):
        cfg = RotaryConfig.single_axis(16)
        theta = frequencies(cfg)
        rng = np.random.default_rng(19)
        feats = rng.standard_normal((4, 16))
        pos = np.column_stack([rng.integers(-99, 99, size=4), np.zeros(4, dtype=np.int64)])
        batch = apply_rope_batch(feats, pos, cfg)
        for i in range(4):
            for d in range(cfg.n_chunks):
                a, b = feats[i, 2 * d : 2 * d + 2]
                c, s = math.cos(pos[i, 0] * theta[d]), math.sin(pos[i, 0] * theta[d])
                got = batch[i, 2 * d : 2 * d + 2]
                np.testing.assert_allclose(got, [a * c - b * s, a * s + b * c], rtol=0, atol=1e-14)


def one_shot_rotation(feats, pos, cfg):
    """Every row rotated at once, with the rotation's own expressions."""
    theta = frequencies(cfg)
    angles = np.zeros((len(feats), cfg.n_chunks))
    for column, chunks in enumerate((cfg.x_chunks, cfg.y_chunks)):
        idx = np.asarray(chunks, dtype=np.intp)
        angles[:, idx] = pos[:, column : column + 1].astype(np.float64) * theta[idx]
    c, s = np.cos(angles), np.sin(angles)
    a, b = feats[:, 0::2], feats[:, 1::2]
    out = np.empty_like(feats)
    out[:, 0::2] = a * c - b * s
    out[:, 1::2] = a * s + b * c
    return out


class TestApplyRopeOut:
    """``out=``: rotating in place, into part of a larger array, and in several blocks."""

    CFG = RotaryConfig.interleaved(16)

    def rows(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, 16)), rng.integers(-50, 50, size=(n, 2))

    def check_oracle(self, got, feats, pos):
        axes = (self.CFG.x_chunks, self.CFG.y_chunks, self.CFG.temporal_chunks)
        for row, f, p in zip(got, feats, pos.tolist()):
            exp = oracles.o_apply_rope(list(f), *p, 16, 10000.0, axes)
            np.testing.assert_allclose(row, exp, rtol=0, atol=1e-13)

    def test_in_place(self):
        feats, pos = self.rows(7, 30)
        work = feats.copy()
        assert apply_rope_batch(work, pos, self.CFG, out=work) is work
        np.testing.assert_array_equal(work, one_shot_rotation(feats, pos, self.CFG))
        self.check_oracle(work, feats, pos)

    def test_into_a_row_slice(self):
        feats, pos = self.rows(5, 31)
        stack = np.full((9, 16), 7.0)
        apply_rope_batch(feats, pos, self.CFG, out=stack[3:8])
        np.testing.assert_array_equal(stack[3:8], one_shot_rotation(feats, pos, self.CFG))
        np.testing.assert_array_equal(stack[[0, 1, 2, 8]], 7.0)
        self.check_oracle(stack[3:8], feats, pos)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_several_blocks(self, monkeypatch, in_place):
        # Three rows of angles per block: 11 rows make blocks of 3, 3, 3 and 2.
        monkeypatch.setattr(ropefreq.rope, "_ROWS_BYTES", 3 * 8 * self.CFG.n_chunks)
        feats, pos = self.rows(11, 32)
        work = feats.copy()
        got = apply_rope_batch(work, pos, self.CFG, out=work if in_place else None)
        assert (got is work) == in_place
        np.testing.assert_array_equal(got, one_shot_rotation(feats, pos, self.CFG))
        self.check_oracle(got, feats, pos)

    @pytest.mark.parametrize(
        "out", [np.empty((3, 16)), np.empty((2, 16), dtype=np.float32), np.empty((2, 32))[:, ::2]]
    )
    def test_rejects_out_of_another_shape_or_dtype(self, out):
        feats, pos = self.rows(2, 33)
        with pytest.raises(ShapeError):
            apply_rope_batch(feats, pos, self.CFG, out=out)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.integers(1, 9),
    chunks=st.integers(1, 8),
    log_scale=st.floats(-8, 8),
    in_place=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotate_pairs_keeps_the_bits_of_the_rotation_expressions(rows, chunks, log_scale, in_place, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, 2 * chunks)) * 10.0**log_scale
    angles = rng.uniform(-1e5, 1e5, (rows, chunks))
    c, s = np.cos(angles), np.sin(angles)
    a, b = values[:, 0::2], values[:, 1::2]
    expected = np.empty_like(values)
    expected[:, 0::2] = a * c - b * s
    expected[:, 1::2] = a * s + b * c
    out = values if in_place else np.empty_like(values)
    ropefreq.rope._rotate_pairs(values, angles, out)
    assert out.tobytes() == expected.tobytes()


class TestRelativeInnerProduct:
    def test_zero_delta_is_plain_dot(self):
        rng = np.random.default_rng(9)
        q, k = rng.standard_normal((2, 128))
        assert relative_inner_product(q, k, (0, 0), CFG128) == pytest.approx(float(q @ k), abs=1e-12)

    def test_two_sided_evaluation(self):
        rng = np.random.default_rng(10)
        q, k = rng.standard_normal((2, 128))
        q_m, k_n = apply_rope_batch([q, k], [(2, 5), (7, 1)], CFG128)
        assert relative_inner_product(q, k, (5, -4), CFG128) == pytest.approx(q_m @ k_n, abs=1e-10)

    def test_single_chunk_closed_form(self):
        cfg = RotaryConfig(dim=8)
        q = np.zeros(8)
        q[2], q[3] = 0.6, 0.8  # unit mass in x-chunk 1
        theta = frequencies(cfg)[1]
        for delta in (1, 3, -5):
            got = relative_inner_product(q, q, (delta, 0), cfg)
            assert got == pytest.approx(math.cos(delta * theta), abs=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            relative_inner_product(np.ones(128), np.ones(4), (0, 0), CFG128)


class TestChunkDecomposition:
    def test_identical_chunks_have_zero_alpha(self):
        rng = np.random.default_rng(11)
        q = rng.standard_normal(128)
        for term in chunk_decomposition(q, q, (0, 0), CFG128):
            assert term.alpha == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_chunk_sign_convention(self):
        cfg = RotaryConfig(dim=2, x_chunks=(0,))
        (term,) = chunk_decomposition([0.0, 1.0], [1.0, 0.0], (0, 0), cfg)
        assert term.alpha == pytest.approx(math.pi / 2)

    def test_reconstructs_inner_product(self):
        rng = np.random.default_rng(12)
        q, k = rng.standard_normal((2, 128))
        terms = chunk_decomposition(q, k, (4, -3), CFG128)
        expected = relative_inner_product(q, k, (4, -3), CFG128)
        assert reconstruct_inner_product(terms) == pytest.approx(expected, abs=1e-9)

    def test_matches_per_chunk_polar_loop(self):
        # Reference: the polar form chunk by chunk with the math module.
        rng = np.random.default_rng(13)
        q, k = rng.standard_normal((2, 128))
        q[6:8] = 0.0
        terms = chunk_decomposition(q, k, (5, -2), CFG128)
        for d, term in enumerate(terms):
            (qa, qb), (ka, kb) = q[2 * d : 2 * d + 2], k[2 * d : 2 * d + 2]
            mq, mk = math.hypot(qa, qb), math.hypot(ka, kb)
            assert term.chunk == d and term.zero_magnitude == (mq == 0.0 or mk == 0.0)
            assert term.magnitude_product == pytest.approx(mq * mk, rel=1e-15, abs=0)
            alpha = 0.0 if term.zero_magnitude else math.atan2(ka * qb - kb * qa, ka * qa + kb * qb)
            # NumPy's arctan2 may differ from math.atan2 in the last bit.
            assert term.alpha == pytest.approx(alpha, rel=0, abs=2 * np.spacing(math.pi))

    def test_zero_magnitude_chunks_flagged(self):
        q = np.zeros(8)
        q[0] = 1.0
        k = np.ones(8)
        terms = chunk_decomposition(q, k, (2, 1), RotaryConfig(dim=8))
        assert not terms[0].zero_magnitude
        assert all(t.zero_magnitude and t.alpha == 0.0 for t in terms[1:])
        assert reconstruct_inner_product(terms) == pytest.approx(
            relative_inner_product(q, k, (2, 1), RotaryConfig(dim=8)), abs=1e-12
        )


finite_vec = st.integers(0, 2**32 - 1).map(
    lambda s: np.random.default_rng(s).standard_normal(32)
)
position = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(finite_vec, position)
    def test_isometry(self, v, pos):
        cfg = RotaryConfig(dim=32)
        (out,) = apply_rope_batch([v], [pos], cfg)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(finite_vec, finite_vec, position, position)
    def test_relative_position_identity(self, q, k, m, n):
        cfg = RotaryConfig(dim=32)
        q_m, k_n = apply_rope_batch([q, k], [m, n], cfg)
        direct = float(q_m @ k_n)
        delta = (n[0] - m[0], n[1] - m[1])
        assert relative_inner_product(q, k, delta, cfg) == pytest.approx(direct, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(finite_vec, position, position)
    def test_additivity(self, v, p1, p2):
        cfg = RotaryConfig(dim=32)
        twice = apply_rope_batch(apply_rope_batch([v], [p1], cfg), [p2], cfg)
        once = apply_rope_batch([v], [(p1[0] + p2[0], p1[1] + p2[1])], cfg)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(finite_vec, finite_vec, position)
    def test_polar_identity(self, q, k, delta):
        cfg = RotaryConfig(dim=32)
        terms = chunk_decomposition(q, k, delta, cfg)
        assert reconstruct_inner_product(terms) == pytest.approx(
            relative_inner_product(q, k, delta, cfg), abs=1e-9
        )
