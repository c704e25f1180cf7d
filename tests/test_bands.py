import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ropefreq.bands
from ropefreq import (
    Band,
    BandPartition,
    ConfigurationError,
    RotaryConfig,
    ShapeError,
    band_mask,
    decay_curve,
    decay_curve_to_csv,
    frequencies,
    make_even_partition,
    mean_band_similarity,
)

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "decay_fixture.json").read_text())


class TestMakeEvenPartition:
    def test_even_split(self):
        cfg = RotaryConfig(dim=12, x_chunks=tuple(range(6)), y_chunks=())
        part = make_even_partition(cfg, 3, "x")
        assert [(b.start, b.stop) for b in part.bands] == [(0, 2), (2, 4), (4, 6)]
        assert part.labels == ("high", "mid", "low")

    def test_remainder_goes_to_high_frequencies(self):
        cfg = RotaryConfig(dim=14, x_chunks=tuple(range(7)), y_chunks=())
        part = make_even_partition(cfg, 3, "x")
        assert [b.size for b in part.bands] == [3, 2, 2]
        assert part.bands[0].start == 0

    def test_single_band_covers_axis(self):
        part = make_even_partition(RotaryConfig(dim=16), 1, "x")
        assert part.labels == ("full",)
        assert (part.bands[0].start, part.bands[0].stop) == (0, 4)

    def test_all_axis_matches_cli_band_listing(self):
        part = make_even_partition(RotaryConfig(dim=128), 3, "all")
        assert [(b.start, b.stop) for b in part.bands] == [(0, 22), (22, 43), (43, 64)]

    @pytest.mark.parametrize("n", [0, 9])
    def test_rejects_bad_band_count(self, n):
        cfg = RotaryConfig(dim=16)  # 4 chunks per axis
        with pytest.raises(ConfigurationError):
            make_even_partition(cfg, n, "x")

    def test_rejects_noncontiguous_axis(self):
        cfg = RotaryConfig.interleaved(16)
        with pytest.raises(ConfigurationError):
            make_even_partition(cfg, 2, "x")

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            BandPartition((Band("a", 0, 4), Band("b", 2, 6)))
        with pytest.raises(ConfigurationError):
            BandPartition((Band("a", 0, 4), Band("a", 4, 6)))
        with pytest.raises(ConfigurationError):
            Band("empty", 3, 3)


class TestMeanBandSimilarity:
    def test_zero_delta_is_one(self):
        cfg = RotaryConfig(dim=128)
        for band in make_even_partition(cfg, 3, "all").bands:
            assert mean_band_similarity(0, band, cfg) == 1.0

    def test_single_chunk_band(self):
        cfg = RotaryConfig(dim=128)
        theta = frequencies(cfg)
        band = Band("one", 17, 18)
        for delta in (1, 5, 40):
            assert mean_band_similarity(delta, band, cfg) == pytest.approx(
                math.cos(delta * theta[17]), abs=1e-15
            )

    def test_high_third_matches_term_by_term_oracle(self):
        cfg = RotaryConfig(dim=128)
        stop = 64 // 3
        band = Band("high", 0, stop)
        got = mean_band_similarity(8, band, cfg)
        assert got == pytest.approx(oracles.o_band_mean(8, 0, stop, 128, 10000.0), abs=1e-12)


class TestDecayCurve:
    def test_delta_zero_all_ones(self):
        cfg = RotaryConfig(dim=128)
        part = make_even_partition(cfg, 3, "all")
        curve = decay_curve([0], part, cfg)
        assert all(v == (1.0,) for v in curve.series.values())

    def test_band_order_at_delta_one(self):
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve([1], part, cfg)
        assert curve.series["high"][0] < curve.series["mid"][0] < curve.series["low"][0]

    def test_full_series_is_size_weighted_mean(self):
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(range(0, 20), part, cfg, include_full=True)
        sizes = np.array([b.size for b in part.bands])
        stacked = np.array([curve.series[lab] for lab in part.labels])
        weighted = (sizes[:, None] * stacked).sum(axis=0) / sizes.sum()
        np.testing.assert_allclose(curve.series["full"], weighted, atol=1e-15)

    # Deltas per block of the 64-chunk "full" series; None keeps the shipped
    # budget, which the 5,000 deltas below still overrun.
    @pytest.mark.parametrize("block_deltas", [1, 7, None])
    def test_blocks_equal_per_delta_means_bit_for_bit(self, monkeypatch, block_deltas):
        if block_deltas is not None:
            monkeypatch.setattr(ropefreq.bands, "_BLOCK_BYTES", 8 * 64 * block_deltas)
            deltas = list(range(-150, 151, 3)) + [99_999, -12_345]
        else:
            deltas = list(range(-2_500, 2_500))
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        theta = frequencies(cfg)
        curve = decay_curve(deltas, part, cfg, include_full=True)
        columns = {b.label: theta[b.start : b.stop] for b in part.bands}
        columns["full"] = theta[part.chunk_indices()]
        assert list(curve.series) == ["high", "mid", "low", "full"]
        for label, t in columns.items():
            assert curve.series[label] == tuple(float(np.mean(np.cos(d * t))) for d in deltas)

    def test_single_band_similarity_is_a_one_point_curve(self):
        cfg = RotaryConfig(dim=128)
        for band in make_even_partition(cfg, 3, "all").bands:
            for delta in (-7, 0, 3, 10**5):
                curve = decay_curve([delta], BandPartition((band,)), cfg)
                assert mean_band_similarity(delta, band, cfg) == curve.series[band.label][0]

    def test_matches_frozen_oracle_table(self):
        cfg = RotaryConfig.single_axis(FIXTURE["dim"], FIXTURE["rope_base"])
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(range(FIXTURE["delta_max"] + 1), part, cfg)
        for label in ("high", "mid", "low"):
            np.testing.assert_allclose(
                curve.series[label], FIXTURE["series"][label], atol=1e-12
            )

    def test_band_ordering_and_thresholds(self):
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(range(0, 33), part, cfg)
        for i, delta in enumerate(curve.delta_values):
            if delta == 0:
                continue
            assert curve.series["high"][i] <= curve.series["mid"][i] <= curve.series["low"][i]
        assert curve.series["low"][1] >= 0.99
        assert curve.series["high"][8] <= 0.5
        assert curve.series["low"][1] == pytest.approx(
            FIXTURE["thresholds"]["low_at_delta_1"], abs=1e-12
        )
        assert curve.series["high"][8] == pytest.approx(
            FIXTURE["thresholds"]["high_at_delta_8"], abs=1e-12
        )

    def test_empty_delta_range_rejected(self):
        cfg = RotaryConfig(dim=16)
        with pytest.raises(ConfigurationError):
            decay_curve([], make_even_partition(cfg, 2, "x"), cfg)

    def test_csv_round_trips_exact_doubles(self):
        cfg = RotaryConfig.single_axis(32)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(range(5), part, cfg)
        text = decay_curve_to_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "delta,band,mean_similarity"
        parsed = {}
        for line in lines[1:]:
            d, band, value = line.split(",")
            parsed.setdefault(band, []).append((int(d), float(value)))
        for label in part.labels:
            for d, value in parsed[label]:
                assert value == curve.series[label][d]


class TestBandMask:
    def test_scale_one_is_identity(self):
        cfg = RotaryConfig(dim=8)
        v = np.arange(8.0)
        np.testing.assert_array_equal(band_mask(v, Band("b", 0, 4), "scale", cfg, scale=1.0), v)

    def test_zero_everything(self):
        cfg = RotaryConfig(dim=8)
        out = band_mask(np.arange(8.0), Band("b", 0, 4), "zero", cfg)
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_half_scale_on_leading_band(self):
        cfg = RotaryConfig(dim=8)
        v = np.ones(8)
        out = band_mask(v, Band("b", 0, 2), "scale", cfg, scale=0.5)
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0])

    def test_input_not_mutated(self):
        cfg = RotaryConfig(dim=8)
        v = np.ones(8)
        band_mask(v, Band("b", 0, 4), "zero", cfg)
        np.testing.assert_array_equal(v, np.ones(8))

    def test_matrix_input(self):
        cfg = RotaryConfig(dim=8)
        m = np.ones((3, 8))
        out = band_mask(m, Band("b", 1, 2), "zero", cfg)
        assert out[:, 2:4].sum() == 0 and out.sum() == 3 * 6

    def test_shape_error(self):
        cfg = RotaryConfig(dim=8)
        with pytest.raises(ShapeError):
            band_mask(np.ones(6), Band("b", 0, 2), "zero", cfg)

    def test_mode_validation(self):
        cfg = RotaryConfig(dim=8)
        with pytest.raises(ConfigurationError):
            band_mask(np.ones(8), Band("b", 0, 2), "clip", cfg)
        with pytest.raises(ConfigurationError):
            band_mask(np.ones(8), Band("b", 0, 2), "scale", cfg)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-4, 4, allow_nan=False))
    def test_scaling_is_linear(self, seed, a):
        cfg = RotaryConfig(dim=16)
        v = np.random.default_rng(seed).standard_normal(16)
        band = Band("b", 2, 6)
        lhs = band_mask(a * v, band, "scale", cfg, scale=0.7)
        rhs = a * band_mask(v, band, "scale", cfg, scale=0.7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        a = decay_curve([0, 1], part, cfg).config_fingerprint
        b = decay_curve([0, 1, 2], part, cfg).config_fingerprint
        assert a == b  # fingerprint covers config and bands, not deltas

    def test_config_changes_fingerprint(self):
        part128 = make_even_partition(RotaryConfig.single_axis(128), 3, "x")
        part64 = make_even_partition(RotaryConfig.single_axis(64), 3, "x")
        a = decay_curve([0], part128, RotaryConfig.single_axis(128)).config_fingerprint
        b = decay_curve([0], part64, RotaryConfig.single_axis(64)).config_fingerprint
        c = decay_curve([0], part128, RotaryConfig.single_axis(128, 500.0)).config_fingerprint
        assert a != b and a != c


def test_decay_curve_rejects_partition_past_last_chunk():
    cfg = RotaryConfig(dim=16)
    part = BandPartition((Band("too-far", 0, 12),))
    with pytest.raises(ConfigurationError):
        decay_curve([0, 1], part, cfg)
