import io
import json
import math
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

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
    DecayCurve,
    RotaryConfig,
    ShapeError,
    band_mask,
    decay_curve,
    decay_curve_to_csv,
    frequencies,
    make_even_partition,
)

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "decay_fixture.json").read_text())


def _per_row_csv(curve: DecayCurve) -> str:
    """The CSV of ``curve`` rendered one row at a time with ``format(value, '.17g')``."""
    lines = ["delta,band,mean_similarity"]
    for i, delta in enumerate(curve.delta_values.tolist()):
        for label, values in curve.series.items():
            lines.append(f"{delta},{label},{format(float(values[i]), '.17g')}")
    return "\n".join(lines) + "\n"


def _percent_csv(curve: DecayCurve) -> str:
    """The CSV of ``curve`` rendered one row at a time with ``"%d,%s,%.17g\\n"``."""
    rows = [
        "%d,%s,%.17g\n" % (delta, label, float(values[i]))
        for i, delta in enumerate(curve.delta_values.tolist())
        for label, values in curve.series.items()
    ]
    return "delta,band,mean_similarity\n" + "".join(rows)


class _Discard:
    """A text file that keeps nothing written to it."""

    def write(self, text: str) -> None:
        pass


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
            assert decay_curve([0], BandPartition((band,)), cfg).series[band.label][0] == 1.0

    def test_single_chunk_band(self):
        cfg = RotaryConfig(dim=128)
        theta = frequencies(cfg)
        curve = decay_curve([1, 5, 40], BandPartition((Band("one", 17, 18),)), cfg)
        np.testing.assert_allclose(
            curve.series["one"], np.cos(curve.delta_values * theta[17]), rtol=0, atol=1e-15
        )

    def test_high_third_matches_term_by_term_oracle(self):
        cfg = RotaryConfig(dim=128)
        stop = 64 // 3
        got = decay_curve([8], BandPartition((Band("high", 0, stop),)), cfg).series["high"][0]
        assert got == pytest.approx(oracles.o_band_mean(8, 0, stop, 128, 10000.0), abs=1e-12)


class TestDecayCurve:
    def test_delta_zero_all_ones(self):
        cfg = RotaryConfig(dim=128)
        part = make_even_partition(cfg, 3, "all")
        curve = decay_curve([0], part, cfg)
        assert all(np.array_equal(v, [1.0]) for v in curve.series.values())

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
            expected = [float(np.mean(np.cos(d * t))) for d in deltas]
            assert curve.series[label].dtype == np.float64
            assert np.array_equal(curve.series[label], expected)

    def test_single_band_similarity_is_a_one_point_curve(self):
        # A band's one-point curve is its point in the whole partition's curve.
        cfg = RotaryConfig(dim=128)
        part = make_even_partition(cfg, 3, "all")
        deltas = [-7, 0, 3, 10**5]
        curve = decay_curve(deltas, part, cfg)
        for band in part.bands:
            for i, delta in enumerate(deltas):
                point = decay_curve([delta], BandPartition((band,)), cfg).series[band.label][0]
                assert point == curve.series[band.label][i]
                expected = oracles.o_band_mean(delta, band.start, band.stop, 128, 10000.0)
                assert point == pytest.approx(expected, abs=1e-9)

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
        out = io.StringIO()
        decay_curve_to_csv(curve, out)
        text = out.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "delta,band,mean_similarity"
        parsed = {}
        for line in lines[1:]:
            d, band, value = line.split(",")
            parsed.setdefault(band, []).append((int(d), float(value)))
        for label in part.labels:
            for d, value in parsed[label]:
                assert value == curve.series[label][d]

    @pytest.mark.parametrize("block_deltas", [1, 7])
    def test_blocked_csv_equals_per_row_rendering(self, monkeypatch, block_deltas):
        # Each CSV block holds ``block_deltas`` deltas; the 51 deltas leave
        # the last block of 7 short.
        cfg = RotaryConfig.single_axis(32)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(list(range(-20, 30)) + [99_999], part, cfg, include_full=True)
        monkeypatch.setattr(ropefreq.bands, "_block_deltas", lambda delta_bytes: block_deltas)
        out = io.StringIO()
        decay_curve_to_csv(curve, out)
        assert out.getvalue() == _per_row_csv(curve)

    def test_workload_scale_csv_equals_per_row_rendering_in_a_few_blocks(self):
        # The benchmark's decay1e5 curve: 10^5 deltas, three bands and "full".
        cfg = RotaryConfig.single_axis(128)
        curve = decay_curve(range(100_000), make_even_partition(cfg, 3, "x"), cfg, include_full=True)
        out = io.StringIO()
        decay_curve_to_csv(curve, out)
        assert out.getvalue() == _per_row_csv(curve)
        # Written to a file that keeps nothing, the renderer holds a block's
        # text and keep mask, its work arrays and one block of output. The
        # whole-block ``%`` it replaces peaked at 3.4 MB here.
        tracemalloc.start()
        try:
            decay_curve_to_csv(curve, _Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * ropefreq.bands._BLOCK_BYTES

    @pytest.mark.parametrize("block_deltas", [1, 7, None])
    def test_csv_edge_values_are_percent_rendering(self, monkeypatch, block_deltas):
        if block_deltas is not None:
            monkeypatch.setattr(ropefreq.bands, "_block_deltas", lambda delta_bytes: block_deltas)
        powers = [10.0**-k for k in range(6)]
        # Exact ties m * 2**-k: odd m of up to 53 bits near 2**-1, 2**-4,
        # 2**-7 and 2**-10, one in each decade of the laid-out window.
        ties = [
            math.ldexp(2 ** min(k - top, 52) + odd, -k)
            for k in range(18, 61)
            for top in (1, 4, 7, 10)
            for odd in (1, 3)
        ]
        values = [
            0.0,
            1.0,
            1.0 + 1e-12,
            *powers,
            # The neighbours of each power of ten; the one below 0.1 is where
            # a rounding would carry into the next decade.
            *(np.nextafter(p, toward) for p in powers for toward in (0.0, 2.0)),
            *ties,
            # The smallest subnormal, the largest and one between.
            5e-324,
            np.nextafter(2.2250738585072014e-308, 0.0),
            1e-310,
        ]
        values = np.array(values + [-v for v in values])
        halfway = [
            v for v in ties if len(t := Decimal(v).as_tuple().digits) == 18 and t[-1] == 5
        ]
        assert len(halfway) == 8
        deltas = np.arange(len(values))
        deltas[:6] = [-(2**63), 2**63 - 1, 10**8 - 1, 10**8, -1, 0]
        curve = DecayCurve(deltas, {"high": values, "full": values[::-1].copy()})
        out = io.StringIO()
        decay_curve_to_csv(curve, out)
        assert out.getvalue() == _percent_csv(curve)

    @pytest.mark.parametrize("deltas", [np.arange(3), np.arange(0)])
    def test_curve_without_series_is_its_header(self, deltas):
        # A curve with no series has no rows, as the per-row rendering writes.
        curve = DecayCurve(deltas, {})
        out = io.StringIO()
        decay_curve_to_csv(curve, out)
        assert out.getvalue() == _percent_csv(curve) == "delta,band,mean_similarity\n"

    def test_curve_holds_arrays_and_rejects_values_outside_unit_range(self):
        cfg = RotaryConfig.single_axis(32)
        curve = decay_curve(range(3), make_even_partition(cfg, 2, "x"), cfg)
        assert curve.delta_values.dtype == np.int64
        assert all(v.dtype == np.float64 for v in curve.series.values())
        deltas = np.arange(3, dtype=np.int64)
        for bad in (1.0 + 1e-9, -1.0 - 1e-9, np.nan):
            with pytest.raises(ConfigurationError, match="leaves"):
                DecayCurve(deltas, {"b": np.array([0.0, bad, 1.0])})
        with pytest.raises(ShapeError):
            DecayCurve(deltas, {"b": np.zeros(2)})

    def test_deltas_are_read_with_int(self):
        cfg = RotaryConfig.single_axis(32)
        part = make_even_partition(cfg, 2, "x")
        want = decay_curve([1, 3, 5], part, cfg)
        for deltas in (iter([1, 3, 5]), [1.9, "3", np.int8(5)], np.array([1, 3, 5])):
            got = decay_curve(deltas, part, cfg)
            assert got.delta_values.tolist() == [1, 3, 5]
            for label, values in want.series.items():
                assert got.series[label].tobytes() == values.tobytes()
        with pytest.raises(ValueError):
            decay_curve(["one"], part, cfg)
        with pytest.raises(OverflowError):
            decay_curve([2**63], part, cfg)

    def test_curve_peak_is_its_arrays_and_a_few_blocks(self):
        # The deltas go straight into their int64 array and the cosines are
        # taken from it a block at a time, so the traced peak is the curve's
        # arrays and a few blocks. A Python list of the deltas, an f64 copy
        # of them or an |series| temporary would each add 8 bytes or more a
        # delta, 800 KB here.
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        tracemalloc.start()
        try:
            curve = decay_curve(range(100_000), part, cfg, include_full=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = curve.delta_values.nbytes + sum(v.nbytes for v in curve.series.values())
        assert peak < arrays + 4 * ropefreq.bands._BLOCK_BYTES


_UNIT = 1.0 + 1e-12  # DecayCurve's bound on a series value


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1), st.floats(-_UNIT, _UNIT), st.floats(-_UNIT, _UNIT)
        ),
        min_size=1,
        max_size=40,
    ),
    block_deltas=st.integers(1, 8),
)
def test_csv_rows_are_percent_rendering(rows, block_deltas):
    deltas, high, full = zip(*rows)
    curve = DecayCurve(np.array(deltas, dtype=np.int64), {"high": np.array(high), "full": np.array(full)})
    out = io.StringIO()
    with mock.patch.object(ropefreq.bands, "_block_deltas", lambda delta_bytes: block_deltas):
        decay_curve_to_csv(curve, out)
    assert out.getvalue() == _percent_csv(curve)


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


def test_decay_curve_rejects_partition_past_last_chunk():
    cfg = RotaryConfig(dim=16)
    part = BandPartition((Band("too-far", 0, 12),))
    with pytest.raises(ConfigurationError):
        decay_curve([0, 1], part, cfg)
