import io
import json
import math
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ropefreq._csvrows
import ropefreq.bands
from ropefreq import (
    Band,
    BandMaskSpec,
    BandPartition,
    ConfigurationError,
    DecayCurve,
    RotaryConfig,
    ShapeError,
    SharingParams,
    build_shared_qkv,
    decay_curve,
    decay_curve_to_csv,
    frequencies,
    make_even_partition,
    make_grid,
    make_text,
    plant_scene,
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


def _whole_csv(curve: DecayCurve) -> str:
    """The CSV of ``curve``: the header, then one ``write_rows`` call over the whole curve."""
    out = io.StringIO()
    out.write(ropefreq._csvrows.HEADER)
    ropefreq._csvrows.write_rows(curve, out)
    return out.getvalue()


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
        decay_curve_to_csv(range(5), part, cfg, out)
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
        assert _whole_csv(curve) == _per_row_csv(curve)

    def test_workload_scale_csv_equals_per_row_rendering_in_a_few_blocks(self):
        # The benchmark's decay1e5 curve: 10^5 deltas, three bands and "full".
        cfg = RotaryConfig.single_axis(128)
        part = make_even_partition(cfg, 3, "x")
        curve = decay_curve(range(100_000), part, cfg, include_full=True)
        assert _whole_csv(curve) == _per_row_csv(curve)
        # Streamed in seven chunks, the library writer's CSV is the same.
        out = io.StringIO()
        decay_curve_to_csv(range(100_000), part, cfg, out, include_full=True)
        assert out.getvalue() == _per_row_csv(curve)
        # Written to a file that keeps nothing, the renderer holds a block's
        # text and keep mask, its work arrays and one block of output. The
        # whole-block ``%`` it replaces peaked at 3.4 MB here.
        tracemalloc.start()
        try:
            ropefreq._csvrows.write_rows(curve, _Discard())
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
        assert _whole_csv(curve) == _percent_csv(curve)

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
        # Deltas follow the one integer rule of positions: integers in the
        # int64 range, from any iterable, are cast; a fraction, a string or an
        # integer past int64 raises instead of being truncated or overflowing.
        cfg = RotaryConfig.single_axis(32)
        part = make_even_partition(cfg, 2, "x")
        want = decay_curve([1, 3, 5], part, cfg)
        accepted = (
            iter([1, 3, 5]), range(1, 6, 2), [1.0, 3.0, 5.0], [1, np.uint64(3), np.int8(5)],
            np.array([1, 3, 5], dtype=object),
        )
        for deltas in accepted:
            got = decay_curve(deltas, part, cfg)
            assert got.delta_values.dtype == np.int64 and got.delta_values.tolist() == [1, 3, 5]
            for label, values in want.series.items():
                assert got.series[label].tobytes() == values.tobytes()
        rejected = (
            [0.5, 1.7], ["3"], [1.9, "3", np.int8(5)], ["one"], [math.nan], [math.inf],
            [2**63], [2**64], [-(2**63) - 1], np.array([1, 2**63], dtype=np.uint64),
        )
        for deltas in rejected:
            with pytest.raises(ConfigurationError, match="int64 range"):
                decay_curve(deltas, part, cfg)
        with pytest.raises(ShapeError):
            decay_curve([[1, 3]], part, cfg)

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


class TestStreamedCsv:
    """``decay_curve_to_csv`` writes chunks of deltas, the next computed on a worker thread."""

    CHUNK = 7
    CFG = RotaryConfig.single_axis(32)
    PART = make_even_partition(CFG, 3, "x")

    @pytest.fixture
    def seen(self, monkeypatch):
        """Each chunk's length and whether the main thread took it; the threads alive at each call."""
        monkeypatch.setattr(ropefreq.bands, "_CHUNK_DELTAS", self.CHUNK)
        real_curve, real_rows = ropefreq.bands.decay_curve, ropefreq._csvrows.write_rows
        seen = {"chunks": [], "main": [], "alive": []}

        def counted_curve(deltas, *args, **kwargs):
            seen["chunks"].append(len(deltas))
            seen["main"].append(threading.current_thread() is threading.main_thread())
            seen["alive"].append(threading.active_count())
            return real_curve(deltas, *args, **kwargs)

        def counted_rows(curve, out):
            seen["alive"].append(threading.active_count())
            return real_rows(curve, out)

        monkeypatch.setattr(ropefreq.bands, "decay_curve", counted_curve)
        monkeypatch.setattr(ropefreq._csvrows, "write_rows", counted_rows)
        return seen

    @pytest.mark.parametrize("include_full", [False, True], ids=["bands", "full"])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_streamed_csv_is_the_whole_curve(self, seen, n, include_full):
        threads = threading.active_count()
        out = io.StringIO()
        decay_curve_to_csv(range(n), self.PART, self.CFG, out, include_full=include_full)
        chunks = [min(self.CHUNK, n - lo) for lo in range(0, n, self.CHUNK)]
        assert seen["chunks"] == chunks
        # The first chunk is taken in the calling thread, every later one in
        # a worker, and no more than one worker is ever alive.
        assert seen["main"] == [True] + [False] * (len(chunks) - 1)
        assert max(seen["alive"]) <= threads + 1
        assert threading.active_count() == threads
        curve = decay_curve(range(n), self.PART, self.CFG, include_full=include_full)
        assert out.getvalue() == _whole_csv(curve)

    @pytest.mark.parametrize(
        "deltas", [list(range(-9, 20)), np.arange(-9, 20)], ids=["list", "array"]
    )
    def test_deltas_are_any_sequence(self, seen, deltas):
        out = io.StringIO()
        decay_curve_to_csv(deltas, self.PART, self.CFG, out)
        assert seen["chunks"] == [7, 7, 7, 7, 1]
        assert out.getvalue() == _whole_csv(decay_curve(deltas, self.PART, self.CFG))

    @pytest.mark.parametrize("failing_call", [1, 2, 3], ids=["caller", "worker", "later-worker"])
    @pytest.mark.parametrize("error", [ConfigurationError, OSError], ids=["config", "io"])
    def test_chunk_error_is_raised_in_the_caller(self, monkeypatch, seen, error, failing_call):
        threads = threading.active_count()
        counted = ropefreq.bands.decay_curve

        def fails(*args, **kwargs):
            result = counted(*args, **kwargs)
            if len(seen["chunks"]) == failing_call:
                raise error("chunk fails")
            return result

        monkeypatch.setattr(ropefreq.bands, "decay_curve", fails)
        with pytest.raises(error, match="chunk fails") as raised:
            decay_curve_to_csv(range(4 * self.CHUNK), self.PART, self.CFG, io.StringIO())
        assert type(raised.value) is error
        assert seen["main"] == [True] + [False] * (failing_call - 1)
        assert threading.active_count() == threads


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
    with mock.patch.object(ropefreq.bands, "_block_deltas", lambda delta_bytes: block_deltas):
        assert _whole_csv(curve) == _percent_csv(curve)


MASK_CFG = RotaryConfig(dim=16)
# The reference rows of a mask scene's keys follow its 9 image and 2 text rows.
MASK_REF = slice(11, None)


def mask_scene(seed=0, dim=16):
    scene = plant_scene(make_grid(3, 3, dim, seed=seed), kind="shuffle", noise_level=0.3, seed=seed + 1)
    return scene, make_text(2, dim, seed=seed + 2)


def masked_keys(spec, seed=0):
    """``(masked, plain)``: the keys ``build_shared_qkv`` stacks with and without ``spec``."""
    scene, text = mask_scene(seed)
    return tuple(
        build_shared_qkv(
            scene.target, text, scene.reference,
            SharingParams(mode="plain", s=1.0, band_mask_override=mask), MASK_CFG,
        ).k
        for mask in (spec, None)
    )


def assert_masked_columns(spec, factor, seed=0):
    """Only the band's columns of the reference rows differ, each times ``factor``."""
    masked, plain = masked_keys(spec, seed)
    expected = plain.copy()
    expected[MASK_REF, 2 * spec.band.start : 2 * spec.band.stop] *= factor
    np.testing.assert_array_equal(masked, expected)


class TestBandMask:
    """A ``BandMaskSpec`` on the reference keys ``build_shared_qkv`` assembles."""

    def test_scale_one_is_identity(self):
        spec = BandMaskSpec(Band("b", 0, 4), "scale", 1.0)
        assert spec.factor(MASK_CFG) == 1.0
        masked, plain = masked_keys(spec)
        np.testing.assert_array_equal(masked, plain)

    def test_zero_everything(self):
        spec = BandMaskSpec(Band("b", 0, MASK_CFG.n_chunks), "zero")
        assert spec.factor(MASK_CFG) == 0.0
        masked, plain = masked_keys(spec)
        np.testing.assert_array_equal(masked[MASK_REF], 0.0)
        np.testing.assert_array_equal(masked[: MASK_REF.start], plain[: MASK_REF.start])

    def test_half_scale_on_leading_band(self):
        spec = BandMaskSpec(Band("b", 0, 2), "scale", 0.5)
        assert spec.factor(MASK_CFG) == 0.5
        assert_masked_columns(spec, 0.5)

    def test_input_not_mutated(self):
        scene, text = mask_scene()
        before = [t.features.copy() for t in (scene.target, text, scene.reference)]
        params = SharingParams(mode="plain", band_mask_override=BandMaskSpec(Band("b", 0, 4), "zero"))
        build_shared_qkv(scene.target, text, scene.reference, params, MASK_CFG)
        for b, t in zip(before, (scene.target, text, scene.reference)):
            np.testing.assert_array_equal(t.features, b)

    def test_matrix_input(self):
        # Zero mode zeroes exactly columns 2*start:2*stop of every reference row.
        spec = BandMaskSpec(Band("b", 1, 2), "zero")
        assert_masked_columns(spec, 0.0)
        ref = masked_keys(spec)[0][MASK_REF]
        assert not ref[:, 2:4].any() and ref[:, :2].all() and ref[:, 4:].all()

    def test_shape_error(self):
        # The mask applies to keys of the config's width only.
        scene, text = mask_scene(dim=8)
        params = SharingParams(mode="plain", band_mask_override=BandMaskSpec(Band("b", 0, 2), "zero"))
        with pytest.raises(ShapeError):
            build_shared_qkv(scene.target, text, scene.reference, params, MASK_CFG)

    def test_mode_validation(self):
        # A mask is checked when built: an unknown mode, a "scale" mask without a
        # finite scale. Whether its band fits is a question for each config.
        for mode, scale in (("clip", None), ("bogus", 1.0), ("scale", None), ("scale", math.nan),
                            ("scale", math.inf), ("scale", -math.inf)):
            with pytest.raises(ConfigurationError):
                BandMaskSpec(Band("b", 0, 2), mode, scale)
        spec = BandMaskSpec(Band("b", 0, MASK_CFG.n_chunks + 1), "zero")
        with pytest.raises(ConfigurationError):
            spec.factor(MASK_CFG)
        with pytest.raises(ConfigurationError):
            masked_keys(spec)

    def test_sharing_params_cannot_hold_an_invalid_mask(self):
        # Held, either would first fail in build_shared_qkv, a NaN scale only
        # as a softmax that is not finite.
        with pytest.raises(ConfigurationError, match="'zero' or 'scale'"):
            SharingParams(mode="plain", band_mask_override=BandMaskSpec(Band("b", 0, 4), "bogus"))
        with pytest.raises(ConfigurationError, match="finite"):
            SharingParams(mode="plain", band_mask_override=BandMaskSpec(Band("b", 0, 4), "scale", math.nan))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 999), st.floats(-4, 4, allow_nan=False))
    def test_scaling_is_linear(self, seed, a):
        spec = BandMaskSpec(Band("b", 2, 6), "scale", a)
        assert spec.factor(MASK_CFG) == a
        assert_masked_columns(spec, a, seed)


def test_decay_curve_rejects_partition_past_last_chunk():
    cfg = RotaryConfig(dim=16)
    part = BandPartition((Band("too-far", 0, 12),))
    with pytest.raises(ConfigurationError):
        decay_curve([0, 1], part, cfg)
