import io
import json
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import ropefreq._csvrows
from ropefreq import bands, cli
from ropefreq.bands import decay_curve, make_even_partition
from ropefreq.cli import ExperimentConfig, build_rotary, main
from ropefreq.errors import ConfigurationError
from ropefreq.rope import RotaryConfig

FIXTURES = Path(__file__).parent / "fixtures"
SHIPPED_DEMO = Path(__file__).parent.parent / "configs" / "copying_demo.json"
DEMO = json.loads((FIXTURES / "copying_demo_fixture.json").read_text())


SCENE = {
    "kind": DEMO["kind"],
    "noise_level": DEMO["noise_level"],
    "seed": DEMO["scene_seed"],
    "style_strength": DEMO["style_strength"],
}


def demo_config(tmp_path, sharing, **overrides):
    cfg = {
        "rotary": {"dim": DEMO["dim"], "rope_base": 10000.0, "partition": DEMO["partition"]},
        "grid": {"width": DEMO["grid"], "height": DEMO["grid"]},
        "scene": dict(SCENE),
        "text_tokens": DEMO["text_tokens"],
        "heads": 1,
        "sharing": sharing,
        "seed": DEMO["seed"],
        "output": {"report": str(tmp_path / "report.json")},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["output"]["report"]) if cfg.get("output") else None


PLAIN = {"mode": "plain", "s": 1.0}
RAMP2 = {"s_hf_start": 0.2, "s_hf_end": 0.6, "s_lf_start": 1.0, "s_lf_end": 1.4, "total_steps": 2}


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestDecayCurve:
    def test_defaults_match_term_by_term_oracle(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["decay-curve", "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header == ["delta", "band", "mean_similarity"]
        ranges = {"high": (0, 22), "mid": (22, 43), "low": (43, 64)}
        assert len(rows) == 65 * 3
        for delta_s, band, value in rows:
            lo, hi = ranges[band]
            expected = oracles.o_band_mean(int(delta_s), lo, hi, 128, 10000.0)
            assert abs(float(value) - expected) < 1e-12

    def test_delta_max_zero_gives_all_ones(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["decay-curve", "--delta-max", "0", "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(float(v) == 1.0 for _, _, v in rows)

    def test_single_band_behaves_as_full(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["decay-curve", "--bands", "1", "--delta-max", "4", "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out)
        assert {band for _, band, _ in rows} == {"full"}
        assert len(rows) == 5

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["decay-curve", "--out", str(a), "--quiet"])
        main(["decay-curve", "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_out_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decay-curve"])
        assert exc.value.code == 2

    def test_invalid_flag_value_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["decay-curve", "--delta-max", "many", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_validation_error_exits_3_and_writes_nothing(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["decay-curve", "--dim", "7", "--out", str(out), "--quiet"]) == 3
        assert not out.exists()

    def test_negative_delta_max_rejected(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["decay-curve", "--delta-max", "-3", "--out", str(out), "--quiet"]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--include-full"]])
    def test_delta_max_past_the_curve_budget_rejected(self, tmp_path, monkeypatch, flags):
        # The stub stands in for the curve and builds one delta, so no run
        # here allocates a long curve, whether or not the bound stops it.
        built = []
        real = bands.decay_curve

        def one_delta(deltas, *args, **kwargs):
            built.append(len(deltas))
            return real(range(1), *args, **kwargs)

        monkeypatch.setattr(bands, "decay_curve", one_delta)

        def run(delta_max, name):
            argv = ["decay-curve", "--delta-max", str(delta_max), "--out", str(tmp_path / name)]
            return main(argv + flags + ["--quiet"])

        assert run(10**12, "huge.csv") == 3
        largest = cli._CURVE_BYTES // (8 * (1 + 3 + len(flags))) - 1
        assert run(largest + 1, "over.csv") == 3
        assert built == [] and not any(tmp_path.iterdir())
        assert run(largest, "edge.csv") == 0
        assert sum(built) == largest + 1 and max(built) == bands._CHUNK_DELTAS


class TestDecayCurveChunks:
    """The CLI streams the curve in chunks, the next computed on a worker thread."""

    CHUNK = 7

    @pytest.fixture
    def calls(self, monkeypatch):
        """The length of each ``decay_curve`` chunk, and the threads alive during it."""
        monkeypatch.setattr(bands, "_CHUNK_DELTAS", self.CHUNK)
        real, calls = bands.decay_curve, []

        def counted(deltas, *args, **kwargs):
            calls.append((len(deltas), threading.active_count()))
            return real(deltas, *args, **kwargs)

        monkeypatch.setattr(bands, "decay_curve", counted)
        return calls

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize(
        "flags",
        [["--include-full"], ["--axis", "y"], ["--bands", "1"], ["--bands", "5"]],
        ids=["include-full", "axis-y", "bands-1", "bands-5"],
    )
    def test_chunked_csv_is_the_whole_curve(self, tmp_path, calls, n, flags):
        threads = threading.active_count()
        out = tmp_path / "c.csv"
        argv = ["decay-curve", "--delta-max", str(n - 1), "--out", str(out), "--quiet"]
        assert main(argv + flags) == 0
        axis = "y" if "y" in flags else "x"
        n_bands = int(flags[1]) if flags[0] == "--bands" else 3
        config = RotaryConfig.single_axis(128, 10000.0, axis)
        partition = make_even_partition(config, n_bands, axis)
        whole = io.StringIO()
        curve = decay_curve(range(n), partition, config, include_full="--include-full" in flags)
        whole.write(ropefreq._csvrows.HEADER)
        ropefreq._csvrows.write_rows(curve, whole)
        assert out.read_bytes() == whole.getvalue().encode()
        # Every chunk went through decay_curve, with at most one worker alive.
        assert [length for length, _ in calls] == [
            min(self.CHUNK, n - lo) for lo in range(0, n, self.CHUNK)
        ]
        assert max(alive for _, alive in calls) <= threads + 1
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "error, code", [(ConfigurationError, 3), (OSError, 4)], ids=["config", "io"]
    )
    def test_failing_chunk_exits_as_a_serial_failure(self, tmp_path, monkeypatch, error, code):
        threads = threading.active_count()
        monkeypatch.setattr(bands, "_CHUNK_DELTAS", self.CHUNK)
        out = tmp_path / "c.csv"
        out.write_bytes(b"old bytes\n")
        real = bands.decay_curve

        def run(failing_call):
            calls = []

            def fails(*args, **kwargs):
                calls.append(threading.current_thread() is threading.main_thread())
                if len(calls) == failing_call:
                    raise error("chunk fails")
                return real(*args, **kwargs)

            monkeypatch.setattr(bands, "decay_curve", fails)
            argv = ["decay-curve", "--delta-max", str(4 * self.CHUNK), "--out", str(out)]
            return main(argv + ["--quiet"]), calls

        # The first chunk is taken in the main thread, the second in a worker.
        assert run(1) == (code, [True])
        assert run(2) == (code, [True, False])
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == [out]
        assert threading.active_count() == threads

    def test_failed_write_waits_for_the_worker(self, tmp_path, monkeypatch, calls):
        threads = threading.active_count()
        out = tmp_path / "c.csv"
        events = []
        counted, rmtree = bands.decay_curve, cli.shutil.rmtree

        def slow_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
                events.append("computed")
            return counted(*args, **kwargs)

        def failing_write(curve, out):
            raise OSError("disk full")

        def discard(path, *args, **kwargs):
            events.append("discarded")
            return rmtree(path, *args, **kwargs)

        monkeypatch.setattr(bands, "decay_curve", slow_worker)
        monkeypatch.setattr(ropefreq._csvrows, "write_rows", failing_write)
        monkeypatch.setattr(cli.shutil, "rmtree", discard)
        assert main(["decay-curve", "--delta-max", "20", "--out", str(out), "--quiet"]) == 4
        # The second chunk's worker ended before the staged file was discarded.
        assert events == ["computed", "discarded"]
        assert len(calls) == 2 and not any(tmp_path.iterdir())
        assert threading.active_count() == threads

    def test_missing_directory_fails_before_any_chunk(self, tmp_path, monkeypatch):
        # The stub builds one delta, so a run that computes first stays short.
        real, calls = bands.decay_curve, []

        def one_delta(deltas, *args, **kwargs):
            calls.append(len(deltas))
            return real(range(1), *args, **kwargs)

        monkeypatch.setattr(bands, "decay_curve", one_delta)
        out = tmp_path / "missing" / "c.csv"
        argv = ["decay-curve", "--delta-max", "3000000", "--out", str(out), "--quiet"]
        assert main(argv) == 4
        assert calls == [] and not any(tmp_path.iterdir())

    def test_peak_is_below_the_whole_curve(self, tmp_path):
        # tracemalloc traces every thread. 10**5 deltas hold 4 MB of curve
        # arrays (an int64 delta and four f64 series each); streamed, at most
        # two chunks and a few blocks are held.
        argv = ["decay-curve", "--delta-max", "99999", "--include-full"]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "c.csv"), "--quiet"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000 * 5 * 8


class TestMissingOutputDirectory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decay-curve", "--delta-max", "3", "--out"],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0", "--out"],
            ["bands", "--out"],
            ["shared-attn", "CONFIG", "--out"],
            ["shared-attn", "CONFIG", "--emit-config"],
        ],
        ids=["decay-curve", "schedule", "bands", "shared-attn", "emit-config"],
    )
    def test_error_names_the_requested_path(self, tmp_path, capsys, argv):
        cfg_path, _ = demo_config(tmp_path, PLAIN)
        out = tmp_path / "missing" / "out.txt"
        argv = [str(cfg_path) if a == "CONFIG" else a for a in argv]
        assert main(argv + [str(out), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ") and err.endswith(f": {str(out)!r}\n")
        assert ".ropefreq-" not in err
        assert sorted(tmp_path.iterdir()) == [cfg_path]


class TestDirectoryTarget:
    """An output target that is an existing directory fails before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decay-curve", "--delta-max", "3", "--out"],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0", "--out"],
            ["bands", "--out"],
            ["shared-attn", "CONFIG", "--out"],
            ["shared-attn", "CONFIG", "--emit-config"],
        ],
        ids=["decay-curve", "schedule", "bands", "shared-attn", "emit-config"],
    )
    def test_error_names_the_requested_path(self, tmp_path, capsys, argv):
        cfg_path, _ = demo_config(tmp_path, PLAIN)
        out = tmp_path / "out"
        out.mkdir()
        argv = [str(cfg_path) if a == "CONFIG" else a for a in argv]
        assert main(argv + [str(out), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, out])
        assert not any(out.iterdir())

    @pytest.mark.parametrize("target", ["report.json", "attn.entry1.f4", "attn.entry1.f4.json"])
    def test_shared_attn_evaluates_nothing(self, tmp_path, monkeypatch, capsys, target):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path, _ = demo_config(
            tmp_path, PLAIN, sweep=[PLAIN, PLAIN],
            output={"report": str(out / "report.json"), "attention": str(out / "attn.f4")},
        )
        (out / target).mkdir()
        calls = []
        monkeypatch.setattr(cli, "evaluate_shared", lambda *args, **kwargs: calls.append(args))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 4
        assert calls == []
        assert capsys.readouterr().err.endswith(f": {str(out / target)!r}\n")
        assert list(out.iterdir()) == [out / target] and not any((out / target).iterdir())

    def test_decay_curve_computes_nothing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bands, "decay_curve", lambda *args, **kwargs: calls.append(args))
        argv = ["decay-curve", "--delta-max", "2000000", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 4
        assert calls == [] and not any(tmp_path.iterdir())

    def test_link_to_a_directory_is_replaced(self, tmp_path):
        out, link = tmp_path / "dir", tmp_path / "link"
        out.mkdir()
        link.symlink_to(out)
        assert main(["bands", "--out", str(link), "--quiet"]) == 0
        assert not link.is_symlink() and json.loads(link.read_text())["bands"]
        assert not any(out.iterdir())

    def test_failed_rename_names_the_target(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(IsADirectoryError) as exc:
            with cli._all_or_nothing() as stage:
                stage(target).write_text("x")
                target.mkdir()  # after staging, so that only the rename fails
        assert exc.value.filename == str(target) and exc.value.filename2 is None
        assert list(tmp_path.iterdir()) == [target]


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decay-curve", "--seed", "1", "--out", "x.csv"],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0", "--seed", "1", "--out", "x.csv"],
            ["bands", "--seed", "1"],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0"],
        ],
        ids=["decay-curve-seed", "schedule-seed", "bands-seed", "schedule-without-out"],
    )
    def test_misplaced_or_missing_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestEmptyOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decay-curve", "--out", ""],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0", "--out", ""],
            ["bands", "--out", ""],
            ["shared-attn", "CONFIG", "--out", ""],
            ["shared-attn", "CONFIG", "--emit-config", ""],
        ],
        ids=["decay-curve", "schedule", "bands", "shared-attn", "emit-config"],
    )
    def test_empty_path_is_usage_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        cfg_path, report_path = demo_config(tmp_path, PLAIN)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main([str(cfg_path) if a == "CONFIG" else a for a in argv])
        assert exc.value.code == 2
        assert list(work.iterdir()) == []
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, work])
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a non-empty path" in captured.err


class TestSchedule:
    def test_constant_schedule(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["schedule", "--dim", "16", "--s-hf", "0.7", "--s-lf", "0.7", "--out", str(out), "--quiet"])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["axis", "d", "s_d"]
        assert all(float(v) == 0.7 for _, _, v in rows)

    def test_linear_beta_is_arithmetic_per_axis(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["schedule", "--dim", "16", "--s-hf", "0.2", "--s-lf", "1.0", "--beta", "1", "--out", str(out), "--quiet"])
        _, rows = read_csv(out)
        for axis in ("x", "y"):
            vals = [float(v) for a, _, v in rows if a == axis]
            np.testing.assert_allclose(np.diff(vals), np.diff(vals)[0], atol=1e-12)

    def test_matches_hand_derived_vector(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["schedule", "--dim", "20", "--s-hf", "0.3", "--s-lf", "1.5", "--beta", "2", "--out", str(out), "--quiet"])
        _, rows = read_csv(out)
        x_vals = [float(v) for a, _, v in rows if a == "x"]
        np.testing.assert_allclose(x_vals, [0.3, 0.375, 0.6, 0.975, 1.5], atol=1e-12)

    def test_global_chunk_indices_in_output(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["schedule", "--dim", "16", "--s-hf", "0.3", "--s-lf", "1.2", "--out", str(out), "--quiet"])
        _, rows = read_csv(out)
        assert [(a, int(d)) for a, d, _ in rows] == [("x", 0), ("x", 1), ("x", 2), ("x", 3), ("y", 4), ("y", 5), ("y", 6), ("y", 7)]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--s-hf", "inf", "--s-lf", "1"],
            ["--s-hf", "0.3", "--s-lf", "nan"],
            ["--s-hf", "0.3", "--s-lf", "1", "--beta", "inf"],
        ],
    )
    def test_non_finite_scale_exits_3_without_output_or_warning(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["schedule", *flags, "--out", str(out), "--quiet"]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("partition", cli.PARTITION_NAMES)
    def test_bytes_match_frozen_csv(self, tmp_path, partition):
        """Every preset's CSV, flux's temporal chunks included; never regenerate the files to pass."""
        out = tmp_path / "s.csv"
        argv = ["--dim", "32", "--s-hf", "0.3", "--s-lf", "1.2", "--beta", "2", "--partition", partition]
        assert main(["schedule", *argv, "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == (FIXTURES / "schedule" / f"{partition}.csv").read_bytes()


class TestBands:
    def test_dim4_single_band_theta_range(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bands", "--dim", "4", "--bands", "1", "--out", str(out), "--quiet"]) == 0
        listing = json.loads(out.read_text())
        (band,) = listing["bands"]
        assert band["theta_max"] == 1.0
        assert band["theta_min"] == pytest.approx(0.01, rel=1e-12)

    def test_singleton_bands(self, tmp_path):
        out = tmp_path / "b.json"
        main(["bands", "--dim", "8", "--bands", "4", "--out", str(out), "--quiet"])
        listing = json.loads(out.read_text())
        assert [(b["start"], b["stop"]) for b in listing["bands"]] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_dim128_three_band_ranges(self, tmp_path):
        out = tmp_path / "b.json"
        main(["bands", "--out", str(out), "--quiet"])
        listing = json.loads(out.read_text())
        assert [(b["start"], b["stop"]) for b in listing["bands"]] == [(0, 22), (22, 43), (43, 64)]

    def test_stdout_when_no_out(self, capsys):
        assert main(["bands", "--dim", "4", "--bands", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 4


class TestSharedAttn:
    def test_demo_fixture_plain_copies(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        (entry,) = report["entries"]
        got = entry["alignment"]
        for key, expected in DEMO["plain"].items():
            assert got[key] == pytest.approx(expected, abs=1e-9)
        assert got["argmax_positional_rate"] >= 0.95

    def test_demo_fixture_freq_aware_below_plain(self, tmp_path):
        fa = {"mode": "frequency_aware", **DEMO["frequency_aware"]}
        cfg_path, report_path = demo_config(tmp_path, fa)
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        got = json.loads(report_path.read_text())["entries"][0]["alignment"]
        for key, expected in DEMO["freq_aware"].items():
            assert got[key] == pytest.approx(expected, abs=1e-9)
        assert got["argmax_positional_rate"] < DEMO["plain"]["argmax_positional_rate"]

    def test_mode_none_zero_reference_metrics(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "none"})
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        got = json.loads(report_path.read_text())["entries"][0]["alignment"]
        assert got["reference_mass"] == 0.0 and got["positional_mass"] == 0.0

    def test_sweep_produces_entry_per_item(self, tmp_path):
        sweep = [
            {"mode": "plain", "s": 1.0},
            {"mode": "frequency_aware", **DEMO["frequency_aware"]},
        ]
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0}, sweep=sweep)
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        assert [e["label"] for e in report["entries"]] == ["entry0", "entry1"]
        assert "mean_alignment" in report
        assert report["entries"][0]["alignment"]["argmax_positional_rate"] > report["entries"][1][
            "alignment"
        ]["argmax_positional_rate"]

    def test_band_attribution_in_report(self, tmp_path):
        cfg_path, report_path = demo_config(
            tmp_path, {"mode": "plain", "s": 1.0}, attribution_bands=3
        )
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        attribution = json.loads(report_path.read_text())["entries"][0]["band_attribution"]
        assert set(attribution) == {"high", "mid", "low"}
        assert all(v > 0 for v in attribution.values())

    def test_byte_determinism(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        main(["shared-attn", str(cfg_path), "--quiet"])
        first = report_path.read_bytes()
        main(["shared-attn", str(cfg_path), "--quiet"])
        assert report_path.read_bytes() == first

    def test_attention_matrix_written_with_sidecar(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["attention"] = str(tmp_path / "attn.f32")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        raw = np.frombuffer((tmp_path / "attn.f32").read_bytes(), dtype="<f4")
        meta = json.loads((tmp_path / "attn.f32.json").read_text())
        n_keys = DEMO["grid"] ** 2 * 2 + DEMO["text_tokens"]
        assert meta["shape"] == [DEMO["grid"] ** 2 + DEMO["text_tokens"], n_keys]
        matrix = raw.reshape(meta["shape"])
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-5)
        assert len(meta["key_layout"]) == n_keys

    @pytest.mark.parametrize(
        "sharing, overrides",
        [
            (PLAIN, {"sweep": [{"mode": "none"}, {"mode": "shifted", "offset": [-3, 2]}]}),
            ({"mode": "none"}, {"text_tokens": 0}),
        ],
        ids=["sweep", "none-without-text"],
    )
    def test_outputs_are_their_own_json_reencoding(self, tmp_path, sharing, overrides):
        # The layouts are rendered from row templates, yet every report and
        # sidecar is exactly the text the JSON encoder writes for its content.
        cfg_path, report_path = demo_config(tmp_path, sharing, **overrides)
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["attention"] = str(tmp_path / "attn.f4")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        outputs = [report_path, *sorted(tmp_path.glob("attn*.f4.json"))]
        assert len(outputs) == 1 + len(cfg.get("sweep") or [sharing])
        for path in outputs:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name

    def test_unknown_field_rejected_without_outputs(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        cfg = json.loads(cfg_path.read_text())
        cfg["grid"]["depth"] = 3
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()

    def test_infinite_scale_exits_3_without_outputs(self, tmp_path):
        # Python's json reads and writes the non-standard token Infinity.
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": float("inf")})
        assert "Infinity" in cfg_path.read_text()
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["attention"] = str(tmp_path / "attn.f32")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()
        assert not (tmp_path / "attn.f32").exists()
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert not emitted.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("rotary", "dim", 128.7),
            ("grid", "height", 8.5),
            ("sharing", None, {"mode": "shifted", "offset": [1.9, 0]}),
            ("sharing", None, {"mode": "plain", "adain": "no"}),
            ("sharing", None, {"mode": "plain", "s": "1"}),
            ("sharing", None, {"mode": "shifted", "offset": ["a", 0]}),
            (None, "sweep", [5]),
        ],
    )
    def test_wrong_scalar_type_exits_3_without_outputs(self, tmp_path, capsys, section, key, value):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        cfg = json.loads(cfg_path.read_text())
        if key is None:
            cfg[section] = value
        elif section is None:
            cfg[key] = value
        else:
            cfg[section][key] = value
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "sharing, overrides",
        [
            (PLAIN, {"heads": 3}),
            (PLAIN, {"heads": 2, "attribution_bands": 3}),
            (PLAIN, {"attribution_bands": 100}),
            ({**PLAIN, "band_mask": {"start": 60, "stop": 70, "mode": "zero"}}, {}),
            ({"mode": "frequency_aware", **DEMO["frequency_aware"], "ramp": RAMP2}, {"step": 5}),
            (PLAIN, {"text_tokens": -1}),
            (PLAIN, {"grid": {"width": 0, "height": DEMO["grid"]}}),
            (PLAIN, {"scene": {**SCENE, "kind": "bogus"}}),
            (PLAIN, {"scene": {**SCENE, "noise_level": -1}}),
            # Rows this noisy would overflow their sum of squares and normalize to 0.
            (PLAIN, {"scene": {**SCENE, "noise_level": 1e155}}),
            (PLAIN, {"scene": {**SCENE, "style_strength": 1.0}}),
            (PLAIN, {"scene": {**SCENE, "kind": "shift", "shift": DEMO["grid"] ** 2}}),
            (PLAIN, {"grid": {"width": 1, "height": 1}}),
            # Reference positions shifted past int64 (the first two would wrap).
            ({"mode": "shifted", "offset": [2**63 - 1, 0]}, {}),
            ({"mode": "shifted", "offset": [0, -(2**63) - 1]}, {}),
            ({"mode": "shifted", "offset": [10**30, 0]}, {}),
            (PLAIN, {"sweep": [PLAIN, {"mode": "shifted", "offset": [2**63 - 1, 0]}]}),
            # A band-mask label is a JSON string, not echoed through str().
            ({**PLAIN, "band_mask": {"label": None, "start": 0, "stop": 4, "mode": "zero"}}, {}),
            ({**PLAIN, "band_mask": {"label": [1, 2], "start": 0, "stop": 4, "mode": "zero"}}, {}),
            ({**PLAIN, "band_mask": {"label": 3, "start": 0, "stop": 4, "mode": "zero"}}, {}),
            # null is the one way to turn attribution off.
            (PLAIN, {"attribution_bands": 0}),
            # Integers too large for a float.
            ({"mode": "plain", "s": 10**400}, {}),
            ({"mode": "plain", "s": -(10**400)}, {}),
            (PLAIN, {"rotary": {"dim": DEMO["dim"], "rope_base": 10**400}}),
            (PLAIN, {"rotary": {"dim": DEMO["dim"], "rope_base": -(10**400)}}),
            ({**PLAIN, "band_mask": {"start": 0, "stop": 4, "mode": "scale", "scale": 10**400}}, {}),
            ({**PLAIN, "band_mask": {"start": 0, "stop": 4, "mode": "scale", "scale": -(10**400)}}, {}),
            # A ramp's scales are checked when it is read, with or without a step.
            (
                {"mode": "frequency_aware", **DEMO["frequency_aware"], "ramp": {**RAMP2, "s_hf_start": -1}},
                {},
            ),
            (
                {"mode": "frequency_aware", **DEMO["frequency_aware"], "ramp": {**RAMP2, "s_lf_end": 0}},
                {"step": 1},
            ),
        ],
    )
    def test_emit_config_rejects_what_the_run_rejects(self, tmp_path, sharing, overrides):
        cfg_path, report_path = demo_config(tmp_path, sharing, **overrides)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert not emitted.exists()
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"grid": {"width": 3_000_000, "height": 3_000_000}}, 3),
            ({"text_tokens": 10**12}, 3),
            # 2 * 512**2 keys: one logits row fills an evaluation block exactly.
            ({"grid": {"width": 512, "height": 512}, "text_tokens": 0}, 0),
            ({"grid": {"width": 512, "height": 512}, "text_tokens": 1}, 3),
        ],
    )
    def test_emit_config_bounds_the_key_count(self, tmp_path, overrides, code):
        # Only --emit-config: an accepted config this size would take far too
        # long to run, and a rejected one could not even be allocated.
        cfg_path, _ = demo_config(tmp_path, PLAIN, **overrides)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == code
        assert emitted.exists() == (code == 0)

    def test_offset_to_the_int64_bound_runs_unwrapped(self, tmp_path):
        width = DEMO["grid"]
        offset = [2**63 - width, -(2**63)]
        cfg_path, report_path = demo_config(tmp_path, {"mode": "shifted", "offset": offset})
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 0
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        ref = [k["position"] for k in report["key_layout"] if k["source"] == "reference-image"]
        assert ref[0] == offset and ref[-1] == [2**63 - 1, -(2**63) + width - 1]

    def test_band_mask_label_defaults_to_masked(self, tmp_path):
        mask = {"start": 0, "stop": 4, "mode": "zero"}
        cfg_path, _ = demo_config(tmp_path, {**PLAIN, "band_mask": mask})
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 0
        assert json.loads(emitted.read_text())["sharing"]["band_mask"]["label"] == "masked"

    def test_null_attribution_bands_runs_without_attribution(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, PLAIN, attribution_bands=None)
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["attribution_bands"] is None
        assert report["entries"][0]["band_attribution"] is None

    def test_unknown_sharing_field_rejected(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0, "sharpness": 2})
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()

    def test_invalid_json_exits_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["shared-attn", str(path), "--quiet"]) == 3

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"seed": 1}'.encode("utf-16-le"))
        assert main(["shared-attn", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(f"error: invalid config {path}: not UTF-8")

    def test_overlong_integer_in_config_exits_3(self, tmp_path, capsys):
        # Past Python's int digit limit json.loads raises a plain ValueError.
        cfg_path, report_path = demo_config(tmp_path, PLAIN)
        seed = f'"seed": {DEMO["seed"]},'
        assert seed in cfg_path.read_text()
        cfg_path.write_text(cfg_path.read_text().replace(seed, '"seed": ' + "1" * 5000 + ","))
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not emitted.exists() and not report_path.exists()
        assert capsys.readouterr().err.startswith(f"error: invalid config {cfg_path}: Exceeds")

    def test_missing_config_file_exits_4(self, tmp_path):
        assert main(["shared-attn", str(tmp_path / "nope.json"), "--quiet"]) == 4

    def test_unwritable_report_path_exits_4(self, tmp_path):
        cfg_path, _ = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["report"] = str(tmp_path / "missing-dir" / "report.json")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 4

    def test_missing_report_directory_fails_before_the_run(self, tmp_path, monkeypatch):
        report = tmp_path / "missing-dir" / "report.json"
        cfg_path, _ = demo_config(tmp_path, PLAIN, output={"report": str(report)})
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: runs.append(args))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 4
        assert runs == [] and sorted(tmp_path.iterdir()) == [cfg_path]

    def test_invalid_base_sharing_of_a_sweep_exits_3_without_outputs(self, tmp_path, capsys):
        # A sweep replaces the base section in the run, but the base is still
        # echoed in the report, so it must be as valid as an entry.
        sweep = [PLAIN, {"mode": "frequency_aware", **DEMO["frequency_aware"]}]
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": -1}, sweep=sweep)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert not emitted.exists()
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    def test_failed_matrix_write_leaves_no_report(self, tmp_path):
        cfg_path, report_path = demo_config(
            tmp_path, PLAIN, output={
                "report": str(tmp_path / "report.json"),
                "attention": str(tmp_path / "missing-dir" / "attn.f4"),
            },
        )
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 4
        assert not report_path.exists()
        assert sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "output, sweep",
        [
            ({"report": "same.json", "attention": "same.json"}, None),
            ({"report": "./attn.f4.json", "attention": "attn.f4"}, None),
            ({"report": "attn.entry1.f4", "attention": "sub/../attn.f4"}, [PLAIN, PLAIN]),
        ],
    )
    def test_colliding_outputs_exit_3_without_outputs(self, tmp_path, monkeypatch, output, sweep):
        monkeypatch.chdir(tmp_path)
        cfg_path, _ = demo_config(tmp_path, PLAIN, output=output, sweep=sweep)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("key", ["report", "attention"])
    def test_empty_output_path_exits_3_without_outputs(self, tmp_path, capsys, key):
        output = {"report": str(tmp_path / "report.json"), "attention": str(tmp_path / "attn.f4")}
        cfg_path, _ = demo_config(tmp_path, PLAIN, output={**output, key: ""})
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert sorted(tmp_path.iterdir()) == [cfg_path]
        assert f"output.{key} must be a non-empty path" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [False, 0, [], ""], ids=["false", "zero", "list", "empty"])
    def test_non_object_output_exits_3_without_outputs(self, tmp_path, capsys, output):
        cfg_path, _ = demo_config(tmp_path, PLAIN, output=output)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert sorted(tmp_path.iterdir()) == [cfg_path]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("output must be a JSON object") == 2

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "null"])
    def test_missing_or_null_output_means_no_outputs(self, tmp_path, capsys, missing):
        cfg_path, _ = demo_config(tmp_path, PLAIN, output=None)
        if missing:
            cfg = json.loads(cfg_path.read_text())
            del cfg["output"]
            cfg_path.write_text(json.dumps(cfg))
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 0
        assert json.loads(emitted.read_text())["output"] == {"attention": None, "report": None}
        capsys.readouterr()
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["output"]["report"] is None
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, emitted])

    def test_failing_second_entry_leaves_no_new_outputs(self, tmp_path, monkeypatch):
        output = {"report": str(tmp_path / "report.json"), "attention": str(tmp_path / "a.f4")}
        cfg_path, report_path = demo_config(tmp_path, PLAIN, output=output, sweep=[PLAIN, PLAIN])
        old = [report_path, tmp_path / "a.entry0.f4", tmp_path / "a.entry0.f4.json"]
        for path in old:
            path.write_bytes(b"old " + path.name.encode())
        evaluate_shared = cli.evaluate_shared
        staged = []

        def second_entry_fails(*args, attention_out, **kwargs):
            if staged:
                # The first entry's matrix and sidecar are already staged.
                staged.extend(sorted(p.name for p in Path(attention_out.name).parent.iterdir()))
                attention_out.write(b"\0" * 64)
                raise ConfigurationError("entry1 fails mid-stream")
            staged.append(Path(attention_out.name).name)
            return evaluate_shared(*args, attention_out=attention_out, **kwargs)

        monkeypatch.setattr(cli, "evaluate_shared", second_entry_fails)
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert staged == ["a.entry0.f4", "a.entry0.f4", "a.entry0.f4.json", "a.entry1.f4"]
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, *old])
        for path in old:
            assert path.read_bytes() == b"old " + path.name.encode()

    def test_out_flag_naming_a_sidecar_exits_3_without_outputs(self, tmp_path, capsys):
        output = {"report": str(tmp_path / "report.json"), "attention": str(tmp_path / "attn.f4")}
        cfg_path, _ = demo_config(tmp_path, PLAIN, output=output)
        out = str(tmp_path / "attn.f4.json")
        assert main(["shared-attn", str(cfg_path), "--out", out, "--quiet"]) == 3
        assert sorted(tmp_path.iterdir()) == [cfg_path]
        assert "name the same file" in capsys.readouterr().err

    def test_emit_config_round_trips(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 0
        assert not report_path.exists()  # emit-config skips the run
        first = ExperimentConfig.from_json_dict(json.loads(emitted.read_text()))
        again = ExperimentConfig.from_json_dict(first.normalized)
        assert first == again
        assert first.normalized == json.loads(emitted.read_text())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        assert main(["shared-attn", str(cfg_path), "--seed", "99", "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["seed"] == 99

    def test_rotary_and_bands_derived_once_per_invocation(self, tmp_path, monkeypatch):
        calls = []
        for name in ("build_rotary", "make_even_partition"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k)
            )
        cfg_path, _ = demo_config(tmp_path, PLAIN, attribution_bands=3, sweep=[PLAIN, PLAIN])
        assert main(["shared-attn", str(cfg_path), "--seed", "3", "--quiet"]) == 0
        assert calls == ["build_rotary", "make_even_partition"]


class TestEmittedConfig:
    """``--emit-config`` output against frozen files; never regenerate them to pass."""

    @pytest.mark.parametrize(
        "config, golden",
        [
            (SHIPPED_DEMO, "copying_demo.emitted.json"),
            (FIXTURES / "emit_config" / "every_sharing_key.config.json",
             "every_sharing_key.emitted.json"),
        ],
        ids=["copying_demo", "every_sharing_key"],
    )
    def test_emitted_bytes_match_golden_and_the_report_echo(self, tmp_path, config, golden):
        golden = FIXTURES / "emit_config" / golden
        emitted, report = tmp_path / "emitted.json", tmp_path / "report.json"
        assert main(["shared-attn", str(config), "--emit-config", str(emitted), "--quiet"]) == 0
        assert emitted.read_bytes() == golden.read_bytes()
        assert main(["shared-attn", str(config), "--out", str(report), "--quiet"]) == 0
        assert json.loads(report.read_text())["config"] == json.loads(golden.read_text())


class TestShippedDemoConfig:
    def test_copying_demo_reproduces_frozen_rates(self, tmp_path):
        cfg = Path(__file__).parent.parent / "configs" / "copying_demo.json"
        out = tmp_path / "report.json"
        assert main(["shared-attn", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        plain, fa = report["entries"]
        assert plain["alignment"]["argmax_positional_rate"] == pytest.approx(
            DEMO["plain"]["argmax_positional_rate"], abs=1e-9
        )
        assert (
            fa["alignment"]["argmax_positional_rate"]
            < plain["alignment"]["argmax_positional_rate"]
        )


class TestBuildRotary:
    def test_partition_names(self):
        assert build_rotary(16, 10000.0, "default").x_chunks == (0, 1, 2, 3)
        assert build_rotary(16, 10000.0, "single_y").y_chunks == tuple(range(8))
        assert build_rotary(16, 10000.0, "interleaved").x_chunks == (0, 2, 4, 6)
        assert build_rotary(128, 10000.0, "flux").temporal_chunks == tuple(range(8))

    def test_explicit_partition_mapping(self):
        cfg = build_rotary(8, 10000.0, {"x": [0, 3], "y": [1], "temporal": [2]})
        assert cfg.x_chunks == (0, 3) and cfg.temporal_chunks == (2,)

    def test_unknown_partition_name(self):
        with pytest.raises(ConfigurationError):
            build_rotary(8, 10000.0, "spiral")


class TestReportIO:
    def test_raw_attention_round_trip(self, tmp_path):
        from dense_reference import dense_softmax, evaluate_with_reference
        from ropefreq import (
            RotaryConfig,
            SharingParams,
            build_shared_qkv,
            evaluate_shared,
            make_grid,
            make_text,
            plant_scene,
        )
        from ropefreq.reportio import read_attention_matrix, write_attention_matrix

        base = make_grid(3, 3, 16, seed=1)
        scene = plant_scene(base, kind="identity", seed=2)
        text = make_text(2, 16, seed=3)
        config = RotaryConfig(dim=16)
        qkv = build_shared_qkv(
            scene.target, text, scene.reference, SharingParams(mode="plain", s=1.0), config
        )
        _, attention, tied = evaluate_with_reference(qkv, scene)
        assert tied
        path = tmp_path / "attn.f32"
        with path.open("wb") as out:
            evaluate_shared(qkv, scene, attention_out=out)
        sidecar = write_attention_matrix(path, qkv)
        assert sidecar.name == "attn.f32.json"
        matrix, meta = read_attention_matrix(path)
        assert meta["order"] == "row-major" and meta["dtype"] == "<f4"
        assert meta["shape"] == [len(qkv.q), len(qkv.k)]
        assert matrix.tobytes() == dense_softmax(qkv.q, qkv.k).astype("<f4").tobytes()
        np.testing.assert_allclose(matrix, attention, atol=1e-6)
        assert [lab["source"] for lab in meta["key_layout"][:2]] == ["target-image", "target-image"]


    @pytest.mark.parametrize("delta", [-4, 4])
    def test_byte_length_must_match_sidecar_shape(self, tmp_path, delta):
        from ropefreq import ShapeError
        from ropefreq.reportio import read_attention_matrix

        path = tmp_path / "attn.f32"
        path.write_bytes(np.zeros(6, dtype="<f4").tobytes())
        meta = {"dtype": "<f4", "order": "row-major", "shape": [2, 3]}
        (tmp_path / "attn.f32.json").write_text(json.dumps(meta))
        assert read_attention_matrix(path)[0].shape == (2, 3)
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        with pytest.raises(ShapeError, match=f"{24 + delta} bytes.*needs 24"):
            read_attention_matrix(path)


class TestIncludeFull:
    def test_decay_curve_include_full_adds_series(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main([
            "decay-curve", "--delta-max", "3", "--include-full", "--out", str(out), "--quiet",
        ]) == 0
        _, rows = read_csv(out)
        labels = [band for _, band, _ in rows[:4]]
        assert labels == ["high", "mid", "low", "full"]
        assert len(rows) == 4 * 4


class TestFailedWriteKeepsOldFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decay-curve", "--delta-max", "3", "--out"],
            ["schedule", "--s-hf", "0.5", "--s-lf", "1.0", "--out"],
            ["bands", "--out"],
            ["shared-attn", "CONFIG", "--emit-config"],
        ],
        ids=["decay-curve", "schedule", "bands", "emit-config"],
    )
    def test_write_failing_partway_exits_4_and_keeps_old_bytes(self, tmp_path, monkeypatch, argv):
        cfg_path, _ = demo_config(tmp_path, PLAIN)
        out = tmp_path / "out.txt"
        out.write_bytes(b"old bytes\n")
        argv = [str(cfg_path) if a == "CONFIG" else a for a in argv]
        path_open = Path.open

        def open_to_fail_partway(self, mode="r", *args, **kwargs):
            f = path_open(self, mode, *args, **kwargs)
            if "w" in mode:
                write = f.write

                def write_half_then_fail(data):
                    write(data[: len(data) // 2])
                    raise OSError("disk full")

                f.write = write_half_then_fail
            return f

        # Path.write_text writes through Path.open, as the streamed CSV does.
        monkeypatch.setattr(Path, "open", open_to_fail_partway)
        assert main(argv + [str(out), "--quiet"]) == 4
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == sorted([cfg_path, out])
