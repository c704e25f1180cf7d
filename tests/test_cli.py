import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from ropefreq.cli import ExperimentConfig, build_rotary, main
from ropefreq.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
DEMO = json.loads((FIXTURES / "copying_demo_fixture.json").read_text())


def demo_config(tmp_path, sharing, **overrides):
    cfg = {
        "rotary": {"dim": DEMO["dim"], "rope_base": 10000.0, "partition": DEMO["partition"]},
        "grid": {"width": DEMO["grid"], "height": DEMO["grid"]},
        "scene": {
            "kind": DEMO["kind"],
            "noise_level": DEMO["noise_level"],
            "seed": DEMO["scene_seed"],
            "style_strength": DEMO["style_strength"],
        },
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
        ],
    )
    def test_emit_config_rejects_what_the_run_rejects(self, tmp_path, sharing, overrides):
        cfg_path, report_path = demo_config(tmp_path, sharing, **overrides)
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 3
        assert not emitted.exists()
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()

    def test_unknown_sharing_field_rejected(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0, "sharpness": 2})
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 3
        assert not report_path.exists()

    def test_invalid_json_exits_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["shared-attn", str(path), "--quiet"]) == 3

    def test_missing_config_file_exits_4(self, tmp_path):
        assert main(["shared-attn", str(tmp_path / "nope.json"), "--quiet"]) == 4

    def test_unwritable_report_path_exits_4(self, tmp_path):
        cfg_path, _ = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["report"] = str(tmp_path / "missing-dir" / "report.json")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["shared-attn", str(cfg_path), "--quiet"]) == 4

    def test_emit_config_round_trips(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        emitted = tmp_path / "normalized.json"
        assert main(["shared-attn", str(cfg_path), "--emit-config", str(emitted), "--quiet"]) == 0
        assert not report_path.exists()  # emit-config skips the run
        first = ExperimentConfig.from_json_dict(json.loads(emitted.read_text()))
        again = ExperimentConfig.from_json_dict(first.to_json_dict())
        assert first == again
        assert first.to_json_dict() == json.loads(emitted.read_text())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path, report_path = demo_config(tmp_path, {"mode": "plain", "s": 1.0})
        assert main(["shared-attn", str(cfg_path), "--seed", "99", "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["seed"] == 99


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
        from ropefreq import RotaryConfig, SharingParams, make_grid, make_text, plant_scene, shared_attend
        from ropefreq.reportio import read_attention_matrix, write_attention_matrix

        base = make_grid(3, 3, 16, seed=1)
        scene = plant_scene(base, kind="identity", seed=2)
        text = make_text(2, 16, seed=3)
        rep = shared_attend(
            scene.target, text, scene.reference,
            SharingParams(mode="plain", s=1.0), RotaryConfig(dim=16),
        )
        path = tmp_path / "attn.f32"
        sidecar = write_attention_matrix(path, rep)
        assert sidecar.name == "attn.f32.json"
        matrix, meta = read_attention_matrix(path)
        assert meta["order"] == "row-major" and meta["dtype"] == "<f4"
        np.testing.assert_allclose(matrix, rep.attention, atol=1e-6)
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
        bands = [band for _, band, _ in rows[:4]]
        assert bands == ["high", "mid", "low", "full"]
        assert len(rows) == 4 * 4
