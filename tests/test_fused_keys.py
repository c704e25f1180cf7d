"""The run's key stack: each entry's scene is drawn straight into one reused ``k``.

``run_experiment`` allocates one ``(2N + T) x dim`` buffer and, for every
entry, has ``make_grid``, ``make_text`` and ``plant_scene`` draw into its
rows before ``build_shared_qkv(..., out=k)`` turns them into keys in place.
Its keys must be byte for byte the keys built from a separately built scene.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import ropefreq.attention
import ropefreq.synthetic
from ropefreq import ShapeError, cli
from ropefreq.attention import SharingParams, build_shared_qkv
from ropefreq.cli import ExperimentConfig, _all_or_nothing, main, run_experiment
from ropefreq.rope import RotaryConfig
from ropefreq.synthetic import make_grid, make_text, plant_scene

FIXTURES = Path(__file__).parent / "fixtures"

RAMP = {"s_hf_start": 0.2, "s_hf_end": 0.8, "s_lf_start": 1.0, "s_lf_end": 1.4, "total_steps": 5}
# Every mode, AdaIN on and off in turn, and "none" first and last, so each
# entry is built over the keys the previous one left in the buffer.
SWEEP = [
    {"mode": "none"},
    {"mode": "plain", "s": 1.0},
    {"mode": "plain", "s": 0.7, "adain": False},
    {"mode": "shifted", "s": 1.3, "offset": [2, -1]},
    {"mode": "frequency_aware", "s_hf": 0.3, "s_lf": 1.2, "beta": 1.5, "ramp": RAMP,
     "step": 3, "adain": False},
    {"mode": "plain", "s": 1.0, "band_mask": {"start": 0, "stop": 2, "mode": "zero"}},
    {"mode": "frequency_aware", "s_hf": 0.3, "s_lf": 1.2, "beta": 2.0, "adain": False,
     "band_mask": {"start": 5, "stop": 8, "mode": "scale", "scale": 0.5}},
    {"mode": "none"},
]


def sweep_config(kind: str, noise_level: float) -> ExperimentConfig:
    return ExperimentConfig.from_json_dict({
        "rotary": {"dim": 16, "rope_base": 100.0, "partition": "interleaved"},
        "grid": {"width": 7, "height": 5},
        "scene": {"kind": kind, "noise_level": noise_level, "seed": 4, "shift": 3,
                  "style_strength": 0.6},
        "text_tokens": 3,
        "heads": 1,
        "sharing": {"mode": "plain", "s": 1.0},
        "attribution_bands": 2,
        "sweep": SWEEP,
        "seed": 21,
        "output": {"report": None, "attention": None},
    })


def separate_keys(cfg: ExperimentConfig, params: SharingParams, step) -> bytes:
    """The entry's keys from a scene and text built apart, into new arrays."""
    norm = cfg.normalized
    grid, sc, seed = norm["grid"], norm["scene"], norm["seed"]
    base = make_grid(grid["width"], grid["height"], cfg.rotary.dim, seed, sc["style_strength"])
    scene = plant_scene(base, sc["kind"], sc["noise_level"], sc["seed"], sc["shift"])
    text = make_text(norm["text_tokens"], cfg.rotary.dim, seed + 2)
    return build_shared_qkv(base, text, scene.reference, params, cfg.rotary, step).k.tobytes()


# 7 rows of 16 f64 a block leave a ragged last block of the 35 grid rows.
@pytest.mark.parametrize("rows_bytes", [None, 8 * 16 * 7], ids=["1MiB", "7-rows"])
@pytest.mark.parametrize("kind, noise_level", [("shuffle", 0.5), ("shift", 0.0)])
def test_run_keys_equal_keys_of_a_separate_scene(monkeypatch, rows_bytes, kind, noise_level):
    if rows_bytes is not None:
        monkeypatch.setattr(ropefreq.attention, "_ROWS_BYTES", rows_bytes)
        monkeypatch.setattr(ropefreq.synthetic, "_ROWS_BYTES", rows_bytes)
    built = []

    def recording(*args, **kwargs):
        qkv = build_shared_qkv(*args, **kwargs)
        built.append(qkv.k.tobytes())
        return qkv

    monkeypatch.setattr(cli, "build_shared_qkv", recording)
    cfg = sweep_config(kind, noise_level)
    with _all_or_nothing() as stage:
        run_experiment(cfg, stage)
    assert len(built) == len(SWEEP)
    for (label, params, step), keys in zip(cfg.entries, built):
        assert keys == separate_keys(cfg, params, step), label


class TestOutArguments:
    """``out=`` gives the bytes of a new array, and only an f64 C-contiguous one of the result's shape."""

    def test_scene_builders_write_the_same_bytes(self):
        buf = np.full((2 * 35 + 3, 16), np.nan)
        base = make_grid(7, 5, 16, seed=1, style_strength=0.6, out=buf[:35])
        scene = plant_scene(base, kind="shuffle", noise_level=0.5, seed=2, out=buf[38:])
        text = make_text(3, 16, seed=3, out=buf[35:38])
        assert base.features.base is buf and scene.reference.features.base is buf
        assert text.features.base is buf
        fresh = make_grid(7, 5, 16, seed=1, style_strength=0.6)
        assert buf[:35].tobytes() == fresh.features.tobytes()
        assert buf[35:38].tobytes() == make_text(3, 16, seed=3).features.tobytes()
        ref = plant_scene(fresh, kind="shuffle", noise_level=0.5, seed=2).reference.features
        assert buf[38:].tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "mode", [{"mode": "none"}, {"mode": "plain", "s": 0.7}, {"mode": "shifted", "offset": (1, 2)}]
    )
    def test_build_shared_qkv_writes_the_leading_rows(self, mode):
        config = RotaryConfig.interleaved(16, 100.0)
        base = make_grid(4, 3, 16, seed=1)
        scene = plant_scene(base, noise_level=0.3, seed=2)
        text = make_text(2, 16, seed=3)
        params = SharingParams(**mode)
        fresh = build_shared_qkv(base, text, scene.reference, params, config)
        out = np.full((26, 16), np.nan)
        qkv = build_shared_qkv(base, text, scene.reference, params, config, out=out)
        assert qkv.k.base is out and qkv.k.flags.c_contiguous
        assert len(qkv.k) == len(fresh.k) == (14 if mode["mode"] == "none" else 26)
        assert qkv.k.tobytes() == fresh.k.tobytes()

    # Each makes a wrong out for a result of ``rows`` x 16 f64.
    WRONG = {
        "width": lambda rows: np.empty((rows, 15)),
        "rows": lambda rows: np.empty((rows - 1, 16)),
        "f32": lambda rows: np.empty((rows, 16), dtype=np.float32),
        "fortran": lambda rows: np.empty((16, rows)).T,
        "strided": lambda rows: np.empty((rows, 32))[:, ::2],
    }

    @pytest.mark.parametrize("wrong", WRONG.values(), ids=WRONG.keys())
    def test_wrong_out_raises_shape_error(self, wrong):
        with pytest.raises(ShapeError):
            make_grid(4, 3, 16, seed=1, out=wrong(12))
        base = make_grid(4, 3, 16, seed=1)
        with pytest.raises(ShapeError):
            plant_scene(base, seed=2, out=wrong(12))
        with pytest.raises(ShapeError):
            make_text(12, 16, seed=3, out=wrong(12))
        config = RotaryConfig.interleaved(16, 100.0)
        text = make_text(0, 16, seed=3)
        with pytest.raises(ShapeError):
            build_shared_qkv(base, text, base, SharingParams(mode="plain"), config, out=wrong(24))

    def test_build_shared_qkv_out_holds_every_set_without_sharing_too(self):
        base, text = make_grid(4, 3, 16, seed=1), make_text(2, 16, seed=3)
        config = RotaryConfig.interleaved(16, 100.0)
        with pytest.raises(ShapeError):
            build_shared_qkv(base, text, base, SharingParams(mode="none"), config, out=np.empty((14, 16)))


def test_every_sharing_key_matches_frozen_outputs(tmp_path, monkeypatch):
    """The report, each ``<f4`` matrix and each sidecar; never regenerate the files to pass."""
    raw = json.loads((FIXTURES / "emit_config" / "every_sharing_key.config.json").read_text())
    raw["output"]["attention"] = "attn.f4"
    (tmp_path / "config.json").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    report = "every_sharing_key.report.json"
    assert main(["shared-attn", "config.json", "--out", report, "--quiet"]) == 0
    frozen = sorted(os.listdir(FIXTURES / "shared_attn"))
    assert len(frozen) == 11
    assert sorted(set(os.listdir(tmp_path)) - {"config.json"}) == frozen
    for name in frozen:
        assert (tmp_path / name).read_bytes() == (FIXTURES / "shared_attn" / name).read_bytes(), name
