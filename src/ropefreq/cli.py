"""Command-line front end: decay curves, schedules, band info, experiments.

Subcommands. All outputs are deterministic given the same flags and config.

* ``decay-curve``  CSV of mean band similarity vs. integer position shift.
* ``schedule``     CSV of the per-chunk modulation scales for each axis.
* ``bands``        JSON listing band chunk ranges and frequency extrema.
* ``shared-attn``  JSON report of shared-attention alignment metrics from an
  experiment config file (plus optional raw attention matrices).

Exit codes: 0 success, 2 usage error, 3 config/validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import (
    BandMaskSpec,
    ModulationSchedule,
    SharingParams,
    TimestepRamp,
    _check_heads,
    _effective_schedule,
    build_shared_qkv,
)
from .bands import Band, band_mask, decay_curve, decay_curve_to_csv, make_even_partition
from .diagnostics import evaluate_shared
from .errors import ConfigurationError, RopeFreqError
from .reportio import layout_to_json, write_attention_matrix
from .rope import RotaryConfig, frequencies
from .synthetic import make_grid, make_text, plant_scene

__all__ = ["ExperimentConfig", "main"]

PARTITION_NAMES = ("default", "single_x", "single_y", "interleaved", "flux")


def _check_keys(d: dict, allowed: tuple[str, ...], context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{context} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown fields in {context}: {unknown}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigurationError(f"missing required field {key!r} in {context}")
    return d[key]


def _int(value, context: str, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{context} must be >= {minimum}, got {value}")
    return value


def _number(value, context: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{context} must be a finite number, got {value!r}")
    return float(value)


def _ints(values, context: str) -> list[int]:
    """``values`` if it is a JSON list of integers."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{context} must be a list of integers, got {values!r}")
    return [_int(v, context) for v in values]


def build_rotary(dim: int, rope_base: float, partition) -> RotaryConfig:
    if isinstance(partition, str):
        if partition == "default":
            return RotaryConfig(dim=dim, rope_base=rope_base)
        if partition == "single_x":
            return RotaryConfig.single_axis(dim, rope_base, "x")
        if partition == "single_y":
            return RotaryConfig.single_axis(dim, rope_base, "y")
        if partition == "interleaved":
            return RotaryConfig.interleaved(dim, rope_base)
        if partition == "flux":
            return RotaryConfig.flux_like(dim, rope_base)
        raise ConfigurationError(
            f"partition must be one of {PARTITION_NAMES} or an explicit mapping, got {partition!r}"
        )
    if isinstance(partition, dict):
        _check_keys(partition, ("x", "y", "temporal"), "rotary.partition")
        return RotaryConfig(
            dim=dim,
            rope_base=rope_base,
            x_chunks=tuple(_ints(partition.get("x", []), "rotary.partition.x")),
            y_chunks=tuple(_ints(partition.get("y", []), "rotary.partition.y")),
            temporal_chunks=tuple(
                _ints(partition.get("temporal", []), "rotary.partition.temporal")
            ),
        )
    raise ConfigurationError(f"invalid rotary partition: {partition!r}")


_SHARING_KEYS = ("mode", "s", "adain", "s_hf", "s_lf", "beta", "offset", "ramp", "band_mask")
_RAMP_KEYS = ("s_hf_start", "s_hf_end", "s_lf_start", "s_lf_end", "total_steps")
_BAND_MASK_KEYS = ("label", "start", "stop", "mode", "scale")


def _normalize_sharing(raw: dict) -> dict:
    """Validate a sharing section and keep only the keys its mode uses."""
    _check_keys(raw, _SHARING_KEYS, "sharing")
    mode = _require(raw, "mode", "sharing")
    adain = raw.get("adain", True)
    if not isinstance(adain, bool):
        raise ConfigurationError(f"sharing.adain must be true or false, got {adain!r}")
    out: dict = {"mode": mode, "adain": adain}
    if mode == "none":
        pass
    elif mode == "plain":
        out["s"] = _number(raw.get("s", 1.0), "sharing.s")
    elif mode == "shifted":
        out["s"] = _number(raw.get("s", 1.0), "sharing.s")
        out["offset"] = _ints(_require(raw, "offset", "sharing (shifted mode)"), "sharing.offset")
        if len(out["offset"]) != 2:
            raise ConfigurationError(f"offset must be [x, y], got {out['offset']!r}")
    elif mode == "frequency_aware":
        for key in ("s_hf", "s_lf"):
            value = _require(raw, key, "sharing (frequency_aware mode)")
            out[key] = _number(value, f"sharing.{key}")
        out["beta"] = _number(raw.get("beta", 2.0), "sharing.beta")
        ramp = raw.get("ramp")
        if ramp is not None:
            _check_keys(ramp, _RAMP_KEYS, "sharing.ramp")
            out["ramp"] = {
                k: (_int if k == "total_steps" else _number)(
                    _require(ramp, k, "sharing.ramp"), f"sharing.ramp.{k}"
                )
                for k in _RAMP_KEYS
            }
    else:
        raise ConfigurationError(f"unknown sharing mode {mode!r}")
    mask = raw.get("band_mask")
    if mask is not None:
        _check_keys(mask, _BAND_MASK_KEYS, "sharing.band_mask")
        out["band_mask"] = {
            "label": str(mask.get("label", "masked")),
            "start": _int(_require(mask, "start", "sharing.band_mask"), "sharing.band_mask.start"),
            "stop": _int(_require(mask, "stop", "sharing.band_mask"), "sharing.band_mask.stop"),
            "mode": str(_require(mask, "mode", "sharing.band_mask")),
            "scale": None
            if mask.get("scale") is None
            else _number(mask["scale"], "sharing.band_mask.scale"),
        }
    return out


def _sharing_params(sharing: dict, config: RotaryConfig) -> SharingParams:
    mode = sharing["mode"]
    kwargs: dict = {"mode": mode, "adain_enabled": sharing.get("adain", True)}
    if mode in ("plain", "shifted"):
        kwargs["s"] = sharing.get("s", 1.0)
    if mode == "shifted":
        kwargs["offset"] = tuple(sharing["offset"])
    if mode == "frequency_aware":
        kwargs["schedule"] = ModulationSchedule.for_config(
            config, sharing["s_hf"], sharing["s_lf"], sharing.get("beta", 2.0)
        )
        ramp = sharing.get("ramp")
        if ramp is not None:
            kwargs["ramp"] = TimestepRamp(**ramp)
    mask = sharing.get("band_mask")
    if mask is not None:
        kwargs["band_mask_override"] = BandMaskSpec(
            band=Band(mask["label"], mask["start"], mask["stop"]),
            mode=mask["mode"],
            scale=mask["scale"],
        )
    return SharingParams(**kwargs)


_TOP_KEYS = (
    "rotary",
    "grid",
    "scene",
    "text_tokens",
    "heads",
    "sharing",
    "step",
    "attribution_bands",
    "sweep",
    "seed",
    "output",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated shared-attention experiment description.

    Mirrors the JSON schema one-to-one so that parsing and re-emitting a
    config is lossless; unknown fields anywhere are rejected.
    """

    dim: int
    rope_base: float
    partition: object
    width: int
    height: int
    scene_kind: str
    noise_level: float
    scene_seed: int | None
    shift: int
    style_strength: float
    text_tokens: int
    heads: int
    sharing: dict
    step: int | None
    attribution_bands: int | None
    sweep: tuple | None
    seed: int
    output_report: str | None
    output_attention: str | None

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError("experiment config must be a JSON object")
        _check_keys(d, _TOP_KEYS, "config")
        rotary = _require(d, "rotary", "config")
        _check_keys(rotary, ("dim", "rope_base", "partition"), "rotary")
        grid = _require(d, "grid", "config")
        _check_keys(grid, ("width", "height"), "grid")
        scene = _require(d, "scene", "config")
        _check_keys(scene, ("kind", "noise_level", "seed", "shift", "style_strength"), "scene")
        sweep = d.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, list) or not sweep:
                raise ConfigurationError("sweep must be a non-empty list of sharing overrides")
            for i, item in enumerate(sweep):
                _check_keys(item, _SHARING_KEYS + ("step",), f"sweep[{i}]")
            sweep = tuple(dict(item) for item in sweep)
        output = d.get("output") or {}
        _check_keys(output, ("report", "attention"), "output")
        for key in ("report", "attention"):
            if not isinstance(output.get(key), (str, type(None))):
                raise ConfigurationError(f"output.{key} must be a path or null")
        cfg = cls(
            dim=_int(_require(rotary, "dim", "rotary"), "rotary.dim"),
            rope_base=_number(rotary.get("rope_base", 10000.0), "rotary.rope_base"),
            partition=rotary.get("partition", "default"),
            width=_int(_require(grid, "width", "grid"), "grid.width", minimum=1),
            height=_int(_require(grid, "height", "grid"), "grid.height", minimum=1),
            scene_kind=str(scene.get("kind", "shuffle")),
            noise_level=_number(scene.get("noise_level", 0.1), "scene.noise_level"),
            scene_seed=None
            if scene.get("seed") is None
            else _int(scene["seed"], "scene.seed", minimum=0),
            shift=_int(scene.get("shift", 0), "scene.shift"),
            style_strength=_number(scene.get("style_strength", 0.0), "scene.style_strength"),
            text_tokens=_int(d.get("text_tokens", 0), "text_tokens", minimum=0),
            heads=_int(d.get("heads", 1), "heads"),
            sharing=_normalize_sharing(_require(d, "sharing", "config")),
            step=None if d.get("step") is None else _int(d["step"], "step"),
            attribution_bands=None
            if d.get("attribution_bands") is None
            else _int(d["attribution_bands"], "attribution_bands"),
            sweep=sweep,
            seed=_int(_require(d, "seed", "config"), "seed", minimum=0),
            output_report=output.get("report"),
            output_attention=output.get("attention"),
        )
        # The checks the run makes before it builds a scene, so that
        # --emit-config rejects every config they would stop.
        config = cfg.build_rotary()
        _check_heads(cfg.heads, cfg.band_partition(config), config)
        for _, sharing, step in cfg.iter_entries():
            params = _sharing_params(sharing, config)
            if params.mode == "frequency_aware":
                _effective_schedule(params, config, step)
            spec = params.band_mask_override
            if spec is not None:
                band_mask(np.zeros(config.dim), spec.band, spec.mode, config, spec.scale)
        return cfg

    def to_json_dict(self) -> dict:
        d: dict = {
            "rotary": {"dim": self.dim, "rope_base": self.rope_base, "partition": self.partition},
            "grid": {"width": self.width, "height": self.height},
            "scene": {
                "kind": self.scene_kind,
                "noise_level": self.noise_level,
                "seed": self.scene_seed,
                "shift": self.shift,
                "style_strength": self.style_strength,
            },
            "text_tokens": self.text_tokens,
            "heads": self.heads,
            "sharing": self.sharing,
            "step": self.step,
            "attribution_bands": self.attribution_bands,
            "sweep": list(self.sweep) if self.sweep is not None else None,
            "seed": self.seed,
            "output": {"report": self.output_report, "attention": self.output_attention},
        }
        return d

    def build_rotary(self) -> RotaryConfig:
        return build_rotary(self.dim, self.rope_base, self.partition)

    def band_partition(self, config: RotaryConfig):
        """The ``attribution_bands`` partition over every chunk, or None."""
        if not self.attribution_bands:
            return None
        return make_even_partition(config, self.attribution_bands, "all")

    def iter_entries(self):
        """Yield (label, sharing dict, step) for the base run or each sweep item."""
        if self.sweep is None:
            yield "entry0", self.sharing, self.step
            return
        for i, overrides in enumerate(self.sweep):
            merged = dict(self.sharing)
            step = self.step
            for key, value in overrides.items():
                if key == "step":
                    step = None if value is None else _int(value, f"sweep[{i}].step")
                else:
                    merged[key] = value
            yield f"entry{i}", _normalize_sharing(merged), step


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, list]:
    """Evaluate every entry; returns (report dict, one evaluation per entry).

    Each evaluation keeps its ``<f4`` attention matrix only when the config
    asks for attention output.
    """
    config = cfg.build_rotary()
    scene_seed = cfg.scene_seed if cfg.scene_seed is not None else cfg.seed + 1
    base = make_grid(
        cfg.width, cfg.height, cfg.dim, seed=cfg.seed, style_strength=cfg.style_strength
    )
    scene = plant_scene(
        base, kind=cfg.scene_kind, noise_level=cfg.noise_level, seed=scene_seed, shift=cfg.shift
    )
    text = make_text(cfg.text_tokens, cfg.dim, seed=cfg.seed + 2)
    partition = cfg.band_partition(config)

    entries = []
    evaluations = []
    for label, sharing, step in cfg.iter_entries():
        params = _sharing_params(sharing, config)
        qkv = build_shared_qkv(scene.target, text, scene.reference, params, config, step)
        evaluation = evaluate_shared(
            qkv,
            scene,
            config,
            heads=cfg.heads,
            band_partition=partition,
            keep_attention=cfg.output_attention is not None,
        )
        attribution = evaluation.attribution
        entries.append(
            {
                "label": label,
                "sharing": sharing,
                "step": step,
                "alignment": evaluation.alignment.as_dict(),
                "notes": list(evaluation.notes),
                "n_queries": len(evaluation.query_layout),
                "n_keys": len(evaluation.key_layout),
                "band_attribution": None if attribution is None else attribution.mean_abs_logit,
            }
        )
        evaluations.append(evaluation)

    result: dict = {"config": cfg.to_json_dict(), "entries": entries}
    if len(entries) > 1:
        keys = entries[0]["alignment"].keys()
        result["mean_alignment"] = {
            k: float(np.mean([e["alignment"][k] for e in entries])) for k in keys
        }
    if entries:
        result["key_layout"] = layout_to_json(evaluations[0].key_layout)
    return result, evaluations


def _dump_json(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigurationError(f"refusing to write a non-finite number: {exc}") from exc


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_decay_curve(args) -> int:
    if args.delta_max < 0:
        raise ConfigurationError(f"--delta-max must be >= 0, got {args.delta_max}")
    config = RotaryConfig.single_axis(args.dim, args.rope_base, args.axis)
    partition = make_even_partition(config, args.bands, args.axis)
    curve = decay_curve(
        range(args.delta_max + 1), partition, config, include_full=args.include_full
    )
    csv_text = decay_curve_to_csv(curve)
    out = Path(args.out)
    out.write_text(csv_text)
    _info(args, f"wrote {out}")
    return 0


def cmd_schedule(args) -> int:
    config = build_rotary(args.dim, 10000.0, args.partition)
    schedule = ModulationSchedule.for_config(config, args.s_hf, args.s_lf, args.beta)
    lines = ["axis,d,s_d"]
    for axis, chunks in (
        ("x", config.x_chunks),
        ("y", config.y_chunks),
        ("temporal", config.temporal_chunks),
    ):
        for d in chunks:
            lines.append(f"{axis},{d},{format(schedule.per_chunk_scales[d], '.17g')}")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    _info(args, f"wrote {out}")
    return 0


def cmd_bands(args) -> int:
    config = RotaryConfig.single_axis(args.dim, args.rope_base)
    partition = make_even_partition(config, args.bands, "all")
    theta = frequencies(config)
    listing = {
        "dim": args.dim,
        "rope_base": args.rope_base,
        "bands": [
            {
                "label": b.label,
                "start": b.start,
                "stop": b.stop,
                "theta_min": float(theta[b.stop - 1]),
                "theta_max": float(theta[b.start]),
            }
            for b in partition.bands
        ],
    }
    text = _dump_json(listing)
    if args.out:
        Path(args.out).write_text(text)
        _info(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_shared_attn(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    cfg = ExperimentConfig.from_json_dict(raw)
    if args.seed is not None:
        cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "seed": args.seed})
    if args.emit_config:
        Path(args.emit_config).write_text(_dump_json(cfg.to_json_dict()))
        _info(args, f"wrote {args.emit_config}")
        return 0

    result, evaluations = run_experiment(cfg)

    report_path = args.out or cfg.output_report
    if report_path is None:
        sys.stdout.write(_dump_json(result))
    else:
        Path(report_path).write_text(_dump_json(result))
        _info(args, f"wrote {report_path}")
    if cfg.output_attention:
        base = Path(cfg.output_attention)
        for entry, evaluation in zip(result["entries"], evaluations):
            if len(evaluations) == 1:
                path = base
            else:
                path = base.with_name(f"{base.stem}.{entry['label']}{base.suffix}")
            write_attention_matrix(path, evaluation)
            _info(args, f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropefreq",
        description="Rotary-embedding frequency analysis and shared-attention experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file path")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--quiet", action="store_true", help="suppress status messages")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decay-curve",
        parents=[common],
        help="mean band similarity vs. position shift, as CSV",
    )
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--bands", type=int, default=3)
    p.add_argument("--delta-max", type=int, default=64)
    p.add_argument("--axis", choices=["x", "y"], default="x")
    p.add_argument("--include-full", action="store_true", help="add a series over all chunks")
    p.set_defaults(func=cmd_decay_curve, out_required=True)

    p = sub.add_parser(
        "schedule", parents=[common], help="per-chunk modulation scales, as CSV"
    )
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--s-hf", type=float, required=True)
    p.add_argument("--s-lf", type=float, required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--partition", default="default")
    p.set_defaults(func=cmd_schedule, out_required=True)

    p = sub.add_parser(
        "bands", parents=[common], help="band chunk ranges and frequency extrema, as JSON"
    )
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--bands", type=int, default=3)
    p.set_defaults(func=cmd_bands, out_required=False)

    p = sub.add_parser(
        "shared-attn", parents=[common], help="run a shared-attention experiment config"
    )
    p.add_argument("config", help="path to an experiment config JSON file")
    p.add_argument("--emit-config", help="write the normalized config here and exit")
    p.set_defaults(func=cmd_shared_attn, out_required=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 3
    except RopeFreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
