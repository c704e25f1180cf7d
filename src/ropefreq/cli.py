"""Command-line front end: decay curves, schedules, band info, experiments.

Subcommands. All outputs are deterministic given the same flags and config.

* ``decay-curve``  CSV of mean band similarity vs. integer position shift.
* ``schedule``     CSV of the per-chunk modulation scales for each axis.
* ``bands``        JSON listing band chunk ranges and frequency extrema.
* ``shared-attn``  JSON report of shared-attention alignment metrics from an
  experiment config file (plus optional raw attention matrices).

Exit codes: 0 success, 2 usage error, 3 config/validation error, 4 I/O error.
``shared-attn`` writes its report, raw matrices and sidecars all or not at all.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

# Every BLAS product the program makes is pinned to one thread
# (diagnostics._blas_pinned), so OpenBLAS's pool threads could only spin: a
# process that loads NumPy here starts OpenBLAS with none. The variable is
# restored as found, so the user's environment and child processes keep
# their count; a process that loaded NumPy before this keeps its own.
if "numpy" not in sys.modules:
    _found = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if _found is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _found
    del _found

import numpy as np

from .attention import (
    BandMaskSpec,
    SharingParams,
    TimestepRamp,
    build_shared_qkv,
    chunk_scales,
    grid_positions,
    plan_shared,
)
from .bands import Band, BandPartition, decay_curve_to_csv, make_even_partition
from .diagnostics import _BLOCK_BYTES, _check_heads, evaluate_shared
from .errors import ConfigurationError, RopeFreqError
from .reportio import layout_to_json, sidecar_path, write_attention_matrix
from .rope import RotaryConfig, frequencies
from .synthetic import _check_scene, make_grid, make_text, plant_scene

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
    """``value`` as a float if it is a finite JSON number (not a bool).

    The bound is a comparison, exact for an integer of any size (and false for
    NaN), where converting an integer too large for a float would raise.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
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
_MODE_KEYS = {"none": (), "plain": ("s",), "shifted": ("s", "offset"),
              "frequency_aware": ("s_hf", "s_lf", "beta", "ramp")}
_RAMP_KEYS = ("s_hf_start", "s_hf_end", "s_lf_start", "s_lf_end", "total_steps")
_BAND_MASK_KEYS = ("label", "start", "stop", "mode", "scale")


def _mode_keys(mode) -> tuple[str, ...]:
    """The keys a sharing section in ``mode`` may hold; every key for a value that is no mode."""
    reads = _MODE_KEYS.get(mode) if isinstance(mode, str) else None
    return _SHARING_KEYS if reads is None else ("mode", "adain", "band_mask", *reads)


def _sharing(raw: dict, context: str = "sharing") -> SharingParams:
    """The parameters of a sharing section; :func:`_sharing_json` renders its normalized echo."""
    _check_keys(raw, _SHARING_KEYS, context)
    mode = _require(raw, "mode", context)
    _check_keys(raw, _mode_keys(mode), f"{context} ({mode} mode)")
    adain = raw.get("adain", True)
    if not isinstance(adain, bool):
        raise ConfigurationError(f"sharing.adain must be true or false, got {adain!r}")
    kwargs: dict = {"mode": mode, "adain_enabled": adain}
    if mode in ("plain", "shifted"):
        kwargs["s"] = _number(raw.get("s", 1.0), "sharing.s")
    if mode == "shifted":
        offset = _ints(_require(raw, "offset", f"{context} (shifted mode)"), "sharing.offset")
        if len(offset) != 2:
            raise ConfigurationError(f"offset must be [x, y], got {offset!r}")
        kwargs["offset"] = tuple(offset)
    if mode == "frequency_aware":
        for key in ("s_hf", "s_lf"):
            value = _require(raw, key, f"{context} (frequency_aware mode)")
            kwargs[key] = _number(value, f"sharing.{key}")
        kwargs["beta"] = _number(raw.get("beta", 2.0), "sharing.beta")
        ramp = raw.get("ramp")
        if ramp is not None:
            _check_keys(ramp, _RAMP_KEYS, "sharing.ramp")
            kwargs["ramp"] = TimestepRamp(**{
                k: (_int if k == "total_steps" else _number)(
                    _require(ramp, k, "sharing.ramp"), f"sharing.ramp.{k}"
                )
                for k in _RAMP_KEYS
            })
    mask = raw.get("band_mask")
    if mask is not None:
        _check_keys(mask, _BAND_MASK_KEYS, "sharing.band_mask")
        label = mask.get("label", "masked")
        if not isinstance(label, str):
            raise ConfigurationError(f"sharing.band_mask.label must be a string, got {label!r}")
        kwargs["band_mask_override"] = BandMaskSpec(
            band=Band(
                label,
                _int(_require(mask, "start", "sharing.band_mask"), "sharing.band_mask.start"),
                _int(_require(mask, "stop", "sharing.band_mask"), "sharing.band_mask.stop"),
            ),
            mode=str(_require(mask, "mode", "sharing.band_mask")),
            scale=None
            if mask.get("scale") is None
            else _number(mask["scale"], "sharing.band_mask.scale"),
        )
    return SharingParams(**kwargs)


def _sharing_json(params: SharingParams) -> dict:
    """The normalized echo of a sharing section: the keys its mode uses.

    ``--emit-config`` writes it, and the report shows it under
    ``config.sharing`` and in each entry's ``sharing``.
    """
    out: dict = {"mode": params.mode, "adain": params.adain_enabled}
    for key in _MODE_KEYS[params.mode]:
        value = getattr(params, key)
        if value is not None:  # all but an unset ramp
            out[key] = asdict(value) if key == "ramp" else list(value) if key == "offset" else value
    mask = params.band_mask_override
    if mask is not None:
        out["band_mask"] = {**asdict(mask.band), "mode": mask.mode, "scale": mask.scale}
    return out


_TOP_KEYS = (
    "rotary", "grid", "scene", "text_tokens", "heads", "sharing", "step", "attribution_bands",
    "sweep", "seed", "output",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated shared-attention experiment description.

    ``normalized`` is the nested config that ``--emit-config`` writes and the
    report echoes under ``config``; unknown fields anywhere are rejected.
    ``rotary``, the ``attribution_bands`` ``partition`` (or None) and
    ``entries`` (each run entry, as :meth:`iter_entries` yields them) are
    derived from it once, so configs compare by ``normalized`` alone.
    """

    normalized: dict
    rotary: RotaryConfig = field(compare=False)
    partition: BandPartition | None = field(compare=False)
    entries: tuple = field(compare=False, repr=False)

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
            sweep = [dict(item) for item in sweep]
        output = d.get("output")
        output = {} if output is None else output
        _check_keys(output, ("report", "attention"), "output")
        for key in ("report", "attention"):
            if output.get(key) == "" or not isinstance(output.get(key), (str, type(None))):
                raise ConfigurationError(f"output.{key} must be a non-empty path or null")
        norm = {
            "rotary": {
                "dim": _int(_require(rotary, "dim", "rotary"), "rotary.dim"),
                "rope_base": _number(rotary.get("rope_base", 10000.0), "rotary.rope_base"),
                "partition": rotary.get("partition", "default"),
            },
            "grid": {
                "width": _int(_require(grid, "width", "grid"), "grid.width", minimum=1),
                "height": _int(_require(grid, "height", "grid"), "grid.height", minimum=1),
            },
            "scene": {
                "kind": str(scene.get("kind", "shuffle")),
                "noise_level": _number(scene.get("noise_level", 0.1), "scene.noise_level"),
                "seed": None
                if scene.get("seed") is None
                else _int(scene["seed"], "scene.seed", minimum=0),
                "shift": _int(scene.get("shift", 0), "scene.shift"),
                "style_strength": _number(scene.get("style_strength", 0.0), "scene.style_strength"),
            },
            "text_tokens": _int(d.get("text_tokens", 0), "text_tokens", minimum=0),
            "heads": _int(d.get("heads", 1), "heads"),
            "step": None if d.get("step") is None else _int(d["step"], "step"),
            "attribution_bands": None
            if d.get("attribution_bands") is None
            else _int(d["attribution_bands"], "attribution_bands"),
            "sweep": sweep,
            "seed": _int(_require(d, "seed", "config"), "seed", minimum=0),
            "output": {"report": output.get("report"), "attention": output.get("attention")},
        }
        # The checks the run makes, so that --emit-config rejects every
        # config they would stop.
        config = build_rotary(**norm["rotary"])
        bands = norm["attribution_bands"]
        partition = None if bands is None else make_even_partition(config, bands)
        _check_heads(norm["heads"], partition, config.dim)
        scene = norm["scene"]
        _check_scene(
            norm["grid"]["width"], norm["grid"]["height"], config.dim, scene["style_strength"],
            scene["kind"], scene["noise_level"], scene["shift"],
        )
        # Sweep items override the base section's echo, of which each inherits only the keys its
        # own mode reads, and the top-level step; not the raw section.
        base = (_sharing(_require(d, "sharing", "config")), norm["step"])
        norm["sharing"] = _sharing_json(base[0])
        swept = []
        for i, item in enumerate(sweep or []):
            keys = _mode_keys(item.get("mode", norm["sharing"]["mode"]))
            merged = {**{k: v for k, v in norm["sharing"].items() if k in keys}, **item}
            step = merged.pop("step", norm["step"])
            params = _sharing(merged, f"sweep[{i}]")
            swept.append((params, None if step is None else _int(step, f"sweep[{i}].step")))
        runs = swept or [base]
        # One logits row (8 bytes a key) must fit in the evaluation's budget.
        # A block multiplies at least three rows, so at the bound its logits
        # take 12 MiB with one head, 24 MiB with two and 36 MiB with more.
        cells = norm["grid"]["width"] * norm["grid"]["height"]
        keys = cells + norm["text_tokens"] + cells * any(p.mode != "none" for p, _ in runs)
        if keys > _BLOCK_BYTES // 8:
            raise ConfigurationError(
                f"an entry has {keys} keys, past the {_BLOCK_BYTES // 8} whose logits fill a block"
            )
        # Each entry is planned as its run plans it, and so is the base
        # section a sweep replaces, since the report echoes it.
        positions = grid_positions(**norm["grid"])
        for params, step in [base, *swept]:
            plan_shared(params, config, step, positions, norm["text_tokens"])
        entries = tuple((f"entry{i}", *run) for i, run in enumerate(runs))
        cfg = cls(normalized=norm, rotary=config, partition=partition, entries=entries)
        _output_paths(cfg, norm["output"]["report"])
        return cfg

    def iter_entries(self):
        """Yield (label, params, step) for the base run or each sweep item."""
        yield from self.entries


def _matrix_paths(cfg: ExperimentConfig) -> list[Path]:
    """Each entry's ``<f4`` matrix path; none unless ``output.attention`` names one."""
    attention = cfg.normalized["output"]["attention"]
    if attention is None:
        return []
    base = Path(attention)
    if len(cfg.entries) == 1:
        return [base]
    return [base.with_name(f"{base.stem}.{label}{base.suffix}") for label, *_ in cfg.entries]


def _output_paths(cfg: ExperimentConfig, report) -> list[Path]:
    """The run's outputs: the report (when given), then each matrix and its sidecar.

    They are compared as resolved paths; two that name the same file raise
    :class:`ConfigurationError`.
    """
    targets = [] if report is None else [Path(report)]
    targets += [p for m in _matrix_paths(cfg) for p in (m, sidecar_path(m))]
    resolved = [t.resolve() for t in targets]
    for i, r in enumerate(resolved):
        if r in resolved[:i]:
            other = targets[resolved.index(r)]
            raise ConfigurationError(f"outputs {other} and {targets[i]} name the same file")
    return targets


def run_experiment(cfg: ExperimentConfig, stage) -> dict:
    """Evaluate every entry; returns the report dict.

    Its ``key_layout`` is the first entry's ``SharedQKV.parts``, which
    :func:`_report_json` renders.

    When the config asks for attention output, each entry's ``<f4`` matrix
    is streamed to ``stage(path)`` block by block and its sidecar written as
    soon as the entry finishes (``stage`` as from :func:`_all_or_nothing`).
    """
    norm, config = cfg.normalized, cfg.rotary
    grid, sc, seed = norm["grid"], norm["scene"], norm["seed"]
    scene_seed = sc["seed"] if sc["seed"] is not None else seed + 1
    n, t = grid["width"] * grid["height"], norm["text_tokens"]
    matrices = _matrix_paths(cfg)
    # One key stack for every entry: each entry draws its scene and text
    # straight into their rows of k, which build_shared_qkv then turns into
    # keys in place, so no feature array exists apart from k.
    k = np.empty((2 * n + t, config.dim))

    entries = []
    key_parts = None
    for i, (label, params, step) in enumerate(cfg.iter_entries()):
        base = make_grid(grid["width"], grid["height"], config.dim, seed, sc["style_strength"], out=k[:n])
        scene = plant_scene(
            base, sc["kind"], sc["noise_level"], scene_seed, sc["shift"], out=k[n + t :]
        )
        text = make_text(t, config.dim, seed=seed + 2, out=k[n : n + t])
        qkv = build_shared_qkv(scene.target, text, scene.reference, params, config, step, out=k)
        # The scene's feature views now hold rotated keys: evaluate_shared
        # reads only its correspondence and target.n_tokens.
        path = stage(matrices[i]) if matrices else None
        with nullcontext() if path is None else path.open("wb") as out:
            evaluation = evaluate_shared(
                qkv,
                scene,
                heads=norm["heads"],
                band_partition=cfg.partition,
                attention_out=out,
            )
        if path is not None:
            write_attention_matrix(path, qkv)
        if key_parts is None:
            key_parts = qkv.parts
        attribution = evaluation.attribution
        entries.append(
            {
                "label": label,
                "sharing": _sharing_json(params),
                "step": step,
                "alignment": evaluation.alignment.as_dict(),
                "notes": list(qkv.notes + evaluation.notes),
                "n_queries": len(qkv.q),
                "n_keys": len(qkv.k),
                "band_attribution": None if attribution is None else attribution.mean_abs_logit,
            }
        )
        # Let go of this entry before building the next, so one is held at a time.
        del qkv, evaluation, attribution, scene, base, text

    result: dict = {"config": norm, "entries": entries, "key_layout": key_parts}
    if len(entries) > 1:
        keys = entries[0]["alignment"].keys()
        result["mean_alignment"] = {
            key: float(np.mean([e["alignment"][key] for e in entries])) for key in keys
        }
    return result


def _dump_json(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigurationError(f"refusing to write a non-finite number: {exc}") from exc


def _report_json(report: dict) -> str:
    """The JSON text of ``report``, as :func:`run_experiment` returns it.

    :func:`_dump_json` writes the report with its key layout as null, on the
    one line that starts with a newline, two spaces and ``"key_layout"``;
    the layout's text from :func:`layout_to_json`, nested one level,
    replaces that null.
    """
    text = _dump_json({**report, "key_layout": None})
    nested = layout_to_json(report["key_layout"]).replace("\n", "\n  ")
    return text.replace('\n  "key_layout": null', '\n  "key_layout": ' + nested, 1)


@contextmanager
def _all_or_nothing():
    """Yield ``stage(path)``, the temporary path to write ``path`` (and its sidecar) at.

    Staged files sit in a hidden directory beside their targets. They are
    renamed into place only when the block completes, and are removed when
    it raises, so a run leaves either all of its outputs or none. A target
    that exists as neither a regular file nor a link (which is replaced),
    such as a directory, a FIFO or a device, raises when it is staged.
    Errors name the target, not its staged file.

    Before the first rename, each existing target is moved into the hidden
    directory; when a rename fails, every rename made is undone, last first,
    which puts back what was there. Should an undo fail too, the hidden
    directories are kept, with whatever they hold.
    """
    staging: dict[Path, Path] = {}

    def stage(path) -> Path:
        path = Path(path)
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not (path.is_file() or path.is_symlink()):
            # Renaming a file over it would replace the FIFO or device node itself.
            raise OSError(f"not a regular file: {str(path)!r}")
        if path.parent not in staging:
            try:
                staging[path.parent] = Path(tempfile.mkdtemp(prefix=".ropefreq-", dir=path.parent))
                # New files and the targets they replace, apart so that no names clash.
                (staging[path.parent] / "new").mkdir()
                (staging[path.parent] / "old").mkdir()
            except OSError as exc:
                # Name the path asked for, not the hidden directory.
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
        return staging[path.parent] / "new" / path.name

    keep = False
    try:
        yield stage
        aside, into_place = [], []  # (source, destination, the target an error names)
        for parent, tmp in staging.items():
            for staged in (tmp / "new").iterdir():
                target = parent / staged.name
                if target.is_symlink() or (target.exists() and not target.is_dir()):
                    aside.append((target, tmp / "old" / staged.name, target))
                into_place.append((staged, target, target))
        renames = aside + into_place
        for i, (source, destination, target) in enumerate(renames):
            try:
                source.replace(destination)
            except OSError as exc:
                for moved_from, moved_to, _ in reversed(renames[:i]):
                    try:
                        moved_to.replace(moved_from)
                    except OSError:
                        keep = True
                raise OSError(exc.errno, exc.strerror, str(target)) from exc
    finally:
        for tmp in () if keep else staging.values():
            shutil.rmtree(tmp, ignore_errors=True)


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all (see :func:`_all_or_nothing`)."""
    with _all_or_nothing() as stage:
        stage(path).write_text(text)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


# Bytes a decay curve's arrays would hold: its int64 deltas and one f64 per
# series per delta. 256 MiB takes --delta-max up to 8,388,607 with the
# default 3 bands, or 6,710,885 with "full" as well. The curve is streamed
# and never held whole, so this caps the size of the CSV, not memory.
_CURVE_BYTES = 2**28


def cmd_decay_curve(args) -> int:
    if args.delta_max < 0:
        raise ConfigurationError(f"--delta-max must be >= 0, got {args.delta_max}")
    config = RotaryConfig.single_axis(args.dim, args.rope_base)
    partition = make_even_partition(config, args.bands)
    n_series = len(partition.bands) + args.include_full
    largest = _CURVE_BYTES // (8 * (1 + n_series)) - 1
    if args.delta_max > largest:
        raise ConfigurationError(
            f"--delta-max must be at most {largest} for {n_series} series, got {args.delta_max}"
        )
    # Opened first, so that a missing directory, or a directory at --out,
    # fails before any chunk.
    with _all_or_nothing() as stage, stage(args.out).open("w") as out:
        decay_curve_to_csv(range(args.delta_max + 1), partition, config, out, args.include_full)
    _info(args, f"wrote {Path(args.out)}")
    return 0


def cmd_schedule(args) -> int:
    config = build_rotary(args.dim, 10000.0, args.partition)
    scales = chunk_scales(config, args.s_hf, args.s_lf, args.beta)
    lines = ["axis,d,s_d"]
    for axis, chunks in (
        ("x", config.x_chunks),
        ("y", config.y_chunks),
        ("temporal", config.temporal_chunks),
    ):
        for d in chunks:
            lines.append(f"{axis},{d},{format(scales[d], '.17g')}")
    _write(args.out, "\n".join(lines) + "\n")
    _info(args, f"wrote {Path(args.out)}")
    return 0


def cmd_bands(args) -> int:
    config = RotaryConfig.single_axis(args.dim, args.rope_base)
    partition = make_even_partition(config, args.bands)
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
    if args.out is not None:
        _write(args.out, text)
        _info(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice raises :class:`ConfigurationError`."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigurationError(f"duplicate key {key!r}")
        out[key] = value
    return out


def cmd_shared_attn(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"invalid config {args.config}: not UTF-8 ({exc})") from exc
    # Not JSON, an integer with more digits than int() takes, a repeated key, or nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"invalid config {args.config}: {exc}") from exc
    cfg = ExperimentConfig.from_json_dict(raw)
    if args.seed is not None:
        seed = _int(args.seed, "seed", minimum=0)
        cfg = replace(cfg, normalized={**cfg.normalized, "seed": seed})
    if args.emit_config:
        _write(args.emit_config, _dump_json(cfg.normalized))
        _info(args, f"wrote {args.emit_config}")
        return 0

    report_path = cfg.normalized["output"]["report"] if args.out is None else args.out
    targets = _output_paths(cfg, report_path)
    with _all_or_nothing() as stage:
        # Every target is staged first, so that a missing directory, or a
        # directory at a target, fails before the run.
        staged = [stage(target) for target in targets]
        report = _report_json(run_experiment(cfg, stage))
        if report_path is not None:
            staged[0].write_text(report)
    if report_path is None:
        sys.stdout.write(report)
    for path in ([] if report_path is None else [report_path]) + _matrix_paths(cfg):
        _info(args, f"wrote {path}")
    return 0


def _path(value: str) -> str:
    """An output path flag's value; an empty one is a usage error."""
    if not value:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropefreq",
        description="Rotary-embedding frequency analysis and shared-attention experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress status messages")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decay-curve",
        parents=[common],
        help="mean band similarity vs. position shift, as CSV",
    )
    p.add_argument("--out", type=_path, required=True, help="output CSV path")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--bands", type=int, default=3)
    p.add_argument(
        "--delta-max", type=int, default=64,
        help="largest shift; at most 8,388,607 for 3 bands, a cap on the CSV's size",
    )
    p.add_argument("--include-full", action="store_true", help="add a series over all chunks")
    p.set_defaults(func=cmd_decay_curve)

    p = sub.add_parser(
        "schedule", parents=[common], help="per-chunk modulation scales, as CSV"
    )
    p.add_argument("--out", type=_path, required=True, help="output CSV path")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--s-hf", type=float, required=True)
    p.add_argument("--s-lf", type=float, required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--partition", default="default")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "bands", parents=[common], help="band chunk ranges and frequency extrema, as JSON"
    )
    p.add_argument("--out", type=_path, help="output JSON path (default: standard output)")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--bands", type=int, default=3)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser(
        "shared-attn", parents=[common], help="run a shared-attention experiment config"
    )
    p.add_argument("config", help="path to an experiment config JSON file")
    p.add_argument("--out", type=_path, help="report path, in place of output.report")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--emit-config", type=_path, help="write the normalized config here and exit")
    p.set_defaults(func=cmd_shared_attn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RopeFreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
