"""Scaled-dot-product attention with rotary positions and key sharing.

Tokens carry their own features (no learned projections: a token's query,
key, and value are all its feature vector), so attention here isolates the
positional mechanics. Two entry points:

* :func:`attend` runs plain attention between two token sets, rotating
  queries and keys by their grid positions.
* :func:`shared_attend` evaluates the sharing setup: a target image plus its
  text tokens attend over their own keys concatenated with keys from a
  reference image. Reference keys can be scaled uniformly, per frequency
  chunk (interpolating from ``s_hf`` at the fastest chunk to ``s_lf`` at the
  slowest), or given shifted positions. AdaIN re-statistics the target image
  features against the reference before any rotation.

Attention is evaluated one block of query rows at a time. Both entry points
stack the blocks into the dense arrays of their report;
:func:`ropefreq.diagnostics.evaluate_shared` folds the same blocks into its
metrics and keeps none of them.

Per-chunk scaling commutes with rotation (both act chunk-diagonally), so
modulating before or after the rotary encoding is equivalent; this module
modulates rotated keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bands import Band, BandPartition, band_mask
from .errors import ConfigurationError, ShapeError
from .rope import Position2D, RotaryConfig, apply_rope_batch, as_position

__all__ = [
    "TokenSet",
    "ModulationSchedule",
    "TimestepRamp",
    "BandMaskSpec",
    "SharingParams",
    "KeyLabel",
    "AttentionReport",
    "SharedQKV",
    "adain",
    "attend",
    "build_shared_qkv",
    "shared_attend",
    "modulation_scales",
    "ramp_at",
    "shift_positions",
    "grid_positions",
]

MODALITIES = ("image", "text")
SHARING_MODES = ("none", "plain", "frequency_aware", "shifted")

ADAIN_STD_FLOOR = 1e-8


def grid_positions(width: int, height: int) -> np.ndarray:
    """Row-major (x, y) coordinates of a width-by-height grid."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.int64)


@dataclass(frozen=True)
class TokenSet:
    """A batch of feature vectors with integer grid positions.

    Text tokens all sit at position (0, 0). An image set with a
    ``grid_shape`` must enumerate the grid row-major; image sets without a
    grid shape may use arbitrary positions (e.g. shifted layouts).
    """

    features: np.ndarray
    positions: np.ndarray
    modality: str
    grid_shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        pos_in = np.asarray(self.positions)
        if pos_in.dtype.kind == "f" and pos_in.size and np.any(pos_in != np.round(pos_in)):
            raise ConfigurationError("positions must be integer grid coordinates")
        pos = pos_in.astype(np.int64)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D (n, dim), got shape {feats.shape}")
        if pos.shape != (feats.shape[0], 2):
            raise ShapeError(
                f"positions must have shape ({feats.shape[0]}, 2), got {pos.shape}"
            )
        if feats.size and not np.all(np.isfinite(feats)):
            raise ConfigurationError("features must be finite")
        if self.modality not in MODALITIES:
            raise ConfigurationError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.modality == "text":
            if np.any(pos != 0):
                raise ConfigurationError("text tokens must sit at position (0, 0)")
            if self.grid_shape is not None:
                raise ConfigurationError("text tokens carry no grid shape")
        elif self.grid_shape is not None:
            w, h = self.grid_shape
            if w <= 0 or h <= 0:
                raise ConfigurationError(f"grid_shape must be positive, got {self.grid_shape}")
            if feats.shape[0] != w * h or not np.array_equal(pos, grid_positions(w, h)):
                raise ConfigurationError(
                    "image positions must enumerate grid_shape row-major"
                )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "positions", pos)

    @property
    def n_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def modulation_scales(s_hf: float, s_lf: float, beta: float, n_chunks_axis: int) -> np.ndarray:
    """Per-chunk scales interpolating from ``s_hf`` to ``s_lf``.

    Chunk ``d`` of an axis with ``n`` chunks gets
    ``s_hf + (s_lf - s_hf) * (d / (n - 1)) ** beta``; the endpoints are set
    to ``s_hf`` and ``s_lf`` exactly. Monotone whenever ``s_lf >= s_hf``.
    """
    if n_chunks_axis < 2:
        raise ConfigurationError(
            f"an axis schedule needs at least 2 chunks, got {n_chunks_axis}"
        )
    if not beta > 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    d_norm = np.arange(n_chunks_axis, dtype=np.float64) / (n_chunks_axis - 1)
    scales = s_hf + (s_lf - s_hf) * d_norm**beta
    scales[0] = s_hf
    scales[-1] = s_lf
    return scales


@dataclass(frozen=True)
class ModulationSchedule:
    """Per-chunk scale vector for frequency-aware key modulation.

    The interpolation runs independently over each spatial axis's chunks
    (ordered fastest to slowest within the axis); temporal chunks always get
    ``s_lf`` since they carry no positional sensitivity.
    """

    s_hf: float
    s_lf: float
    beta: float
    per_chunk_scales: np.ndarray

    def __post_init__(self) -> None:
        if not self.s_hf > 0 or not self.s_lf > 0:
            raise ConfigurationError("modulation scales must be positive")
        if not self.beta > 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        object.__setattr__(
            self, "per_chunk_scales", np.asarray(self.per_chunk_scales, dtype=np.float64)
        )

    @classmethod
    def for_config(
        cls, config: RotaryConfig, s_hf: float, s_lf: float, beta: float
    ) -> "ModulationSchedule":
        scales = np.empty(config.n_chunks, dtype=np.float64)
        for axis_chunks in (config.x_chunks, config.y_chunks):
            if not axis_chunks:
                continue
            idx = np.asarray(axis_chunks)
            scales[idx] = modulation_scales(s_hf, s_lf, beta, len(axis_chunks))
        if config.temporal_chunks:
            scales[np.asarray(config.temporal_chunks)] = s_lf
        return cls(s_hf=s_hf, s_lf=s_lf, beta=beta, per_chunk_scales=scales)


@dataclass(frozen=True)
class TimestepRamp:
    """Linear schedules for ``s_hf`` and ``s_lf`` across denoising steps."""

    s_hf_start: float
    s_hf_end: float
    s_lf_start: float
    s_lf_end: float
    total_steps: int

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigurationError(f"total_steps must be >= 1, got {self.total_steps}")


def ramp_at(ramp: TimestepRamp, t: int) -> tuple[float, float]:
    """Effective ``(s_hf, s_lf)`` at step ``t`` of the ramp.

    ``t = 0`` returns the start values exactly, ``t = total_steps - 1`` the
    end values exactly; a one-step ramp always returns the start values.
    """
    if t < 0 or t >= ramp.total_steps:
        raise ConfigurationError(f"step {t} outside 0..{ramp.total_steps - 1}")
    if t == 0 or ramp.total_steps == 1:
        return (ramp.s_hf_start, ramp.s_lf_start)
    if t == ramp.total_steps - 1:
        return (ramp.s_hf_end, ramp.s_lf_end)
    frac = t / (ramp.total_steps - 1)
    return (
        ramp.s_hf_start + (ramp.s_hf_end - ramp.s_hf_start) * frac,
        ramp.s_lf_start + (ramp.s_lf_end - ramp.s_lf_start) * frac,
    )


@dataclass(frozen=True)
class BandMaskSpec:
    """Optional band zero/scale applied to rotated reference keys."""

    band: Band
    mode: str
    scale: float | None = None


@dataclass(frozen=True)
class SharingParams:
    """How reference keys and values enter the target's attention.

    Modes: "none" (no sharing), "plain" (reference keys scaled by the scalar
    ``s``), "frequency_aware" (per-chunk scales from ``schedule``, optionally
    re-interpolated over time by ``ramp``), "shifted" (reference positions
    offset before rotation, keys scaled by ``s``).
    """

    mode: str
    s: float = 1.0
    schedule: ModulationSchedule | None = None
    ramp: TimestepRamp | None = None
    offset: Position2D | None = None
    adain_enabled: bool = True
    band_mask_override: BandMaskSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in SHARING_MODES:
            raise ConfigurationError(f"mode must be one of {SHARING_MODES}, got {self.mode!r}")
        if self.mode in ("plain", "shifted") and not self.s > 0:
            raise ConfigurationError(f"scalar s must be positive, got {self.s}")
        if self.mode == "frequency_aware" and self.schedule is None:
            raise ConfigurationError("frequency_aware mode requires a schedule")
        if self.mode != "frequency_aware" and (self.schedule is not None or self.ramp is not None):
            raise ConfigurationError("schedule/ramp only apply to frequency_aware mode")
        if self.mode == "shifted":
            if self.offset is None:
                raise ConfigurationError("shifted mode requires an offset")
            object.__setattr__(self, "offset", as_position(self.offset))
        elif self.offset is not None:
            raise ConfigurationError("offset only applies to shifted mode")


@dataclass(frozen=True)
class KeyLabel:
    """Provenance of one key (or query) row: source, index within source, position."""

    source: str
    index: int
    position: Position2D


@dataclass(frozen=True)
class AttentionReport:
    """One attention evaluation: weights, outputs, and row provenance.

    ``attention`` rows sum to 1 (head-averaged when ``heads > 1``).
    ``per_band_logits``, when present, holds each band's additive share of the
    pre-softmax logits (after the 1/sqrt(head_dim) scaling, before the
    stabilizing max subtraction); summing over bands recovers the full logits.
    """

    attention: np.ndarray
    output: np.ndarray
    key_layout: tuple[KeyLabel, ...]
    query_layout: tuple[KeyLabel, ...]
    heads: int = 1
    per_band_logits: np.ndarray | None = None
    band_partition: BandPartition | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.attention.shape != (len(self.query_layout), len(self.key_layout)):
            raise ShapeError("attention shape does not match the query/key layouts")

    @property
    def band_labels(self) -> tuple[str, ...] | None:
        return self.band_partition.labels if self.band_partition is not None else None


@dataclass(frozen=True)
class SharedQKV:
    """Assembled shared-attention inputs; queries and keys already rotated."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    key_layout: tuple[KeyLabel, ...]
    query_layout: tuple[KeyLabel, ...]
    notes: tuple[str, ...] = ()


def adain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re-statistic ``x`` per channel to the mean/std of ``y``.

    Uses population statistics. Channels of ``x`` with std below 1e-8 cannot
    be normalized; they pass through as the constant ``mean(y)`` (zero scale).
    """
    xm = np.asarray(x, dtype=np.float64)
    ym = np.asarray(y, dtype=np.float64)
    if xm.ndim != 2 or ym.ndim != 2 or xm.shape[1] != ym.shape[1]:
        raise ShapeError(f"adain needs two (n, dim) matrices of equal width, got {xm.shape} and {ym.shape}")
    if ym.shape[0] < 2:
        raise ShapeError("reference statistics need at least 2 rows")
    mean_x, std_x = xm.mean(axis=0), xm.std(axis=0)
    mean_y, std_y = ym.mean(axis=0), ym.std(axis=0)
    degenerate = std_x < ADAIN_STD_FLOOR
    safe_std = np.where(degenerate, 1.0, std_x)
    out = (xm - mean_x) / safe_std * std_y + mean_y
    if np.any(degenerate):
        out[:, degenerate] = mean_y[degenerate]
    return out


# Bytes of f64 logits one block of query rows may hold. A block's height is
# this budget over the bytes in one row of logits, so the working set stays
# flat however many keys there are.
_BLOCK_BYTES = 4 * 2**20


def _block_rows(n_keys: int) -> int:
    """Query rows per block for ``n_keys`` keys."""
    return max(1, _BLOCK_BYTES // (8 * max(n_keys, 1)))


def _attention_blocks(
    q_rot: np.ndarray,
    k_rot: np.ndarray,
    v: np.ndarray | None,
    heads: int,
    band_partition: BandPartition | None,
    config: RotaryConfig,
    band_keys=slice(None),
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray | None]]:
    """Evaluate attention one block of query rows at a time.

    Yields ``(start, attention, output, per_band)`` for query rows
    ``start:start + len(attention)``: the head-averaged softmax rows over
    every key, their weighted values (``None`` without ``v``), and each
    band's share of the scaled logits against ``k_rot[band_keys]``, shaped
    (bands, rows, band keys), or ``None`` without a partition. Every key is
    in every block, so each softmax row is exact and needs no rescaling.

    Heads and partition are checked (:func:`_check_heads`) before the first
    block; a softmax row that is not finite (overflowing or NaN logits)
    raises :class:`ConfigurationError` in its block.
    """
    _check_heads(heads, band_partition, config)
    return _blocks(q_rot, k_rot, v, heads, band_partition, k_rot[band_keys])


def _check_heads(heads: int, band_partition: BandPartition | None, config: RotaryConfig) -> None:
    """Raise :class:`ConfigurationError` unless ``heads`` and the partition fit ``config``."""
    if heads < 1:
        raise ConfigurationError(f"heads must be >= 1, got {heads}")
    if config.dim % (2 * heads) != 0:
        raise ConfigurationError(
            f"dim={config.dim} must be divisible by 2*heads={2 * heads} so heads own whole chunks"
        )
    if band_partition is not None:
        if heads != 1:
            raise ConfigurationError("per-band logit decomposition requires heads=1")
        if not band_partition.covers_all_chunks(config):
            raise ConfigurationError(
                "band decomposition needs a partition covering every chunk"
            )


def _blocks(q_rot, k_rot, v, heads, band_partition, band_k):
    dim = q_rot.shape[1]
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(head_dim)
    step = _block_rows(k_rot.shape[0])
    for start in range(0, q_rot.shape[0], step):
        qb = q_rot[start : start + step]
        attention = None
        output = None if v is None else np.empty((qb.shape[0], dim))
        # Overflowing or NaN logits are caught by the finiteness guard below,
        # so NumPy's own warnings about them would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(heads):
                sl = slice(h * head_dim, (h + 1) * head_dim)
                a = qb[:, sl] @ k_rot[:, sl].T
                a *= scale
                a -= a.max(axis=1, keepdims=True)
                np.exp(a, out=a)
                total = a.sum(axis=1, keepdims=True)
                # Each row holds exp(0) = 1, so a finite total means every
                # entry is finite; NaN or overflow anywhere makes it non-finite.
                if not np.isfinite(total).all():
                    raise ConfigurationError(
                        "attention softmax is not finite: the logits overflow or contain NaN"
                    )
                a /= total
                if output is not None:
                    output[:, sl] = a @ v[:, sl]
                if attention is None:
                    attention = a
                else:
                    attention += a
        attention /= heads

        per_band = None
        if band_partition is not None:
            per_band = np.empty((len(band_partition.bands), qb.shape[0], band_k.shape[0]))
            for i, band in enumerate(band_partition.bands):
                cols = slice(2 * band.start, 2 * band.stop)
                per_band[i] = (qb[:, cols] @ band_k[:, cols].T) * scale
        yield start, attention, output, per_band


def _dense(
    q_rot: np.ndarray,
    k_rot: np.ndarray,
    v: np.ndarray,
    heads: int,
    band_partition: BandPartition | None,
    config: RotaryConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stack every block into the dense arrays an :class:`AttentionReport` holds."""
    nq, nk = q_rot.shape[0], k_rot.shape[0]
    blocks = _attention_blocks(q_rot, k_rot, v, heads, band_partition, config)
    attention = np.empty((nq, nk))
    output = np.empty((nq, config.dim))
    per_band = None
    if band_partition is not None:
        per_band = np.empty((len(band_partition.bands), nq, nk))
    for start, block_attention, block_output, block_per_band in blocks:
        rows = slice(start, start + block_attention.shape[0])
        attention[rows] = block_attention
        output[rows] = block_output
        if per_band is not None:
            per_band[:, rows] = block_per_band
    return attention, output, per_band


def _layout(source: str, positions: np.ndarray) -> list[KeyLabel]:
    return [
        KeyLabel(source, i, Position2D(int(x), int(y)))
        for i, (x, y) in enumerate(positions)
    ]


def attend(
    Q: TokenSet,
    K: TokenSet,
    V: np.ndarray,
    config: RotaryConfig,
    heads: int = 1,
    band_partition: BandPartition | None = None,
) -> AttentionReport:
    """Rotary attention of one token set over another.

    Queries and keys are rotated at their own positions, logits scaled by
    ``1/sqrt(dim/heads)``, and each head attends over its own contiguous
    chunk slice. ``V`` must align row-wise with ``K``.
    """
    if Q.dim != config.dim or K.dim != config.dim:
        raise ShapeError(f"token features must have width {config.dim}")
    v = np.asarray(V, dtype=np.float64)
    if v.shape != (K.n_tokens, config.dim):
        raise ShapeError(f"V must have shape ({K.n_tokens}, {config.dim}), got {v.shape}")
    q_rot = apply_rope_batch(Q.features, Q.positions, config)
    k_rot = apply_rope_batch(K.features, K.positions, config)
    attention, output, per_band = _dense(q_rot, k_rot, v, heads, band_partition, config)
    source_q = "target-image" if Q.modality == "image" else "target-text"
    source_k = "target-image" if K.modality == "image" else "target-text"
    return AttentionReport(
        attention=attention,
        output=output,
        key_layout=tuple(_layout(source_k, K.positions)),
        query_layout=tuple(_layout(source_q, Q.positions)),
        heads=heads,
        per_band_logits=per_band,
        band_partition=band_partition,
    )


def _effective_schedule(
    params: SharingParams, config: RotaryConfig, step: int | None
) -> tuple[ModulationSchedule, list[str]]:
    notes: list[str] = []
    schedule = params.schedule
    assert schedule is not None
    if params.ramp is not None and step is not None:
        s_hf_t, s_lf_t = ramp_at(params.ramp, step)
        schedule = ModulationSchedule.for_config(config, s_hf_t, s_lf_t, schedule.beta)
    elif step is not None:
        notes.append("step given without a ramp; using the base schedule")
    if schedule.per_chunk_scales.shape != (config.n_chunks,):
        raise ConfigurationError(
            f"schedule has {schedule.per_chunk_scales.shape[0]} chunk scales, config needs {config.n_chunks}"
        )
    return schedule, notes


def build_shared_qkv(
    target: TokenSet,
    target_text: TokenSet,
    reference: TokenSet,
    params: SharingParams,
    config: RotaryConfig,
    step: int | None = None,
) -> SharedQKV:
    """Assemble rotated queries, keys, and values for shared attention.

    Queries are the target image tokens (AdaIN-normalized to the reference
    when enabled) followed by the target text tokens, rotated at their own
    positions. Keys are the same rows followed by the reference image keys,
    rotated at the target's grid coordinates (plus the offset in shifted
    mode) and then scaled per the sharing mode. Values concatenate the raw
    target image, target text, and reference features, unmodulated.
    """
    if target.modality != "image" or reference.modality != "image":
        raise ConfigurationError("target and reference must be image token sets")
    if target_text.modality != "text":
        raise ConfigurationError("target_text must be a text token set")
    if target.dim != config.dim or reference.dim != config.dim or target_text.dim != config.dim:
        raise ShapeError(f"all feature widths must equal {config.dim}")
    if params.mode != "none" and target.grid_shape != reference.grid_shape:
        raise ShapeError(
            f"target and reference grids differ: {target.grid_shape} vs {reference.grid_shape}"
        )

    notes: list[str] = []
    img_feats = target.features
    if params.adain_enabled and params.mode != "none":
        img_feats = adain(img_feats, reference.features)

    img_rot = apply_rope_batch(img_feats, target.positions, config)
    txt_rot = apply_rope_batch(target_text.features, target_text.positions, config)
    q = np.vstack([img_rot, txt_rot])
    query_layout = _layout("target-image", target.positions) + _layout(
        "target-text", target_text.positions
    )

    k_parts = [img_rot, txt_rot]
    v_parts = [target.features, target_text.features]
    key_layout = list(query_layout)

    if params.mode != "none":
        ref_positions = reference.positions
        if params.mode == "shifted":
            off = params.offset
            if off.x == 0 and off.y == 0:
                notes.append("shifted mode with zero offset degenerates to plain")
            ref_positions = shift_positions(ref_positions, off)
        ref_rot = apply_rope_batch(reference.features, ref_positions, config)
        if params.mode in ("plain", "shifted"):
            ref_rot = ref_rot * params.s
        else:
            schedule, sched_notes = _effective_schedule(params, config, step)
            notes.extend(sched_notes)
            ref_rot = ref_rot * np.repeat(schedule.per_chunk_scales, 2)
        if params.band_mask_override is not None:
            spec = params.band_mask_override
            ref_rot = band_mask(ref_rot, spec.band, spec.mode, config, spec.scale)
        k_parts.append(ref_rot)
        v_parts.append(reference.features)
        key_layout += _layout("reference-image", ref_positions)

    return SharedQKV(
        q=q,
        k=np.vstack(k_parts),
        v=np.vstack(v_parts),
        key_layout=tuple(key_layout),
        query_layout=tuple(query_layout),
        notes=tuple(notes),
    )


def shared_attend(
    target: TokenSet,
    target_text: TokenSet,
    reference: TokenSet,
    params: SharingParams,
    config: RotaryConfig,
    heads: int = 1,
    step: int | None = None,
    band_partition: BandPartition | None = None,
) -> AttentionReport:
    """Evaluate shared attention and package the result."""
    qkv = build_shared_qkv(target, target_text, reference, params, config, step)
    attention, output, per_band = _dense(qkv.q, qkv.k, qkv.v, heads, band_partition, config)
    return AttentionReport(
        attention=attention,
        output=output,
        key_layout=qkv.key_layout,
        query_layout=qkv.query_layout,
        heads=heads,
        per_band_logits=per_band,
        band_partition=band_partition,
        notes=qkv.notes,
    )


def shift_positions(positions: np.ndarray, offset) -> np.ndarray:
    """Translate an ``(n, 2)`` integer position array by ``offset``."""
    pos = np.asarray(positions)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ShapeError(f"expected positions of shape (n, 2), got {pos.shape}")
    off = as_position(offset)
    return pos + np.array([off.x, off.y], dtype=pos.dtype)
