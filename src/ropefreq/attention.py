"""Scaled-dot-product attention with rotary positions and key sharing.

Tokens carry their own features (no learned projections: a token's query
and key are both its feature vector), so attention here isolates the
positional mechanics.

:func:`build_shared_qkv` assembles the one setting studied: a target image
plus its text tokens attend over their own keys concatenated with keys from
a reference image. Reference keys can be scaled uniformly, per frequency
chunk (interpolating from ``s_hf`` at the fastest chunk to ``s_lf`` at the
slowest), or given shifted positions. AdaIN re-statistics the target image
features against the reference before any rotation.

Attention is evaluated one block of query rows at a time (:func:`_blocks`,
which yields softmax rows only); :func:`ropefreq.diagnostics.evaluate_shared`
folds each block into its metrics and keeps none of them.

Per-chunk scaling commutes with rotation (both act chunk-diagonally), so
modulating before or after the rotary encoding is equivalent; this module
modulates rotated keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bands import Band, BandPartition
from .errors import ConfigurationError, ShapeError
from .rope import RotaryConfig, _position, apply_rope_batch

__all__ = [
    "TokenSet",
    "ModulationSchedule",
    "TimestepRamp",
    "BandMaskSpec",
    "SharingParams",
    "Layout",
    "SharedQKV",
    "adain",
    "build_shared_qkv",
    "modulation_scales",
    "ramp_at",
    "shift_positions",
    "grid_positions",
]

MODALITIES = ("image", "text")
SHARING_MODES = ("none", "plain", "frequency_aware", "shifted")

ADAIN_STD_FLOOR = 1e-8
_ROWS_BYTES = 2**20  # bytes of f64 rows AdaIN's statistics and the scene builders take at a time


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


def _check_scales(s_hf: float, s_lf: float, beta: float) -> None:
    """Raise :class:`ConfigurationError` unless all three are finite and positive."""
    for name, value in (("s_hf", s_hf), ("s_lf", s_lf), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def modulation_scales(s_hf: float, s_lf: float, beta: float, n_chunks_axis: int) -> np.ndarray:
    """Per-chunk scales interpolating from ``s_hf`` to ``s_lf``.

    Chunk ``d`` of an axis with ``n`` chunks gets
    ``s_hf + (s_lf - s_hf) * (d / (n - 1)) ** beta``; the endpoints are set
    to ``s_hf`` and ``s_lf`` exactly. Monotone whenever ``s_lf >= s_hf``.
    All three must be finite and positive.
    """
    _check_scales(s_hf, s_lf, beta)
    if n_chunks_axis < 2:
        raise ConfigurationError(f"an axis schedule needs at least 2 chunks, got {n_chunks_axis}")
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
        _check_scales(self.s_hf, self.s_lf, self.beta)
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

    def factor(self, config: RotaryConfig) -> float:
        """The factor the band's coordinates of each reference key are multiplied by.

        Raises :class:`ConfigurationError` if the band does not fit ``config``
        or the mode (and scale) are not a valid mask.
        """
        if self.band.stop > config.n_chunks:
            raise ConfigurationError(f"band {self.band.label!r} extends past the last chunk")
        if self.mode == "zero":
            return 0.0
        if self.mode == "scale":
            if self.scale is None:
                raise ConfigurationError("mode 'scale' requires a scale value")
            return float(self.scale)
        raise ConfigurationError(f"mode must be 'zero' or 'scale', got {self.mode!r}")


@dataclass(frozen=True)
class SharingParams:
    """How reference keys enter the target's attention.

    Modes: "none" (no sharing), "plain" (reference keys scaled by the scalar
    ``s``), "frequency_aware" (per-chunk scales from ``schedule``, optionally
    re-interpolated over time by ``ramp``), "shifted" (reference positions
    offset before rotation, keys scaled by ``s``).
    """

    mode: str
    s: float = 1.0
    schedule: ModulationSchedule | None = None
    ramp: TimestepRamp | None = None
    offset: tuple[int, int] | None = None
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
            object.__setattr__(self, "offset", tuple(_position(self.offset)[0].tolist()))
        elif self.offset is not None:
            raise ConfigurationError("offset only applies to shifted mode")


@dataclass(frozen=True, eq=False)
class Layout:
    """A stack of token rows as runs, one ``(source, positions)`` part per source.

    Each part's rows follow the previous part's, in order; ``positions`` are
    the part's grid coordinates (``(n, 2)``), row ``i`` of the part being
    row ``i`` of its source.
    """

    parts: tuple[tuple[str, np.ndarray], ...]

    def __len__(self) -> int:
        return sum(len(pos) for _, pos in self.parts)

    @property
    def positions(self) -> np.ndarray:
        """The grid position of every row, ``(len(self), 2)``."""
        return np.concatenate([pos for _, pos in self.parts])

    def rows(self, source: str) -> slice:
        """The rows of ``source``; an empty slice at the end when there are none."""
        start = 0
        for src, pos in self.parts:
            if src == source:
                return slice(start, start + len(pos))
            start += len(pos)
        return slice(start, start)


@dataclass(frozen=True)
class SharedQKV:
    """Assembled shared-attention keys, already rotated, and their layout.

    The keys stack the target image, the target text and (unless the mode
    is "none") the reference image; the queries are the first two of
    those runs, so ``q`` is a view of the leading rows of ``k``.
    """

    k: np.ndarray
    key_layout: Layout
    notes: tuple[str, ...] = ()

    @property
    def query_layout(self) -> Layout:
        return Layout(self.key_layout.parts[:2])

    @property
    def q(self) -> np.ndarray:
        return self.k[: len(self.query_layout)]


def _column_stats(x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``x.mean(axis=0)`` and ``x.std(axis=0)`` bit for bit, ``rows`` rows at a time.

    NumPy adds a C-contiguous matrix's rows one by one; so does each block, after row 0's sums.
    """
    if x.shape[1] < 2 or not x.flags.c_contiguous:  # NumPy sums these pairwise
        return x.mean(axis=0), x.std(axis=0)
    buf, total = np.empty((min(rows, len(x)) + 1, x.shape[1])), np.empty(x.shape[1])

    def column_means(term) -> np.ndarray:
        for lo in range(0, len(x), rows):
            m = min(rows, len(x) - lo)
            term(x[lo : lo + m], buf[1 : m + 1])
            buf[0] = total
            np.add.reduce(buf[int(lo == 0) : m + 1], axis=0, out=total)
        return total / len(x)

    mean = column_means(lambda block, out: np.copyto(out, block))
    var = column_means(lambda block, out: np.square(np.subtract(block, mean, out=out), out=out))
    return mean, np.sqrt(var, out=var)


def adain(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Re-statistic ``x`` per channel to the mean/std of ``y``.

    Uses population statistics. Channels of ``x`` with std below 1e-8 cannot
    be normalized; they pass through as the constant ``mean(y)`` (zero scale).
    The result is written to ``out`` (a new array when it is ``None``), an
    f64 array of ``x``'s shape which may be ``x`` itself, and ``out`` is
    returned. Besides ``out`` it holds one block of rows (:func:`_column_stats`).
    """
    xm = np.asarray(x, dtype=np.float64)
    ym = np.asarray(y, dtype=np.float64)
    if xm.ndim != 2 or ym.ndim != 2 or xm.shape[1] != ym.shape[1]:
        raise ShapeError(f"adain needs two (n, dim) matrices of equal width, got {xm.shape} and {ym.shape}")
    if ym.shape[0] < 2:
        raise ShapeError("reference statistics need at least 2 rows")
    if out is not None and (out.shape != xm.shape or out.dtype != np.float64):
        raise ShapeError(f"expected an f64 out of shape {xm.shape}, got {out.dtype} {out.shape}")
    rows = max(1, _ROWS_BYTES // (8 * xm.shape[1]))
    (mean_x, std_x), (mean_y, std_y) = _column_stats(xm, rows), _column_stats(ym, rows)
    degenerate = std_x < ADAIN_STD_FLOOR
    safe_std = np.where(degenerate, 1.0, std_x)
    out = np.subtract(xm, mean_x, out=out)
    out /= safe_std
    out *= std_y
    out += mean_y
    if np.any(degenerate):
        out[:, degenerate] = mean_y[degenerate]
    return out


# Bytes of f64 logits one block of query rows may hold, counting every
# logits buffer of the block. A block's height is this budget over the bytes
# those buffers take per query row, so the working set stays flat however
# many keys and heads there are.
_BLOCK_BYTES = 4 * 2**20


def _row_bytes(n_keys: int, heads: int) -> int:
    """Bytes of f64 logits a block holds per query row over ``n_keys`` keys.

    One row per logits buffer: the first head's, which becomes the head
    average, and with more heads one that each further head is computed in.
    """
    return 8 * max(n_keys, 1) * min(heads, 2)


def _block_rows(n_keys: int, heads: int = 1) -> int:
    """Query rows per block for ``n_keys`` keys and ``heads`` heads."""
    return max(1, _BLOCK_BYTES // _row_bytes(n_keys, heads))


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


def _logit_scale(head_dim: int) -> float:
    """The factor a head's logits are scaled by: 1/sqrt of its width."""
    return 1.0 / math.sqrt(head_dim)


def _blocks(q_rot: np.ndarray, k_rot: np.ndarray, heads: int) -> Iterator[tuple[int, np.ndarray]]:
    """Evaluate attention one block of query rows at a time.

    Yields ``(start, attention)``: the head-averaged softmax rows of query
    rows ``start:start + len(attention)`` over every key, so each row is
    exact. ``attention`` is a C-contiguous view of a buffer the next block
    overwrites (the caller may compute in it): copy what must outlive it. A
    block is :func:`_block_rows` high, so its logits buffers (two with more
    than one head) together hold at most
    ``_BLOCK_BYTES``, or one row of each when a row alone passes it.

    ``heads`` must divide the width into whole chunks (:func:`_check_heads`);
    a softmax row that is not finite (overflowing or NaN logits) raises
    :class:`ConfigurationError` in its block.
    """
    head_dim = q_rot.shape[1] // heads
    scale = _logit_scale(head_dim)
    step = _block_rows(k_rot.shape[0], heads)
    # Every block is computed into the same buffers, so one block is held
    # however many there are, and no block's memory goes back to the
    # allocator only to be asked for again.
    logits = np.empty((min(heads, 2), min(step, q_rot.shape[0]), k_rot.shape[0]))
    for start in range(0, q_rot.shape[0], step):
        qb = q_rot[start : start + step]
        attention = logits[0, : qb.shape[0]]
        # Overflowing or NaN logits are caught by the finiteness guard below,
        # so NumPy's own warnings about them would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(heads):
                sl = slice(h * head_dim, (h + 1) * head_dim)
                a = logits[min(h, 1), : qb.shape[0]]
                np.matmul(qb[:, sl], k_rot[:, sl].T, out=a)
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
                if h > 0:
                    attention += a
        if heads > 1:
            attention /= heads
        yield start, attention


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
    """Assemble rotated queries and keys for shared attention.

    Queries are the target image tokens (AdaIN-normalized to the reference
    when enabled) followed by the target text tokens, rotated at their own
    positions. Keys are the same rows followed by the reference image keys,
    rotated at the target's grid coordinates (plus the offset in shifted
    mode) and then scaled per the sharing mode.
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
    parts = [("target-image", target.positions), ("target-text", target_text.positions)]
    if params.mode != "none":
        ref_positions = reference.positions
        if params.mode == "shifted":
            if params.offset == (0, 0):
                notes.append("shifted mode with zero offset degenerates to plain")
            ref_positions = shift_positions(ref_positions, params.offset)
        parts.append(("reference-image", ref_positions))
    layout = Layout(tuple(parts))

    # Each run is rotated into its own rows of one preallocated stack.
    k = np.empty((len(layout), config.dim))
    img = k[layout.rows("target-image")]
    img_feats = target.features
    if params.adain_enabled and params.mode != "none":
        img_feats = adain(img_feats, reference.features, out=img)
    apply_rope_batch(img_feats, target.positions, config, out=img)
    apply_rope_batch(
        target_text.features, target_text.positions, config, out=k[layout.rows("target-text")]
    )
    if params.mode != "none":
        ref = k[layout.rows("reference-image")]
        apply_rope_batch(reference.features, ref_positions, config, out=ref)
        if params.mode in ("plain", "shifted"):
            ref *= params.s
        else:
            schedule, sched_notes = _effective_schedule(params, config, step)
            notes.extend(sched_notes)
            ref *= np.repeat(schedule.per_chunk_scales, 2)
        if params.band_mask_override is not None:
            spec = params.band_mask_override
            ref[:, 2 * spec.band.start : 2 * spec.band.stop] *= spec.factor(config)

    return SharedQKV(k=k, key_layout=layout, notes=tuple(notes))


def shift_positions(positions: np.ndarray, offset) -> np.ndarray:
    """Translate an ``(n, 2)`` integer position array by ``offset``.

    Raises :class:`ConfigurationError` if a shifted position would leave the
    int64 range, where NumPy's addition would wrap it silently.
    """
    pos = np.asarray(positions)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ShapeError(f"expected positions of shape (n, 2), got {pos.shape}")
    off = _position(offset)
    if pos.size:
        bounds = np.iinfo(np.int64)
        for lo, hi, d in zip(pos.min(axis=0).tolist(), pos.max(axis=0).tolist(), off[0].tolist()):
            if lo + d < bounds.min or hi + d > bounds.max:
                raise ConfigurationError(f"offset {offset} moves a position out of the int64 range")
    return pos + off
