"""Shared-attention inputs: rotary queries and keys with key sharing.

Tokens carry their own features (no learned projections: a token's query
and key are both its feature vector), so attention here isolates the
positional mechanics. This module assembles the keys;
:mod:`ropefreq.diagnostics` evaluates attention over them.

:func:`build_shared_qkv` assembles the one setting studied: a target image
plus its text tokens attend over their own keys concatenated with keys from
a reference image. Reference keys can be scaled uniformly, per frequency
chunk (interpolating from ``s_hf`` at the fastest chunk to ``s_lf`` at the
slowest), or given shifted positions. AdaIN re-statistics the target image
features against the reference before any rotation.

Per-chunk scaling commutes with rotation (both act chunk-diagonally), so
modulating before or after the rotary encoding is equivalent; this module
modulates rotated keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import Band
from .errors import ConfigurationError, ShapeError
from .rope import RotaryConfig, _block_height, _out, _position, _positions, apply_rope_batch

__all__ = [
    "TokenSet",
    "TimestepRamp",
    "BandMaskSpec",
    "SharingParams",
    "SharedQKV",
    "SharedPlan",
    "adain",
    "build_shared_qkv",
    "chunk_scales",
    "modulation_scales",
    "plan_shared",
    "ramp_at",
    "shift_positions",
    "grid_positions",
]

SHARING_MODES = ("none", "plain", "frequency_aware", "shifted")

ADAIN_STD_FLOOR = 1e-8
# The note an entry gets when AdaIN passes target channels through as the reference mean.
_ADAIN_FALLBACK_NOTE = (
    "AdaIN fallback: {} target channels have std below 1e-8 and pass through as the reference mean"
)


def grid_positions(width: int, height: int) -> np.ndarray:
    """Row-major (x, y) coordinates of a width-by-height grid."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.int64)


@dataclass(frozen=True)
class TokenSet:
    """A batch of finite feature vectors with integer grid positions.

    Both arrays are held uncopied when they are f64 features and int64
    positions already. Where the tokens must sit is checked where the set is
    used: :func:`build_shared_qkv` requires text at (0, 0) and a shared
    reference at the target's positions.
    """

    features: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D (n, dim), got shape {feats.shape}")
        pos = _positions(self.positions, feats.shape[0])
        if feats.size and not np.all(np.isfinite(feats)):
            raise ConfigurationError("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "positions", pos)

    @property
    def n_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _check_scales(**scales: float | None) -> None:
    """Raise :class:`ConfigurationError` unless every one of ``scales`` is given, finite and positive."""
    for name, value in scales.items():
        if value is None or not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def modulation_scales(s_hf: float, s_lf: float, beta: float, n_chunks_axis: int) -> np.ndarray:
    """Per-chunk scales interpolating from ``s_hf`` to ``s_lf``.

    Chunk ``d`` of an axis with ``n`` chunks gets
    ``s_hf + (s_lf - s_hf) * (d / (n - 1)) ** beta``; the endpoints are set
    to ``s_hf`` and ``s_lf`` exactly. Monotone whenever ``s_lf >= s_hf``.
    All three must be finite and positive.
    """
    _check_scales(s_hf=s_hf, s_lf=s_lf, beta=beta)
    if n_chunks_axis < 2:
        raise ConfigurationError(f"an axis schedule needs at least 2 chunks, got {n_chunks_axis}")
    d_norm = np.arange(n_chunks_axis, dtype=np.float64) / (n_chunks_axis - 1)
    scales = s_hf + (s_lf - s_hf) * d_norm**beta
    scales[0] = s_hf
    scales[-1] = s_lf
    return scales


def chunk_scales(config: RotaryConfig, s_hf: float, s_lf: float, beta: float) -> np.ndarray:
    """Per-chunk scale vector for frequency-aware key modulation.

    The interpolation of :func:`modulation_scales` runs independently over
    each spatial axis's chunks (ordered fastest to slowest within the axis);
    temporal chunks always get ``s_lf`` since they carry no positional
    sensitivity.
    """
    _check_scales(s_hf=s_hf, s_lf=s_lf, beta=beta)
    scales = np.empty(config.n_chunks, dtype=np.float64)
    for axis_chunks in (config.x_chunks, config.y_chunks):
        if axis_chunks:
            scales[np.asarray(axis_chunks)] = modulation_scales(s_hf, s_lf, beta, len(axis_chunks))
    if config.temporal_chunks:
        scales[np.asarray(config.temporal_chunks)] = s_lf
    return scales


@dataclass(frozen=True)
class TimestepRamp:
    """Linear schedules for ``s_hf`` and ``s_lf`` across denoising steps.

    The four scales must be finite and positive, and ``total_steps`` at least 1.
    """

    s_hf_start: float
    s_hf_end: float
    s_lf_start: float
    s_lf_end: float
    total_steps: int

    def __post_init__(self) -> None:
        _check_scales(
            s_hf_start=self.s_hf_start,
            s_hf_end=self.s_hf_end,
            s_lf_start=self.s_lf_start,
            s_lf_end=self.s_lf_end,
        )
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
    """Optional band zero/scale applied to rotated reference keys.

    The mode is ``"zero"`` or ``"scale"``, which needs a finite ``scale``.
    """

    band: Band
    mode: str
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("zero", "scale"):
            raise ConfigurationError(f"mode must be 'zero' or 'scale', got {self.mode!r}")
        if self.mode == "scale" and self.scale is None:
            raise ConfigurationError("mode 'scale' requires a scale value")
        if self.mode == "scale" and not math.isfinite(self.scale):
            raise ConfigurationError(f"the scale of mode 'scale' must be finite, got {self.scale}")

    def factor(self, config: RotaryConfig) -> float:
        """The factor the band's coordinates of each reference key are multiplied by.

        Raises :class:`ConfigurationError` if the band does not fit ``config``.
        """
        if self.band.stop > config.n_chunks:
            raise ConfigurationError(f"band {self.band.label!r} extends past the last chunk")
        return 0.0 if self.mode == "zero" else float(self.scale)


@dataclass(frozen=True)
class SharingParams:
    """How reference keys enter the target's attention.

    Modes: "none" (no sharing), "plain" (reference keys scaled by the scalar
    ``s``), "frequency_aware" (the :func:`chunk_scales` of ``s_hf``, ``s_lf``
    and ``beta``, with ``s_hf`` and ``s_lf`` optionally re-interpolated over
    time by ``ramp``), "shifted" (reference positions offset before rotation,
    keys scaled by ``s``).
    """

    mode: str
    s: float = 1.0
    s_hf: float | None = None
    s_lf: float | None = None
    beta: float | None = None
    ramp: TimestepRamp | None = None
    offset: tuple[int, int] | None = None
    adain_enabled: bool = True
    band_mask_override: BandMaskSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in SHARING_MODES:
            raise ConfigurationError(f"mode must be one of {SHARING_MODES}, got {self.mode!r}")
        if self.mode in ("plain", "shifted"):
            _check_scales(s=self.s)
        if self.mode == "frequency_aware":
            _check_scales(s_hf=self.s_hf, s_lf=self.s_lf, beta=self.beta)
        elif (self.s_hf, self.s_lf, self.beta) != (None, None, None) or self.ramp is not None:
            raise ConfigurationError("s_hf/s_lf/beta/ramp only apply to frequency_aware mode")
        if self.mode == "shifted":
            if self.offset is None:
                raise ConfigurationError("shifted mode requires an offset")
            object.__setattr__(self, "offset", tuple(_position(self.offset)[0].tolist()))
        elif self.offset is not None:
            raise ConfigurationError("offset only applies to shifted mode")


@dataclass(frozen=True)
class SharedQKV:
    """Assembled shared-attention keys, already rotated, and the runs they stack.

    ``parts`` holds one ``(source, positions)`` run per source, in row order:
    the target image, the target text and (unless the mode is "none") the
    reference image; ``positions`` are the ``(n, 2)`` grid coordinates of the
    run's ``n`` rows. So the image queries lead and the reference keys trail:
    the queries are the first two runs (``query_parts``), ``q`` is a view of
    the leading rows of ``k`` and ``ref`` of the rows after them.
    """

    k: np.ndarray
    parts: tuple[tuple[str, np.ndarray], ...]
    notes: tuple[str, ...] = ()

    @property
    def query_parts(self) -> tuple[tuple[str, np.ndarray], ...]:
        return self.parts[:2]

    @property
    def q(self) -> np.ndarray:
        return self.k[: sum(len(pos) for _, pos in self.query_parts)]

    @property
    def ref(self) -> np.ndarray:
        """The reference keys; no rows in mode "none"."""
        return self.k[len(self.q) :]


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
    The result is written to ``out`` (a new array when it is ``None``), a
    C-contiguous f64 array of ``x``'s shape which may be ``x`` itself, and
    ``out`` is returned. Besides ``out`` it holds one block of rows (:func:`_column_stats`).
    """
    return _adain(x, y, out)[0]


def _adain(x: np.ndarray, y: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, int]:
    """:func:`adain`'s result, and how many channels of ``x`` passed through as ``mean(y)``."""
    xm = np.asarray(x, dtype=np.float64)
    ym = np.asarray(y, dtype=np.float64)
    if xm.ndim != 2 or ym.ndim != 2 or xm.shape[1] != ym.shape[1]:
        raise ShapeError(f"adain needs two (n, dim) matrices of equal width, got {xm.shape} and {ym.shape}")
    if ym.shape[0] < 2:
        raise ShapeError("reference statistics need at least 2 rows")
    out = _out(out, xm.shape)
    rows = _block_height(8 * xm.shape[1])
    (mean_x, std_x), (mean_y, std_y) = _column_stats(xm, rows), _column_stats(ym, rows)
    degenerate = std_x < ADAIN_STD_FLOOR
    safe_std = np.where(degenerate, 1.0, std_x)
    out = np.subtract(xm, mean_x, out=out)
    out /= safe_std
    out *= std_y
    out += mean_y
    n_degenerate = int(np.count_nonzero(degenerate))
    if n_degenerate:
        out[:, degenerate] = mean_y[degenerate]
    return out, n_degenerate


@dataclass(frozen=True)
class SharedPlan:
    """A sharing entry checked before any feature is read, as :func:`plan_shared` returns it.

    ``parts`` and ``notes`` are the :class:`SharedQKV`'s. The reference keys are multiplied by
    ``scale`` (``s``, or one per column in mode "frequency_aware"), then, with a band mask, the
    ``columns`` of ``mask = (columns, factor)`` by its factor.
    """

    parts: tuple[tuple[str, np.ndarray], ...]
    scale: float | np.ndarray
    mask: tuple[slice, float] | None
    notes: tuple[str, ...]


def plan_shared(
    params: SharingParams, config: RotaryConfig, step: int | None, target_positions: np.ndarray, n_text: int
) -> SharedPlan:
    """Plan ``params`` at ``step`` for a target at ``target_positions`` and ``n_text`` text tokens.

    Makes every check of the entry that needs no feature value, each raising
    :class:`ConfigurationError`: the ramp's ``step``, the shifted positions
    within the int64 range, the band mask within ``config``'s chunks, at
    least 2 reference rows for AdaIN, and a bound of the logits finite: twice
    ``sqrt(n)`` times the largest reference scale (times the mask's factor
    where larger). Query rows are unit vectors or AdaIN's, at most
    ``sqrt(n)`` long over ``n`` image rows, so no key of unit reference rows,
    nor its logit, can overflow.
    """
    positions = _positions(target_positions)
    notes: list[str] = []
    ref_positions, scale = positions, params.s
    if params.mode == "shifted":
        if params.offset == (0, 0):
            notes.append("shifted mode with zero offset degenerates to plain")
        ref_positions = shift_positions(positions, params.offset)
    elif params.mode == "frequency_aware":
        s_hf, s_lf = params.s_hf, params.s_lf
        if params.ramp is not None and step is not None:
            s_hf, s_lf = ramp_at(params.ramp, step)
        elif step is not None:
            notes.append("step given without a ramp; using the base schedule")
        scale = np.repeat(chunk_scales(config, s_hf, s_lf, params.beta), 2)
    mask, spec = None, params.band_mask_override
    if spec is not None:
        mask = (slice(2 * spec.band.start, 2 * spec.band.stop), spec.factor(config))
    parts = [("target-image", positions), ("target-text", np.zeros((n_text, 2), dtype=np.int64))]
    if params.mode != "none":
        if params.adain_enabled and len(positions) < 2:
            raise ConfigurationError(f"AdaIN needs at least 2 reference rows, got {len(positions)}")
        key = float(np.max(scale)) * (1.0 if mask is None else max(1.0, abs(mask[1])))
        if not math.isfinite(2 * math.sqrt(len(positions)) * key):
            raise ConfigurationError(f"the logit bound 2*sqrt({len(positions)}) * {key:g} overflows a float")
        parts.append(("reference-image", ref_positions))
    return SharedPlan(tuple(parts), scale, mask, tuple(notes))


def build_shared_qkv(
    target: TokenSet,
    target_text: TokenSet,
    reference: TokenSet,
    params: SharingParams,
    config: RotaryConfig,
    step: int | None = None,
    out: np.ndarray | None = None,
) -> SharedQKV:
    """Assemble rotated queries and keys for shared attention: :func:`plan_shared`, then the fill.

    Queries are the target image tokens (AdaIN-normalized to the reference when enabled) then
    the text tokens, rotated at their own positions; keys are the same rows then the reference
    keys, rotated at the plan's positions and scaled by its factors. ``k`` is new, or the leading
    rows of ``out``, a C-contiguous f64 array with a row per target, text and reference token;
    each set's features may be its own rows there (each run is then assembled in place).

    Besides the plan's checks, text tokens must sit at (0, 0) (else :class:`ConfigurationError`),
    the reference at the target's positions unless the mode is "none" (else :class:`ShapeError`),
    and reference keys that overflow when scaled raise :class:`ConfigurationError`. The notes are
    the plan's, and one more when AdaIN passes target channels through as the reference mean.
    """
    if target.dim != config.dim or reference.dim != config.dim or target_text.dim != config.dim:
        raise ShapeError(f"all feature widths must equal {config.dim}")
    if np.any(target_text.positions != 0):
        raise ConfigurationError("text tokens must sit at position (0, 0)")
    if params.mode != "none" and not np.array_equal(target.positions, reference.positions):
        raise ShapeError(
            f"the reference's {reference.n_tokens} positions differ from the target's {target.n_tokens}"
        )
    plan = plan_shared(params, config, step, target.positions, target_text.n_tokens)

    # Each run is rotated into its own rows of one preallocated stack.
    n, t, n_ref = target.n_tokens, target_text.n_tokens, reference.n_tokens
    n_rows = n + t + (n_ref if params.mode != "none" else 0)
    k = np.empty((n_rows, config.dim)) if out is None else _out(out, (n + t + n_ref, config.dim))[:n_rows]
    img_feats, notes = target.features, plan.notes
    if params.adain_enabled and params.mode != "none":
        img_feats, n_degenerate = _adain(img_feats, reference.features, out=k[:n])
        if n_degenerate:
            notes += (_ADAIN_FALLBACK_NOTE.format(n_degenerate),)
    apply_rope_batch(img_feats, target.positions, config, out=k[:n])
    apply_rope_batch(target_text.features, target_text.positions, config, out=k[n : n + t])
    if params.mode != "none":
        ref = k[n + t :]
        apply_rope_batch(reference.features, plan.parts[2][1], config, out=ref)
        # Two multiplies, as (x * s) * f is not x * (s * f); the plan's bound
        # holds for unit rows only, and a caller's features need not be.
        try:
            with np.errstate(over="raise"):
                ref *= plan.scale
                if plan.mask is not None:
                    ref[:, plan.mask[0]] *= plan.mask[1]
        except FloatingPointError as exc:
            raise ConfigurationError("the scaled reference keys overflow a float") from exc

    return SharedQKV(k=k, parts=plan.parts, notes=notes)


def shift_positions(positions: np.ndarray, offset) -> np.ndarray:
    """Translate an ``(n, 2)`` integer position array by ``offset``.

    Raises :class:`ConfigurationError` if a shifted position would leave the
    int64 range, where NumPy's addition would wrap it silently.
    """
    pos = _positions(positions)
    off = _position(offset)
    if pos.size:
        bounds = np.iinfo(np.int64)
        for lo, hi, d in zip(pos.min(axis=0).tolist(), pos.max(axis=0).tolist(), off[0].tolist()):
            if lo + d < bounds.min or hi + d > bounds.max:
                raise ConfigurationError(f"offset {offset} moves a position out of the int64 range")
    return pos + off
