"""Rotary positional embeddings on 2-D token grids.

An embedding of width ``dim`` is split into ``dim/2`` chunks, where chunk
``d`` is the consecutive coordinate pair ``(vec[2d], vec[2d+1])``. Chunk ``d``
carries angular frequency ``theta_d = (1/rope_base)**(2d/dim)``, a geometric
series running from 1 (fast, position-sensitive) down to roughly
``1/rope_base`` (slow, position-insensitive). Each chunk is assigned to the
x axis, the y axis, or a temporal partition: a token at grid position
``(x, y)`` has its x-chunks rotated by ``x*theta_d``, its y-chunks by
``y*theta_d``, and its temporal chunks left untouched.

Because rotations compose, the attention inner product between a rotated
query at position ``m`` and a rotated key at position ``n`` depends only on
the displacement ``n - m``; :func:`relative_inner_product` evaluates that
closed form directly and :func:`chunk_decomposition` exposes the per-chunk
polar view (magnitudes, angular difference, rotation).

Note on layout: the consecutive-pair chunk layout used here is not the only
one in the wild; some implementations pair coordinate ``i`` with ``i + dim/2``
(a half-split layout). Vectors produced for such implementations must be
re-interleaved before use with this module.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "RotaryConfig",
    "ChunkTerm",
    "frequencies",
    "apply_rope_batch",
    "relative_inner_product",
    "chunk_decomposition",
    "reconstruct_inner_product",
]


# Bytes of row temporaries a block may hold in every fixed-budget row loop
# but the logits blocks': rotation angles (a block holds four arrays of
# this size, _rotate_pairs), AdaIN's statistics, the scene builders,
# decay_curve's f64 cosines, a streamed CSV chunk's curve (int64 deltas
# and every f64 series), write_rows' row text and a streamed matrix's <f4
# chunk. The four rotation arrays
# (1 MiB) stay below a 64-row one-head logits block from 32x32 up, so
# assembly does not set a run's peak there; for decay curves, a 32 KiB to
# 4 MiB sweep found this budget the lowest in peak RSS.
_ROWS_BYTES = 256 * 2**10
# The widest embedding, whose f64 row fills the budget; fixed at import.
_MAX_DIM = _ROWS_BYTES // 8


def _block_height(row_bytes: int, budget: int | None = None) -> int:
    """Rows of ``row_bytes`` bytes each that fit in ``budget`` (``_ROWS_BYTES`` if None), at least 1."""
    return max(1, (_ROWS_BYTES if budget is None else budget) // row_bytes)


def _integer(value) -> bool:
    """Whether ``value`` is an integer (a NumPy one too) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _n_chunks(dim: int) -> int:
    """``dim // 2``; raises :class:`ConfigurationError` unless ``dim`` is an even integer in ``1.._MAX_DIM``."""
    if not (_integer(dim) and 0 < dim <= _MAX_DIM and dim % 2 == 0):
        raise ConfigurationError(f"dim must be a positive even integer up to {_MAX_DIM}, got {dim!r}")
    return dim // 2


@dataclass(frozen=True)
class RotaryConfig:
    """Embedding width, rotation base, and the axial split of chunk indices.

    ``rope_base`` is the reciprocal of the geometric ratio: frequencies are
    ``theta_d = (1/rope_base)**(2d/dim)``, so the default base 10000 gives the
    familiar series 1 .. ~1e-4. The three partitions must be disjoint and
    together cover ``{0 .. dim/2 - 1}``; leaving all three empty selects the
    default split (first half of chunks on x, second half on y, no temporal).
    Within each partition the listed order defines the high-to-low frequency
    ordering used by per-axis schedules.
    """

    dim: int
    rope_base: float = 10000.0
    x_chunks: tuple[int, ...] = ()
    y_chunks: tuple[int, ...] = ()
    temporal_chunks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = _n_chunks(self.dim)
        # A comparison, so an integer too large for a float is refused rather than converted.
        if not (isinstance(self.rope_base, numbers.Real) and 1.0 < self.rope_base <= sys.float_info.max):
            raise ConfigurationError(f"rope_base must be a finite number above 1, got {self.rope_base!r}")
        if not (self.x_chunks or self.y_chunks or self.temporal_chunks):
            half = n // 2
            object.__setattr__(self, "x_chunks", tuple(range(half)))
            object.__setattr__(self, "y_chunks", tuple(range(half, n)))
        union = list(self.x_chunks) + list(self.y_chunks) + list(self.temporal_chunks)
        if len(union) != len(set(union)):
            raise ConfigurationError("axial partitions overlap")
        if sorted(union) != list(range(n)):
            raise ConfigurationError(
                f"axial partitions must cover chunk indices 0..{n - 1} exactly"
            )

    @property
    def n_chunks(self) -> int:
        return self.dim // 2

    @classmethod
    def single_axis(cls, dim: int, rope_base: float = 10000.0, axis: str = "x") -> "RotaryConfig":
        """All chunks on one spatial axis; the layout for 1-D shift analysis."""
        chunks = tuple(range(_n_chunks(dim)))
        if axis == "x":
            return cls(dim=dim, rope_base=rope_base, x_chunks=chunks, y_chunks=())
        if axis == "y":
            return cls(dim=dim, rope_base=rope_base, x_chunks=(), y_chunks=chunks)
        raise ConfigurationError(f"axis must be 'x' or 'y', got {axis!r}")

    @classmethod
    def interleaved(cls, dim: int, rope_base: float = 10000.0) -> "RotaryConfig":
        """Frequency-balanced axes: even chunks on x, odd chunks on y.

        Unlike the default half/half split, both axes then span the full
        geometric frequency range, so 2-D positions are resolved at every
        scale on both axes.
        """
        n = _n_chunks(dim)
        return cls(
            dim=dim,
            rope_base=rope_base,
            x_chunks=tuple(range(0, n, 2)),
            y_chunks=tuple(range(1, n, 2)),
        )

    @classmethod
    def flux_like(cls, dim: int, rope_base: float = 10000.0) -> "RotaryConfig":
        """Partition echoing Flux-style layouts: a leading unrotated temporal
        block (1/8 of the chunks, at least one), then y, then x."""
        n = _n_chunks(dim)
        if n < 3:
            raise ConfigurationError("flux_like layout needs at least 3 chunks")
        n_t = max(1, n // 8)
        rest = n - n_t
        n_y = rest // 2
        return cls(
            dim=dim,
            rope_base=rope_base,
            temporal_chunks=tuple(range(n_t)),
            y_chunks=tuple(range(n_t, n_t + n_y)),
            x_chunks=tuple(range(n_t + n_y, n)),
        )


def frequencies(config: RotaryConfig) -> np.ndarray:
    """Per-chunk frequencies ``theta_d = (1/rope_base)**(2d/dim)``.

    Strictly decreasing, with ``theta_0 == 1`` exactly. Invalid configs are
    rejected at :class:`RotaryConfig` construction time.
    """
    d = np.arange(config.n_chunks, dtype=np.float64)
    return (1.0 / config.rope_base) ** (2.0 * d / config.dim)


def _positions(values, rows: int | None = None) -> np.ndarray:
    """``values`` as an ``(n, 2)`` int64 position array (``n`` is ``rows`` if given); not a copy of one.

    Raises :class:`ShapeError` for another shape and :class:`ConfigurationError` for a value
    that is not an integer in the int64 range, which the cast would truncate, wrap or overflow.
    """
    pos = np.asarray(values)
    if pos.ndim != 2 or pos.shape[1] != 2 or rows is not None and pos.shape[0] != rows:
        expected = "n" if rows is None else rows
        raise ShapeError(f"expected positions of shape ({expected}, 2), got {pos.shape}")
    return _int64(pos, "positions must be integer grid coordinates")


def _int64(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` cast to int64; not a copy of an int64 array.

    Raises :class:`ConfigurationError` (``what``, then "in the int64 range") for a value that
    is not an integer in the int64 range, which the cast would truncate, wrap or overflow.
    """
    kind = values.dtype.kind
    if values.size and (
        kind not in "biufO"
        or kind == "f"
        and not np.all((values == np.round(values)) & (values >= -(2.0**63)) & (values < 2.0**63))
        or kind == "u" and values.max() > np.iinfo(np.int64).max
        or kind == "O"
        and not all(isinstance(v, numbers.Integral) and -(2**63) <= v < 2**63 for v in values.flat)
    ):
        raise ConfigurationError(f"{what} in the int64 range")
    return values.astype(np.int64, copy=False)


def _position(pos) -> np.ndarray:
    """An ``(x, y)`` pair as a ``(1, 2)`` int64 row, the form of a position array's rows."""
    return _positions(np.reshape(pos, (1, -1)), 1)


def _angles(positions: np.ndarray, config: RotaryConfig) -> np.ndarray:
    """Rotation angle of every chunk for each ``(x, y)`` row of ``positions``.

    Returns ``(n, n_chunks)``: x-chunks get ``x * theta_d``, y-chunks
    ``y * theta_d``, temporal chunks 0.
    """
    theta = frequencies(config)
    angles = np.zeros((positions.shape[0], config.n_chunks), dtype=np.float64)
    for column, chunks in enumerate((config.x_chunks, config.y_chunks)):
        if chunks:
            idx = np.asarray(chunks)
            angles[:, idx] = positions[:, column : column + 1].astype(np.float64) * theta[idx]
    return angles


def _out(out: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """``out``, checked to be a C-contiguous f64 array of ``shape``; a new one when it is ``None``."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"expected a C-contiguous f64 out of shape {shape}, got {out.dtype} {out.shape}")
    return out


def _rotate_pairs(values: np.ndarray, angles: np.ndarray, out: np.ndarray) -> None:
    """Rotate consecutive pairs of the last axis of ``values`` by per-chunk angles into ``out``.

    ``out`` may be ``values``: both halves are computed before either is written. ``angles``
    is overwritten; products are taken in place, rounded as ``a*c - b*s`` and ``a*s + b*c``.
    """
    c = np.cos(angles)
    s = np.sin(angles, out=angles)
    a = values[..., 0::2]
    b = values[..., 1::2]
    even = a * c
    even -= b * s
    s *= a
    out[..., 1::2] = np.add(s, np.multiply(b, c, out=c), out=s)
    out[..., 0::2] = even


def apply_rope_batch(
    features: np.ndarray, positions: np.ndarray, config: RotaryConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotary encoding of a stack of tokens, each at its own grid position.

    ``features`` is ``(n, dim)``; ``positions`` is ``(n, 2)`` integer grid
    coordinates (x, y) in the int64 range. The rotated rows are written to
    ``out`` (a new array when it is ``None``), a C-contiguous f64 array of the
    features' shape which may be ``features`` itself, and ``out`` is returned. Rows
    are rotated a block at a time, so the temporaries stay within a fixed
    budget however many rows there are.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != config.dim:
        raise ShapeError(f"expected features of shape (n, {config.dim}), got {feats.shape}")
    pos = _positions(positions, feats.shape[0])
    out = _out(out, feats.shape)
    step = _block_height(8 * config.n_chunks)
    for start in range(0, feats.shape[0], step):
        rows = slice(start, start + step)
        _rotate_pairs(feats[rows], _angles(pos[rows], config), out[rows])
    return out


def _chunk_products(q, k, config: RotaryConfig) -> tuple[np.ndarray, ...]:
    """Per-chunk dot products, cross products and magnitudes of ``q`` and ``k``.

    Chunk ``d`` adds ``dot_d*cos(phi) + cross_d*sin(phi)`` to the inner product
    when ``k_d`` is rotated by ``phi``; ``atan2(cross_d, dot_d)`` is the signed
    angle from ``k_d`` to ``q_d``.
    """
    qv = np.asarray(q, dtype=np.float64)
    kv = np.asarray(k, dtype=np.float64)
    if qv.shape != (config.dim,) or kv.shape != (config.dim,):
        raise ShapeError(
            f"expected two embeddings of shape ({config.dim},), got {qv.shape} and {kv.shape}"
        )
    qa, qb, ka, kb = qv[0::2], qv[1::2], kv[0::2], kv[1::2]
    return qa * ka + qb * kb, qb * ka - qa * kb, np.hypot(qa, qb), np.hypot(ka, kb)


def relative_inner_product(q, k, delta, config: RotaryConfig) -> float:
    """Rotary attention inner product for displacement ``delta = pos_k - pos_q``.

    Evaluates ``sum_d <q_d, R(delta . theta_d) k_d>`` without materializing
    rotated vectors; equal to ``q_m @ k_n`` for ``q_m, k_n = apply_rope_batch([q, k],
    [m, n], config)`` whenever ``n - m == delta``.
    """
    dots, crosses, _, _ = _chunk_products(q, k, config)
    angles = _angles(_position(delta), config)[0]
    return float(np.sum(dots * np.cos(angles) + crosses * np.sin(angles)))


@dataclass(frozen=True)
class ChunkTerm:
    """Polar view of one chunk's contribution to the rotary inner product.

    The chunk contributes ``magnitude_product * cos(alpha + rotation_angle)``.
    ``alpha`` is the signed angle from ``k_d`` to ``q_d``; ``rotation_angle``
    is the phase the displacement adds inside the cosine, i.e. the
    query-minus-key offset along the chunk's axis times ``theta_d`` (0 for
    temporal chunks). Chunks where either side has exactly zero magnitude are
    flagged and report ``alpha = 0``; they contribute nothing to the sum.
    """

    chunk: int
    magnitude_product: float
    alpha: float
    rotation_angle: float
    zero_magnitude: bool = False

    @property
    def value(self) -> float:
        return self.magnitude_product * math.cos(self.alpha + self.rotation_angle)


def chunk_decomposition(q, k, delta, config: RotaryConfig) -> list[ChunkTerm]:
    """Per-chunk polar decomposition of :func:`relative_inner_product`.

    Summing ``t.value`` over the returned terms reconstructs
    ``relative_inner_product(q, k, delta, config)``.
    """
    dots, crosses, mq, mk = _chunk_products(q, k, config)
    # cos(alpha + rot) must match <q_d, R(delta.theta_d) k_d>, which expands to
    # cos((angle_q - angle_k) - delta*theta_d); hence rot carries -delta.
    rot = -_angles(_position(delta), config)[0]
    zero = (mq == 0.0) | (mk == 0.0)
    alpha = np.where(zero, 0.0, np.arctan2(crosses, dots))
    return [
        ChunkTerm(d, float(mq[d] * mk[d]), float(alpha[d]), float(rot[d]), bool(zero[d]))
        for d in range(config.n_chunks)
    ]


def reconstruct_inner_product(terms: list[ChunkTerm]) -> float:
    """Sum a chunk decomposition back into the full inner product."""
    return math.fsum(t.value for t in terms)
