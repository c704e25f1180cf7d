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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "Position2D",
    "RotaryConfig",
    "ChunkTerm",
    "as_position",
    "frequencies",
    "rotate_chunk",
    "apply_rope",
    "apply_rope_batch",
    "relative_inner_product",
    "chunk_decomposition",
    "reconstruct_inner_product",
]


@dataclass(frozen=True)
class Position2D:
    """Integer grid coordinate. Negative values are allowed (shift modes)."""

    x: int
    y: int

    def __add__(self, other: "Position2D") -> "Position2D":
        return Position2D(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Position2D") -> "Position2D":
        return Position2D(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def as_position(pos) -> Position2D:
    """Coerce a Position2D, ``(x, y)`` pair, or length-2 array to Position2D."""
    if isinstance(pos, Position2D):
        return pos
    seq = tuple(np.asarray(pos).reshape(-1).tolist())
    if len(seq) != 2:
        raise ShapeError(f"expected a 2-D position, got {pos!r}")
    return Position2D(int(seq[0]), int(seq[1]))


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
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ConfigurationError(f"dim must be a positive even integer, got {self.dim}")
        if not self.rope_base > 1.0:
            raise ConfigurationError(f"rope_base must exceed 1, got {self.rope_base}")
        n = self.dim // 2
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
        chunks = tuple(range(dim // 2))
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
        n = dim // 2
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
        n = dim // 2
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


def _rotate_pairs(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs of the last axis by per-chunk angles."""
    c = np.cos(angles)
    s = np.sin(angles)
    a = values[..., 0::2]
    b = values[..., 1::2]
    out = np.empty_like(values)
    out[..., 0::2] = a * c - b * s
    out[..., 1::2] = a * s + b * c
    return out


def rotate_chunk(chunk, angle: float) -> np.ndarray:
    """Rotate one 2-D chunk by ``angle`` radians (counterclockwise)."""
    c = np.asarray(chunk, dtype=np.float64).reshape(-1)
    if c.shape != (2,):
        raise ShapeError(f"a chunk has exactly 2 entries, got shape {c.shape}")
    return _rotate_pairs(c, np.array([float(angle)]))


def apply_rope(vec, pos, config: RotaryConfig) -> np.ndarray:
    """Apply the rotary encoding for grid position ``pos`` to one embedding.

    The result has the same Euclidean norm as the input (rotations are
    isometries) and rotating by ``p1`` then ``p2`` equals rotating by
    ``p1 + p2``. It is the one-row case of :func:`apply_rope_batch`.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (config.dim,):
        raise ShapeError(f"expected embedding of shape ({config.dim},), got {v.shape}")
    return apply_rope_batch(v[np.newaxis], [as_position(pos).as_tuple()], config)[0]


def apply_rope_batch(features: np.ndarray, positions: np.ndarray, config: RotaryConfig) -> np.ndarray:
    """Rotary encoding of a stack of tokens, each at its own grid position.

    ``features`` is ``(n, dim)``; ``positions`` is ``(n, 2)`` integer grid
    coordinates, column order (x, y).
    """
    feats = np.asarray(features, dtype=np.float64)
    pos = np.asarray(positions)
    if feats.ndim != 2 or feats.shape[1] != config.dim:
        raise ShapeError(f"expected features of shape (n, {config.dim}), got {feats.shape}")
    if pos.shape != (feats.shape[0], 2):
        raise ShapeError(f"expected positions of shape ({feats.shape[0]}, 2), got {pos.shape}")
    return _rotate_pairs(feats, _angles(pos, config))


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
    rotated vectors; equal to ``<apply_rope(q, m), apply_rope(k, n)>`` for
    every ``m, n`` with ``n - m == delta``.
    """
    dots, crosses, _, _ = _chunk_products(q, k, config)
    angles = _angles(np.array([as_position(delta).as_tuple()]), config)[0]
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
    rot = -_angles(np.array([as_position(delta).as_tuple()]), config)[0]
    zero = (mq == 0.0) | (mk == 0.0)
    alpha = np.where(zero, 0.0, np.arctan2(crosses, dots))
    return [
        ChunkTerm(d, float(mq[d] * mk[d]), float(alpha[d]), float(rot[d]), bool(zero[d]))
        for d in range(config.n_chunks)
    ]


def reconstruct_inner_product(terms: list[ChunkTerm]) -> float:
    """Sum a chunk decomposition back into the full inner product."""
    return math.fsum(t.value for t in terms)
