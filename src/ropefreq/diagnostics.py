"""Quantitative diagnostics for shared attention.

The central question: does a target query's attention to the reference land
on the reference token at the *same grid position* (positional alignment,
the copying signature) or on the token holding its *matching content*
(semantic alignment)? Masses read the softmax rows directly; argmax rates
count winners among the reference keys, since with tied query/key features
the query's own target key trivially dominates the global argmax and carries
no information about the reference competition.

:func:`evaluate_shared` is the one evaluator: it reduces each block of query
rows as it is computed, so no dense matrix is ever held. The attention
kernel, :func:`_blocks`, yields softmax rows a block at a time, and the
alignment fold reads them as they come. Band attribution is a pass of its
own after the kernel, over fixed groups of image-query rows, so its sums
do not depend on how high a logits block is. Both run in one work buffer
that :func:`evaluate_shared` allocates once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .attention import SharedQKV
from .bands import BandPartition
from .errors import ConfigurationError, ShapeError
from .rope import _block_height
from .synthetic import PlantedScene

__all__ = [
    "AlignmentMetrics",
    "BandAttribution",
    "SharedEvaluation",
    "evaluate_shared",
]

# Bytes of f64 logits one block of query rows may hold, counting every
# logits buffer of the block. A block's height is this budget over the bytes
# those buffers take per query row, so the working set stays flat however
# many keys and heads there are.
_BLOCK_BYTES = 4 * 2**20

# The most query rows a logits block holds, so that a block over few keys
# holds no more than it needs: at 32x32 with two heads, 64 rows take 2 MiB
# where the budget's 127 took 4 MiB. From 64x64 up the budget stops a block first.
_MAX_BLOCK_ROWS = 64


def _row_bytes(n_keys: int, heads: int) -> int:
    """Bytes of f64 logits a block holds per query row over ``n_keys`` keys.

    One row per logits buffer: the first head's, which becomes the head
    average, and with more heads one that each further head is computed in.
    """
    return 8 * max(n_keys, 1) * min(heads, 2)


def _block_rows(n_keys: int, heads: int = 1) -> int:
    """Query rows per logits block for ``n_keys`` keys and ``heads`` heads."""
    return min(_MAX_BLOCK_ROWS, _block_height(_row_bytes(n_keys, heads), _BLOCK_BYTES))


def _check_heads(heads: int, band_partition: BandPartition | None, dim: int) -> None:
    """Raise :class:`ConfigurationError` unless ``heads`` and the partition fit keys ``dim`` wide.

    The partition must cover exactly the ``dim // 2`` chunks of the keys.
    """
    if heads < 1:
        raise ConfigurationError(f"heads must be >= 1, got {heads}")
    if dim % (2 * heads) != 0:
        raise ConfigurationError(
            f"dim={dim} must be divisible by 2*heads={2 * heads} so heads own whole chunks"
        )
    if band_partition is not None:
        if heads != 1:
            raise ConfigurationError("per-band logit decomposition requires heads=1")
        if not np.array_equal(band_partition.chunk_indices(), np.arange(dim // 2)):
            raise ConfigurationError(
                f"band decomposition needs a partition covering every chunk 0..{dim // 2 - 1}"
            )


# A head's softmax row is saturated when one key takes more than this share
# of its weight; an entry is noted when over half of its image-query rows
# and heads are.
_SATURATED_WEIGHT = 0.99
_SATURATED_NOTE = (
    "softmax saturated: in over half of the image-query rows and heads,"
    " one key takes over 0.99 of the weight"
)


def _logit_scale(head_dim: int) -> float:
    """The factor a head's logits are scaled by: 1/sqrt of its width."""
    return 1.0 / math.sqrt(head_dim)


def _logits_shape(n_queries: int, n_keys: int, heads: int) -> tuple[int, int, int]:
    """The shape of the logits buffers of one block (:func:`_blocks`)."""
    return min(heads, 2), min(_block_rows(n_keys, heads), n_queries), n_keys


def _blocks(
    q_rot: np.ndarray, k_rot: np.ndarray, heads: int, work: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Evaluate attention one block of query rows at a time.

    Yields ``(start, attention, saturated)``: the head-averaged softmax rows
    of query rows ``start:start + len(attention)`` over every key, so each
    row is exact, and for each row the number of heads whose top weight
    passes :data:`_SATURATED_WEIGHT`. ``attention`` is a C-contiguous view of
    a buffer the next block overwrites (the caller may compute in it): copy
    what must outlive it. A block is :func:`_block_rows` high, so its logits
    buffers (two with more than one head) together hold at most
    ``_BLOCK_BYTES``, or one row of each when a row alone passes it. They are
    the leading elements of ``work``, a flat f64 array of at least as many
    elements as :func:`_logits_shape` (a new one when it is ``None``).

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
    shape = _logits_shape(q_rot.shape[0], k_rot.shape[0], heads)
    logits = np.empty(shape) if work is None else work[: math.prod(shape)].reshape(shape)
    for start in range(0, q_rot.shape[0], step):
        qb = q_rot[start : start + step]
        attention = logits[0, : qb.shape[0]]
        saturated = np.zeros(qb.shape[0], dtype=np.intp)
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
                # A row's top weight is exp(0) / total: no pass over the row.
                saturated += 1 / total[:, 0] > _SATURATED_WEIGHT
                if h > 0:
                    attention += a
        if heads > 1:
            attention /= heads
        yield start, attention, saturated


# Bytes of <f4 rows cast and written at a time when a matrix is streamed.
_WRITE_BYTES = 256 * 2**10


@dataclass(frozen=True)
class AlignmentMetrics:
    """Attention-mass and argmax alignment summary over target image queries.

    All fields live in [0, 1]; the two mass numerators are bounded by
    ``reference_mass``. Text keys never enter a numerator but stay in the
    softmax normalization.
    """

    positional_mass: float
    semantic_mass: float
    argmax_positional_rate: float
    argmax_semantic_rate: float
    reference_mass: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _row_order_sum(values: np.ndarray) -> float:
    # One float at a time in query order, as a per-query loop adds them, so
    # the result does not depend on how the rows were blocked. Accumulation
    # adds left to right, never pairwise.
    return float(np.add.accumulate(values)[-1])


def _aligned_columns(query_pos: np.ndarray, ref_pos: np.ndarray) -> np.ndarray:
    """The reference column at each query's grid position, or -1 where there is none.

    Reference rows are scattered into a table of cells over the box of the
    query positions; a reference outside that box aligns with no query.
    Raises :class:`ShapeError` if two reference rows share a cell.
    """
    origin = query_pos.min(axis=0)
    shape = tuple(query_pos.max(axis=0) - origin + 1)
    cell = ref_pos - origin
    inside = np.flatnonzero(np.all((cell >= 0) & (cell < shape), axis=1))
    table = np.full(shape, -1, dtype=np.intp)
    table[cell[inside, 0], cell[inside, 1]] = inside
    if np.count_nonzero(table >= 0) != inside.size:
        raise ShapeError("reference keys repeat a grid position")
    query_cell = query_pos - origin
    return table[query_cell[:, 0], query_cell[:, 1]]


class _AlignmentFold:
    """Alignment terms of each image query, filled one block of rows at a time.

    Built from the assembled keys and the scene; feed it every block of
    softmax rows with :meth:`add`, then read :meth:`result`. The image
    queries are the first ``n`` rows (:class:`~ropefreq.attention.SharedQKV`).
    A reference key is positionally aligned with a query at exactly the same
    grid coordinates.
    """

    def __init__(self, qkv: SharedQKV, scene: PlantedScene) -> None:
        (_, query_pos), *_, (_, ref_pos) = qkv.parts
        self.ref_cols = slice(len(qkv.q), len(qkv.k))
        n = self.n = scene.target.n_tokens
        if len(query_pos) != n:
            raise ShapeError(
                f"the queries hold {len(query_pos)} image rows but the scene has {n} tokens"
            )
        n_ref = len(qkv.ref)
        self.has_reference = n_ref > 0
        if not self.has_reference:
            return
        if n_ref != n:
            raise ShapeError(f"the keys hold {n_ref} reference rows but the scene has {n} tokens")
        self.aligned = _aligned_columns(query_pos, ref_pos)
        self.semantic = np.asarray(scene.correspondence, dtype=np.intp)
        self.ref_mass = np.zeros(n)
        self.pos_mass = np.zeros(n)
        self.sem_mass = np.zeros(n)
        self.pos_hit = np.zeros(n, dtype=bool)
        self.sem_hit = np.zeros(n, dtype=bool)

    def add(self, start: int, attention: np.ndarray) -> None:
        """Fold softmax rows ``start:start + len(attention)`` over all keys."""
        stop = min(start + attention.shape[0], self.n)
        if not self.has_reference or start >= stop:
            return
        ref = attention[: stop - start, self.ref_cols]
        rows = np.arange(stop - start)
        aligned = self.aligned[start:stop]
        semantic = self.semantic[start:stop]
        # The first maximum, as argmax takes it; argmax of the strided view
        # itself would copy it whole. Rows are finite (the softmax guard).
        winner = (ref == ref.max(axis=1, keepdims=True)).argmax(axis=1)
        self.ref_mass[start:stop] = ref.sum(axis=1)
        # A query's one aligned weight is the sum over its aligned keys: the
        # other terms of that sum are zeros, which add nothing.
        self.pos_mass[start:stop] = np.where(aligned >= 0, ref[rows, aligned], 0.0)
        self.sem_mass[start:stop] = ref[rows, semantic]
        self.pos_hit[start:stop] = winner == aligned
        self.sem_hit[start:stop] = winner == semantic

    def result(self) -> AlignmentMetrics:
        if not self.has_reference:
            return AlignmentMetrics(0.0, 0.0, 0.0, 0.0, 0.0)
        nq = self.n
        return AlignmentMetrics(
            positional_mass=_row_order_sum(self.pos_mass) / nq,
            semantic_mass=_row_order_sum(self.sem_mass) / nq,
            argmax_positional_rate=int(self.pos_hit.sum()) / nq,
            argmax_semantic_rate=int(self.sem_hit.sum()) / nq,
            reference_mass=_row_order_sum(self.ref_mass) / nq,
        )


@dataclass(frozen=True)
class BandAttribution:
    """Mean absolute per-band logit contribution over image-query/reference pairs, by band label."""

    mean_abs_logit: dict[str, float]
    n_pairs: int


def _band_panels(qb: np.ndarray, ref_k: np.ndarray, partition: BandPartition, panel: np.ndarray):
    """Yield each band's logits of the rows ``qb`` against ``ref_k``, in ``panel``.

    A band's panel is its chunks' share of the scaled logits, so the panels
    sum to the full logits. Each band is computed into ``panel``, a
    ``(len(qb), len(ref_k))`` buffer, when reached and overwritten by the next.
    """
    scale = _logit_scale(qb.shape[1])
    for band in partition.bands:
        cols = slice(2 * band.start, 2 * band.stop)
        np.matmul(qb[:, cols], ref_k[:, cols].T, out=panel)
        panel *= scale
        yield panel


class _AttributionFold:
    """Per-band |logit| sums over image queries x reference keys, one group of rows at a time.

    Built from the partition, the assembled keys and ``n``, the number of
    image queries (the first rows); feed :meth:`add` the query rows of each
    group in order, then read :meth:`result`. A group is :attr:`rows` high,
    the one-head f64 logits rows that fit in ``_BLOCK_BYTES``, whatever
    height the logits blocks are: fixed row groups keep the sums' rounding
    reproducible (Demmel & Nguyen, ARITH 2013). The last group's product
    takes the text rows after it too, up to that height, and sums only its
    image rows, since BLAS may round a product otherwise when it multiplies
    fewer rows at once (one row goes by gemv).
    """

    def __init__(self, partition: BandPartition, qkv: SharedQKV, n: int) -> None:
        self.partition = partition
        self.n = n
        self.ref_k = qkv.ref
        self.n_pairs = n * len(self.ref_k)
        self.totals = np.zeros(len(partition.bands))
        self.rows = _block_height(_row_bytes(len(qkv.k), 1), _BLOCK_BYTES)
        # Elements of one group's band panel, which add computes in.
        self.panel_size = min(self.rows, len(qkv.q)) * len(self.ref_k)

    def add(self, start: int, qb: np.ndarray, work: np.ndarray) -> None:
        """Fold the band logits of the image rows among query rows ``qb`` (from ``start``).

        They are computed in ``work``, a flat f64 array of at least :attr:`panel_size` elements.
        """
        rows = min(len(qb), self.n - start)
        panel = work[: len(qb) * len(self.ref_k)].reshape(len(qb), -1)
        for i, panel in enumerate(_band_panels(qb, self.ref_k, self.partition, panel)):
            self.totals[i] += np.abs(panel[:rows], out=panel[:rows]).sum()

    def result(self) -> BandAttribution:
        means = self.totals / self.n_pairs
        return BandAttribution(
            mean_abs_logit={lab: float(m) for lab, m in zip(self.partition.labels, means)},
            n_pairs=self.n_pairs,
        )


@dataclass(frozen=True)
class SharedEvaluation:
    """One shared-attention evaluation, reduced block by block.

    ``attribution`` is ``None`` without a band partition or without
    reference keys. ``notes`` holds one fixed note when more than half of
    the (image-query row, head) pairs are saturated (:func:`_blocks`).
    """

    alignment: AlignmentMetrics
    attribution: BandAttribution | None
    notes: tuple[str, ...]


def evaluate_shared(
    qkv: SharedQKV,
    scene: PlantedScene,
    heads: int = 1,
    band_partition: BandPartition | None = None,
    attention_out=None,
) -> SharedEvaluation:
    """Alignment and band attribution of ``qkv``, streaming its attention if asked.

    Holds no dense matrix: each block of query rows is folded into the
    running sums, written to the open binary file ``attention_out`` (when
    given) as head-averaged ``<f4`` rows, and dropped, so the file ends up
    holding the ``(n_queries, n_keys)`` matrix row-major. Per-band logits
    are taken against the reference keys only, after the last block, over
    fixed groups of image-query rows (:class:`_AttributionFold`), so their
    sums do not depend on the height of a block. The blocks and the band
    panels are computed in one work buffer. Positional alignment is exact
    grid equality of a query and a reference key; without reference keys
    all alignment is 0. ``heads`` and ``band_partition`` are checked against
    the width of the keys.
    """
    align = _AlignmentFold(qkv, scene)
    _check_heads(heads, band_partition, qkv.k.shape[1])
    q, n_keys = qkv.q, qkv.k.shape[0]
    shape = _logits_shape(len(q), n_keys, heads)
    size = math.prod(shape)
    attribution = None
    if band_partition is not None and align.has_reference:
        attribution = _AttributionFold(band_partition, qkv, align.n)
        size = max(size, attribution.panel_size)
    work = np.empty(size)
    if attention_out is not None:
        chunk = _block_height(4 * n_keys, _WRITE_BYTES)
        # Rows are cast into this one buffer and written from it.
        f4 = np.empty((min(chunk, shape[1]), n_keys), dtype="<f4")
    saturated = 0  # (image-query row, head) pairs
    for start, attention, block_saturated in _blocks(q, qkv.k, heads, work):
        align.add(start, attention)
        saturated += int(block_saturated[: max(align.n - start, 0)].sum())
        if attention_out is not None:
            for row in range(0, attention.shape[0], chunk):
                rows = attention[row : row + chunk]
                np.copyto(f4[: len(rows)], rows)
                attention_out.write(f4[: len(rows)])
    if attribution is not None:
        for start in range(0, align.n, attribution.rows):
            attribution.add(start, q[start : start + attribution.rows], work)
    return SharedEvaluation(
        alignment=align.result(),
        attribution=None if attribution is None else attribution.result(),
        notes=(_SATURATED_NOTE,) if 2 * saturated > align.n * heads else (),
    )
