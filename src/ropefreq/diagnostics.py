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
kernel yields softmax rows only; the attribution fold takes each band's
logits of a block's query rows itself, in the kernel's buffer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attention import SharedQKV, _blocks, _check_heads, _logit_scale
from .bands import BandPartition
from .errors import ShapeError
from .rope import _block_height
from .synthetic import PlantedScene

__all__ = [
    "AlignmentMetrics",
    "BandAttribution",
    "SharedEvaluation",
    "evaluate_shared",
]

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
    """Per-band |logit| sums over image queries x reference keys, one block at a time.

    Built from the partition, the assembled keys and ``n``, the number of
    image queries (the first rows); feed :meth:`add` each block's query rows
    and its used softmax rows, whose buffer holds each band's ``(rows, N_ref)``
    panel as a C-contiguous view, then read :meth:`result`.
    """

    def __init__(self, partition: BandPartition, qkv: SharedQKV, n: int) -> None:
        self.partition = partition
        self.n = n
        self.ref_k = qkv.ref
        self.n_pairs = n * len(self.ref_k)
        self.totals = np.zeros(len(partition.bands))

    def add(self, start: int, qb: np.ndarray, attention: np.ndarray) -> None:
        """Fold the band logits of query rows ``qb`` (from ``start``), computed in ``attention``."""
        rows = min(len(qb), self.n - start)
        if rows <= 0:
            return
        panel = attention.reshape(-1)[: len(qb) * len(self.ref_k)].reshape(len(qb), -1)
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
    reference keys.
    """

    alignment: AlignmentMetrics
    attribution: BandAttribution | None


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
    are taken against the reference keys only, in the block's buffer once its
    rows are folded and written. Positional alignment is exact grid equality
    of a query and a reference key; without reference keys all alignment is 0.
    ``heads`` and ``band_partition`` are checked against the width of the keys.
    """
    align = _AlignmentFold(qkv, scene)
    _check_heads(heads, band_partition, qkv.k.shape[1])
    attribution = None
    if band_partition is not None and align.has_reference:
        attribution = _AttributionFold(band_partition, qkv, align.n)
    q = qkv.q
    chunk = _block_height(4 * qkv.k.shape[0], _WRITE_BYTES)
    for start, attention in _blocks(q, qkv.k, heads):
        align.add(start, attention)
        if attention_out is not None:
            for row in range(0, attention.shape[0], chunk):
                attention_out.write(attention[row : row + chunk].astype("<f4"))
        if attribution is not None:
            attribution.add(start, q[start : start + attention.shape[0]], attention)
    return SharedEvaluation(
        alignment=align.result(),
        attribution=None if attribution is None else attribution.result(),
    )
