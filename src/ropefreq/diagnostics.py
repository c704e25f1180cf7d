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
kernel, :func:`_blocks`, computes softmax rows a block at a time and folds
them into the alignment terms as they come. Band attribution is a pass of
its own after the kernel, over fixed groups of image-query rows, so its sums
do not depend on how high a logits block is. Both run in one work buffer.
NumPy's OpenBLAS, where its entry points are found, is pinned to one thread
for the whole evaluation (:func:`_blas_pinned`), and with a second CPU one
worker thread (:class:`~ropefreq._worker.Worker`) shares every block with
the caller and takes every second band group. With one CPU the caller
computes both shares itself, so no output bit depends on the CPU count or
on BLAS's own thread count. Timings are in the README's "Memory and scale".
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from ._worker import Worker
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

# Bytes of f64 logits a block of query rows may hold, counting every logits
# buffer. A block's height is the rows this budget holds, over the bytes
# those buffers take per query row, so the working set stays flat however
# many keys and heads there are.
_BLOCK_BYTES = 4 * 2**20

# The most query rows a block has, so that blocks over few keys hold no more
# than they need: at 32x32 with two heads, 64 rows take 2 MiB where the
# budget's 127 took 4 MiB. From 64x64 up the budget stops them first.
_MAX_BUDGET_ROWS = 64

# The fewest query rows a logits or band product multiplies. NumPy multiplies
# one row by BLAS gemv, whose sums round otherwise than gemm's, so a shorter
# block or group takes the rows before it into its product and keeps only
# its own.
_MIN_PRODUCT_ROWS = 3

# A one-head logits product is cut at a multiple of this many keys, near the
# middle, on one CPU as on two, so no byte depends on the CPU count; over few
# keys the parts need not hold the bits of one GEMM over all of them.
_SPLIT_KEYS = 64

# A worker without a thread of its own: every split runs in the caller.
_INLINE = Worker(threaded=False)


def _row_bytes(n_keys: int, heads: int) -> int:
    """Bytes of f64 logits a block holds per query row over ``n_keys`` keys.

    One row per logits buffer: the first head's, which becomes the head
    average, and one for the further heads of each of the two threads.
    """
    return 8 * max(n_keys, 1) * min(heads, 3)


def _block_rows(n_keys: int, heads: int = 1) -> int:
    """Query rows per logits block: those ``_BLOCK_BYTES`` holds, at most 64 and at least 3."""
    rows = _block_height(_row_bytes(n_keys, heads), _BLOCK_BYTES)
    return max(_MIN_PRODUCT_ROWS, min(_MAX_BUDGET_ROWS, rows))


def _product_start(start: int, stop: int) -> int:
    """The first row of the product for rows ``start:stop``, ``_MIN_PRODUCT_ROWS`` or more back from ``stop``."""
    return max(0, min(start, stop - _MIN_PRODUCT_ROWS))


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
    """The shape of a block's logits buffers: its rows, or its product's where that takes more."""
    rows = min(max(_block_rows(n_keys, heads), _MIN_PRODUCT_ROWS), n_queries)
    return min(heads, 3), rows, n_keys


def _softmax(a: np.ndarray, scale: float) -> np.ndarray:
    """Turn the logits rows ``a`` into softmax rows in place; return which top weights pass 0.99.

    Rows that are not finite (overflowing or NaN logits) raise :class:`ConfigurationError`.
    """
    # Overflowing or NaN logits are caught by the finiteness guard below,
    # so NumPy's own warnings about them would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        a *= scale
        a -= a.max(axis=1, keepdims=True)
        np.exp(a, out=a)
        total = a.sum(axis=1, keepdims=True)
    # Each row holds exp(0) = 1, so a finite total means every entry is
    # finite; NaN or overflow anywhere makes it non-finite.
    if not np.isfinite(total).all():
        raise ConfigurationError(
            "attention softmax is not finite: the logits overflow or contain NaN"
        )
    a /= total
    # A row's top weight is exp(0) / total: no pass over the row.
    return 1 / total[:, 0] > _SATURATED_WEIGHT


def _blocks(
    q_rot: np.ndarray,
    k_rot: np.ndarray,
    heads: int,
    work: np.ndarray | None = None,
    fold: Callable[[int, np.ndarray], None] = lambda start, rows: None,
    worker: Worker = _INLINE,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Evaluate attention one block of query rows at a time.

    Yields ``(start, attention, saturated)``: the head-averaged softmax rows
    of query rows ``start:start + len(attention)`` over every key, so each
    row is exact, and for each row the number of heads whose top weight
    passes :data:`_SATURATED_WEIGHT`, once ``fold(start, rows)`` has had the
    rows, in parts that may come from ``worker``'s thread. ``attention`` is
    a C-contiguous view of a buffer the next block overwrites. A block is
    :func:`_block_rows` high, and one of fewer than three rows multiplies
    the rows before it too. The buffers are the leading elements of
    ``work``, a flat f64 array of at least as many elements as
    :func:`_logits_shape` (a new one when it is ``None``).

    With more than one head, the caller computes the even heads and
    ``worker`` the odd ones, a pair at a time, and the caller adds them up
    in head order. One head's product is split at a key column, and then its
    softmax and fold at the middle row. ``heads`` must divide the width into
    whole chunks (:func:`_check_heads`); a softmax row that is not finite
    raises :class:`ConfigurationError`.
    """
    head_dim = q_rot.shape[1] // heads
    scale = _logit_scale(head_dim)
    n_queries = q_rot.shape[0]
    step = _block_rows(k_rot.shape[0], heads)
    shape = _logits_shape(n_queries, k_rot.shape[0], heads)
    logits = np.empty(shape) if work is None else work[: math.prod(shape)].reshape(shape)
    cut = _SPLIT_KEYS * (k_rot.shape[0] // (2 * _SPLIT_KEYS))

    def product(h: int, buffer: int, lo: int, stop: int, cols: slice = slice(None)) -> np.ndarray:
        """Head ``h``'s logits of rows ``lo:stop`` against keys ``cols``, in ``buffer``."""
        sl = slice(h * head_dim, (h + 1) * head_dim)
        out = logits[buffer, : stop - lo]
        # Overflow and NaN are left to the softmax's guard, without NumPy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(q_rot[lo:stop, sl], k_rot[cols, sl].T, out=out[:, cols])
        return out

    def rows(lo: int, start: int, stop: int, saturated: np.ndarray) -> None:
        """Softmax and fold rows ``start:stop`` of the one head's product from row ``lo``."""
        a = logits[0, start - lo : stop - lo]
        saturated += _softmax(a, scale)
        fold(start, a)

    for start in range(0, n_queries, step):
        stop = min(start + step, n_queries)
        lo = _product_start(start, stop)
        own = slice(start - lo, stop - lo)
        attention = logits[0, own]
        saturated = np.zeros(stop - start, dtype=np.intp)
        if heads == 1:
            worker.split(
                lambda: product(0, 0, lo, stop, slice(cut)), lambda: product(0, 0, lo, stop, slice(cut, None))
            )
            mid = (start + stop + 1) // 2
            worker.split(
                lambda: rows(lo, start, mid, saturated[: mid - start]),
                lambda: rows(lo, mid, stop, saturated[mid - start :]),
            )
        else:
            for h in range(0, heads, 2):
                mine, theirs = worker.split(
                    lambda: _softmax(product(h, min(h, 2), lo, stop)[own], scale),
                    (lambda: _softmax(product(h + 1, 1, lo, stop)[own], scale)) if h + 1 < heads else None,
                )
                saturated += mine
                if h > 0:
                    attention += logits[2, own]
                if theirs is not None:
                    saturated += theirs
                    attention += logits[1, own]
            attention /= heads
            fold(start, attention)
        yield start, attention, saturated


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


def _band_panels(qb, ref_k, partition: BandPartition, panel: np.ndarray, unit: float = 1.0):
    """Yield each band's logits of the rows ``qb`` against ``ref_k``, times ``unit``, in ``panel``.

    A band's panel is its chunks' share of the scaled logits, so the panels
    sum to the full logits. Each band is computed into ``panel``, a
    ``(len(qb), len(ref_k))`` buffer, when reached and overwritten by the
    next.
    """
    scale = _logit_scale(qb.shape[1]) * unit
    for band in partition.bands:
        cols = slice(2 * band.start, 2 * band.stop)
        # Overflow is left to the report's finiteness check, without NumPy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(qb[:, cols], ref_k[:, cols].T, out=panel)
        panel *= scale
        yield panel


class _AttributionFold:
    """Per-band |logit| sums over image queries x reference keys, one group of rows at a time.

    Built from the partition, the assembled keys and ``n``, the number of
    image queries (the first rows); call :meth:`add` once for each group,
    in any order and from any thread, then read :meth:`result`. A group is
    :attr:`rows` high, a one-head logits block's height by the same budget,
    whatever height the blocks are, so two panels fit in a block: fixed row
    groups keep the sums' rounding reproducible (Demmel & Nguyen, ARITH
    2013), and :meth:`result` adds them in group order. The last group's
    product takes the text rows after it too, and then the rows before it up
    to three rows (one row goes by gemv, which rounds otherwise).
    """

    def __init__(self, partition: BandPartition, qkv: SharedQKV, n: int) -> None:
        self.partition = partition
        self.n = n
        self.q = qkv.q
        self.ref_k = qkv.ref
        self.n_pairs = n * len(self.ref_k)
        rows = _block_height(_row_bytes(len(qkv.k), 1), _BLOCK_BYTES)
        self.rows = max(_MIN_PRODUCT_ROWS, min(_MAX_BUDGET_ROWS, rows))
        self.starts = range(0, n, self.rows)
        self.sums = np.zeros((len(self.starts), len(partition.bands)))
        # Elements of one group's band panel, which add computes in.
        self.panel_size = min(self.rows, len(self.q)) * len(self.ref_k)
        # No |logit| passes the width times the largest |q| and |k| entries; the unit, a power
        # of two (exact while the logits stay normal), keeps a sum of n_pairs of them below 2**1023.
        bits = sum(math.frexp(max(a.max(), -a.min()))[1] for a in (self.q, self.ref_k))
        self.unit = 2.0 ** -max(0, bits + (self.n_pairs * self.q.shape[1]).bit_length() - 1023)

    def add(self, start: int, work: np.ndarray) -> None:
        """Fold the band logits of the group of image rows from query row ``start``.

        They are computed in ``work``, a flat f64 array of :attr:`panel_size` elements or more.
        """
        stop = min(start + self.rows, len(self.q))
        lo = _product_start(start, stop)
        own = slice(start - lo, min(start + self.rows, self.n) - lo)
        panel = work[: (stop - lo) * len(self.ref_k)].reshape(stop - lo, -1)
        sums = self.sums[start // self.rows]
        panels = _band_panels(self.q[lo:stop], self.ref_k, self.partition, panel, self.unit)
        for i, panel in enumerate(panels):
            sums[i] = np.abs(panel[own], out=panel[own]).sum()

    def result(self) -> BandAttribution:
        totals = np.zeros(len(self.partition.bands))
        for sums in self.sums:
            totals += sums
        means = totals / (self.n_pairs * self.unit)
        return BandAttribution(
            mean_abs_logit={lab: float(m) for lab, m in zip(self.partition.labels, means)},
            n_pairs=self.n_pairs,
        )


@functools.cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS NumPy runs on, or ``None``.

    Only a library mapped (Linux's ``/proc/self/maps``) from NumPy's own
    install (``numpy.libs``, where its wheels bundle OpenBLAS, or the
    package) is taken, on first use. The names are those of NumPy 2's wheels
    (scipy-openblas64), of NumPy 1's (64-bit integers) and of a plain
    OpenBLAS, taken only when setting one thread reads back one. The count
    is the process's, even as set by ``openblas_set_num_threads_local``.
    """
    import ctypes

    package = os.path.dirname(os.path.realpath(np.__file__))
    homes = (package + os.sep, package + ".libs" + os.sep)
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(p for p in paths if os.path.realpath(p).startswith(homes)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            try:
                set_threads = getattr(lib, name.format("set"))
                get_threads = getattr(lib, name.format("get"))
            except AttributeError:
                continue
            threads = get_threads()
            set_threads(1)
            pinned = get_threads() == 1
            set_threads(threads)
            return (set_threads, get_threads) if pinned else None
    return None


# The pins held in this process, and BLAS's thread count before the first, which the last restores.
_PIN_LOCK = threading.Lock()
_pinned = 0
_unpinned_threads = 0


@contextmanager
def _blas_pinned() -> Iterator[bool]:
    """Pin OpenBLAS to one thread for the block, wherever its entry points are found; yield whether it did.

    Every product is then a one-thread GEMM, and no BLAS thread spins beside
    a worker thread. The count is the process's, so pins that overlap, in
    one thread or several, share it, and the last to end restores the count
    the first found, however it ends. The lookup runs under the pin's lock,
    so its check of the entry points cannot undo a pin taken meanwhile.
    """
    global _pinned, _unpinned_threads
    with _PIN_LOCK:
        blas = _openblas()
        if blas is not None and _pinned == 0:
            _unpinned_threads = blas[1]()
            blas[0](1)
        _pinned += blas is not None
    try:
        yield blas is not None
    finally:
        with _PIN_LOCK:
            _pinned -= blas is not None
            if blas is not None and _pinned == 0:
                blas[0](_unpinned_threads)


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
    fixed groups of image-query rows (:class:`_AttributionFold`). OpenBLAS is
    pinned, and a worker thread shares the work where a second CPU allows
    (see the module docstring); both end before this returns or raises.
    Positional alignment is exact grid equality of a query and a reference
    key; without reference keys all alignment is 0. ``heads`` and
    ``band_partition`` are checked against the keys' width.
    """
    align = _AlignmentFold(qkv, scene)
    _check_heads(heads, band_partition, qkv.k.shape[1])
    q, n_keys = qkv.q, qkv.k.shape[0]
    size = math.prod(_logits_shape(len(q), n_keys, heads))
    attribution = None
    if band_partition is not None and align.has_reference:
        attribution = _AttributionFold(band_partition, qkv, align.n)
        # One group in each half; at the blocks' own height both panels fit in their logits.
        size = max(size, 2 * attribution.panel_size)
    work = np.empty(size)
    if attention_out is not None:
        chunk = _block_height(4 * n_keys)
        # Rows are cast into this one buffer, the row budget of <f4, and written from it.
        f4 = np.empty((min(chunk, _block_rows(n_keys, heads), len(q)), n_keys), dtype="<f4")
    saturated = 0  # (image-query row, head) pairs
    with _blas_pinned() as pinned, Worker(pinned) as worker:
        for start, attention, block_saturated in _blocks(q, qkv.k, heads, work, align.add, worker):
            saturated += int(block_saturated[: max(align.n - start, 0)].sum())
            if attention_out is not None:
                for row in range(0, attention.shape[0], chunk):
                    rows = attention[row : row + chunk]
                    np.copyto(f4[: len(rows)], rows)
                    attention_out.write(f4[: len(rows)])
        if attribution is not None:
            starts, panel = attribution.starts, attribution.panel_size
            for first, second in zip(starts[::2], [*starts[1::2], None]):
                worker.split(
                    lambda: attribution.add(first, work),
                    None if second is None else lambda: attribution.add(second, work[panel:]),
                )
    return SharedEvaluation(
        alignment=align.result(),
        attribution=None if attribution is None else attribution.result(),
        notes=(_SATURATED_NOTE,) if 2 * saturated > align.n * heads else (),
    )
