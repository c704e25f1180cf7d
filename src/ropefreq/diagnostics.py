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

Blocks and band groups of ``_MIN_PAIRED_ROWS`` or more rows, groups only
when two band panels fit that buffer, are computed two at a time
(:func:`_pairs`): the calling thread computes the first and folds it while
one worker thread computes the second. Two paired blocks share the one
4 MiB budget, so each is half as high as one block (31 rows at 64x64);
where half the budget is fewer rows (past 72x72 with one head), a block
takes all of it alone, as no pair pays for the shorter products. While a
worker runs, NumPy's OpenBLAS is pinned to one thread
(:func:`_blas_pinned`): left at two, its second thread spun through every
NumPy pass between the products, and the process used about 1.9 CPU
seconds per wall second. Passes that are not paired, and every pass
without OpenBLAS's entry points or a second CPU, run in the calling thread
with BLAS left alone. On a 2-vCPU VM the ``copy64_attr`` benchmark's CPU
time fell by a fifth (see the README's "Memory and scale").
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import closing, contextmanager, nullcontext
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

# Bytes of f64 logits the blocks of query rows in flight may hold together,
# counting every logits buffer of each. A block's height is the rows this
# budget holds, over the bytes those buffers take per query row, halved when
# two blocks are in flight, so the working set stays flat however many keys
# and heads there are.
_BLOCK_BYTES = 4 * 2**20

# The most query rows the budget gives the blocks in flight, so that
# blocks over few keys hold no more than they need: at 32x32 with two heads,
# 64 rows take 2 MiB where the budget's 127 took 4 MiB. From 64x64 up the
# budget stops them first.
_MAX_BUDGET_ROWS = 64

# The fewest query rows a logits or band product multiplies. NumPy multiplies
# one row by BLAS gemv, whose sums round otherwise than gemm's, so a shorter
# block or group takes the rows before it into its product and keeps only
# its own.
_MIN_PRODUCT_ROWS = 3

# The fewest rows a block or band group of a pair has. OpenBLAS packs all
# the keys for every product, so a product costs more per row the fewer rows
# it multiplies, and two products of half as many rows on one BLAS thread
# each can cost more than one product on two. Timed on a 2-vCPU VM, paired
# logits blocks of 31 rows (64x64) and 25 (72x72) took 5-7% less CPU and
# 4-10% more wall time than unpaired blocks of twice the rows; at 16 rows
# (88x88) 7% more CPU and 12% more wall, at 7 (128x128) 37% and 45% more.
# Paired band groups of 28 to 63 rows took 18-32% less CPU and 10-27% less
# wall, and of 15 rows (128x128) 8% more wall. Shorter blocks or groups go
# one at a time, blocks then taking all of the budget's rows, and no worker
# runs.
_MIN_PAIRED_ROWS = 24


def _row_bytes(n_keys: int, heads: int) -> int:
    """Bytes of f64 logits a block holds per query row over ``n_keys`` keys.

    One row per logits buffer: the first head's, which becomes the head
    average, and with more heads one that each further head is computed in.
    """
    return 8 * max(n_keys, 1) * min(heads, 2)


def _budget_rows(n_keys: int, heads: int) -> int:
    """Query rows of logits over ``n_keys`` keys that ``_BLOCK_BYTES`` holds, at most 64."""
    return min(_MAX_BUDGET_ROWS, _block_height(_row_bytes(n_keys, heads), _BLOCK_BYTES))


def _paired_blocks(n_keys: int, heads: int) -> bool:
    """Whether logits blocks go two at a time: half the budget holds ``_MIN_PAIRED_ROWS`` rows."""
    return _budget_rows(n_keys, heads) // 2 >= _MIN_PAIRED_ROWS


def _block_rows(n_keys: int, heads: int = 1) -> int:
    """Query rows per logits block for ``n_keys`` keys and ``heads`` heads.

    Half the budget's rows (at most 32) when blocks go two at a time, or
    else all of them, and at least ``_MIN_PRODUCT_ROWS``.
    """
    rows = _budget_rows(n_keys, heads)
    return max(_MIN_PRODUCT_ROWS, rows // 2 if _paired_blocks(n_keys, heads) else rows)


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
    """The shape of the logits buffers of the blocks in flight (:func:`_blocks`).

    They hold the budget's rows, or the blocks' products where those take
    more, so each block of a pair computes in its half of them.
    """
    product = min(_block_rows(n_keys, heads), n_queries)
    slots = 2 if _paired_blocks(n_keys, heads) else 1
    rows = max(min(_budget_rows(n_keys, heads), n_queries), slots * product)
    return min(heads, 2), rows, n_keys


def _pairs(
    compute: Callable[[int, int], object], items: Sequence[int], paired: bool
) -> Iterator[object]:
    """Yield ``compute(item, slot)`` for each of ``items`` in order.

    Without ``paired``, each is computed in the calling thread with ``slot``
    0. With it, items go two at a time: the first of each pair with ``slot``
    0 in the calling thread, and the second with ``slot`` 1, by one worker
    thread while the caller computes the first and handles it, when
    :func:`_blas_pinned` pins BLAS, or else in the caller once it has handled
    the first. A slot is computed in again only once the caller has handled
    its last result, so a result must stay valid only while the other
    slot's is computed. The worker's exception is raised in the caller after
    the first of its pair is handled. Before the generator finishes or is
    closed, the worker has ended and BLAS's thread count is restored.
    """
    if not paired or len(items) < 2:
        for item in items:
            yield compute(item, 0)
        return
    # Imported here, like ctypes in _openblas, so importing the package does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    with _blas_pinned() as worker, (ThreadPoolExecutor(1) if worker else nullcontext()) as pool:
        for i in range(0, len(items), 2):
            second = items[i + 1] if i + 1 < len(items) else None
            ahead = pool.submit(compute, second, 1) if worker and second is not None else None
            yield compute(items[i], 0)
            if second is not None:
                yield compute(second, 1) if ahead is None else ahead.result()


def _blocks(
    q_rot: np.ndarray,
    k_rot: np.ndarray,
    heads: int,
    work: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Evaluate attention one block of query rows at a time.

    Yields ``(start, attention, saturated)``: the head-averaged softmax rows
    of query rows ``start:start + len(attention)`` over every key, so each
    row is exact, and for each row the number of heads whose top weight
    passes :data:`_SATURATED_WEIGHT`. ``attention`` is a C-contiguous view of
    a buffer the block after next overwrites (the caller may compute in
    it): copy what must outlive it. A block is :func:`_block_rows` high, so
    the logits buffers of the blocks in flight (two per block with more than
    one head) together hold at most ``_BLOCK_BYTES``, or three rows of each
    when the budget holds fewer. Blocks of ``_MIN_PAIRED_ROWS`` or more are
    computed two at a time, the second on a worker thread where one can run
    (:func:`_pairs`), and all are yielded in order. A block of fewer than
    three rows multiplies the rows before it too. The buffers are the
    leading elements of ``work``, a flat f64 array of at least as many
    elements as :func:`_logits_shape` (a new one when it is ``None``).

    ``heads`` must divide the width into whole chunks (:func:`_check_heads`);
    a softmax row that is not finite (overflowing or NaN logits) raises
    :class:`ConfigurationError` in its block.
    """
    head_dim = q_rot.shape[1] // heads
    scale = _logit_scale(head_dim)
    n_queries = q_rot.shape[0]
    step = _block_rows(k_rot.shape[0], heads)
    # Every pair of blocks is computed into the same buffers, each block in
    # its half of their rows, so two blocks are held however many there
    # are, and no block's memory goes back to the allocator only to be
    # asked for again.
    shape = _logits_shape(n_queries, k_rot.shape[0], heads)
    logits = np.empty(shape) if work is None else work[: math.prod(shape)].reshape(shape)
    rows = shape[1] // 2

    def block(start: int, slot: int) -> tuple[int, np.ndarray, np.ndarray]:
        stop = min(start + step, n_queries)
        lo = _product_start(start, stop)
        products = logits[:, slot * rows : slot * rows + stop - lo]
        own = slice(start - lo, stop - lo)
        attention = products[0, own]
        saturated = np.zeros(stop - start, dtype=np.intp)
        # Overflowing or NaN logits are caught by the finiteness guard below,
        # so NumPy's own warnings about them would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(heads):
                sl = slice(h * head_dim, (h + 1) * head_dim)
                product = products[min(h, 1)]
                np.matmul(q_rot[lo:stop, sl], k_rot[:, sl].T, out=product)
                a = product[own]
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
        return start, attention, saturated

    yield from _pairs(block, range(0, n_queries, step), _paired_blocks(k_rot.shape[0], heads))


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
    image queries (the first rows); call :meth:`add` once for each group,
    in any order and from any thread, then read :meth:`result`. A group is
    :attr:`rows` high, the one-head f64 logits rows that fit in
    ``_BLOCK_BYTES`` (at least three), whatever height the logits blocks
    are: fixed row groups keep the sums' rounding reproducible (Demmel &
    Nguyen, ARITH 2013), and :meth:`result` adds the groups' sums in group
    order. BLAS may round a product otherwise when it multiplies fewer rows
    at once (one row goes by gemv), so the last group's product takes the
    text rows after it too, up to that height, and then the rows before it
    up to three rows, and sums only its own image rows.
    """

    def __init__(self, partition: BandPartition, qkv: SharedQKV, n: int) -> None:
        self.partition = partition
        self.n = n
        self.q = qkv.q
        self.ref_k = qkv.ref
        self.n_pairs = n * len(self.ref_k)
        self.rows = max(_MIN_PRODUCT_ROWS, _block_height(_row_bytes(len(qkv.k), 1), _BLOCK_BYTES))
        self.starts = range(0, n, self.rows)
        self.sums = np.zeros((len(self.starts), len(partition.bands)))
        # Elements of one group's band panel, which add computes in.
        self.panel_size = min(self.rows, len(self.q)) * len(self.ref_k)

    def add(self, start: int, work: np.ndarray) -> None:
        """Fold the band logits of the group of image rows from query row ``start``.

        They are computed in ``work``, a flat f64 array of at least :attr:`panel_size` elements.
        """
        stop = min(start + self.rows, len(self.q))
        lo = _product_start(start, stop)
        own = slice(start - lo, min(start + self.rows, self.n) - lo)
        panel = work[: (stop - lo) * len(self.ref_k)].reshape(stop - lo, -1)
        sums = self.sums[start // self.rows]
        for i, panel in enumerate(_band_panels(self.q[lo:stop], self.ref_k, self.partition, panel)):
            sums[i] = np.abs(panel[own], out=panel[own]).sum()

    def result(self) -> BandAttribution:
        totals = np.zeros(len(self.partition.bands))
        for sums in self.sums:
            totals += sums
        means = totals / self.n_pairs
        return BandAttribution(
            mean_abs_logit={lab: float(m) for lab, m in zip(self.partition.labels, means)},
            n_pairs=self.n_pairs,
        )


@functools.cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS NumPy runs on, or ``None``.

    Only a library mapped (Linux's ``/proc/self/maps``) from NumPy's own
    install is taken: the ``numpy.libs`` directory its wheels bundle
    OpenBLAS in, or the package itself, not another OpenBLAS that some
    other extension loaded. It is looked up on first use, not at import.
    The names are those of NumPy 2's wheels (scipy-openblas64), of NumPy 1's
    (64-bit integers) and of a plain OpenBLAS, and they are taken only when
    setting one thread reads back one. The thread count is the process's:
    even ``openblas_set_num_threads_local`` in a worker thread set the count
    the main thread reads.
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


# The pins held in this process, and the BLAS thread count before the first
# of them, which the last restores.
_PIN_LOCK = threading.Lock()
_pinned = 0
_unpinned_threads = 0


@contextmanager
def _blas_pinned() -> Iterator[bool]:
    """Pin OpenBLAS to one thread for the block, when a worker thread can use a second CPU.

    Yields whether it did: then the caller and one worker compute at once,
    each with one BLAS thread, where otherwise BLAS's second thread would
    spin through every NumPy pass between the products. Without OpenBLAS's
    entry points or a second CPU, BLAS is left alone and no worker runs.
    The count is the process's, so pins that overlap, in one thread or
    several, share it, and the last to end restores the count the first
    found, however it ends. The lookup runs under the pin's lock, so its
    check of the entry points cannot undo a pin taken meanwhile.
    """
    global _pinned, _unpinned_threads
    with _PIN_LOCK:
        blas = _openblas() if len(os.sched_getaffinity(0)) > 1 else None
        if blas is not None:
            if _pinned == 0:
                _unpinned_threads = blas[1]()
                blas[0](1)
            _pinned += 1
    if blas is None:
        yield False
        return
    try:
        yield True
    finally:
        with _PIN_LOCK:
            _pinned -= 1
            if _pinned == 0:
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
    fixed groups of image-query rows (:class:`_AttributionFold`), so their
    sums do not depend on the height of a block. The blocks and the band
    panels are computed in one work buffer, two at a time where they are
    high enough and a second CPU and NumPy's OpenBLAS allow (:func:`_pairs`);
    the worker thread has ended, and the BLAS thread count is restored,
    before this returns or raises. Positional alignment is exact grid
    equality of a query and a reference key; without reference keys
    all alignment is 0. ``heads`` and ``band_partition`` are checked against
    the width of the keys.
    """
    align = _AlignmentFold(qkv, scene)
    _check_heads(heads, band_partition, qkv.k.shape[1])
    q, n_keys = qkv.q, qkv.k.shape[0]
    size = math.prod(_logits_shape(len(q), n_keys, heads))
    attribution = None
    if band_partition is not None and align.has_reference:
        attribution = _AttributionFold(band_partition, qkv, align.n)
        panel = attribution.panel_size
        # Two groups are in flight only when their panels fit where the blocks were.
        two_groups = attribution.rows >= _MIN_PAIRED_ROWS and 2 * panel <= size
        size = max(size, panel)
    work = np.empty(size)
    if attention_out is not None:
        chunk = _block_height(4 * n_keys, _WRITE_BYTES)
        # Rows are cast into this one buffer and written from it.
        f4 = np.empty((min(chunk, _block_rows(n_keys, heads), len(q)), n_keys), dtype="<f4")
    saturated = 0  # (image-query row, head) pairs
    with closing(_blocks(q, qkv.k, heads, work)) as blocks:
        for start, attention, block_saturated in blocks:
            align.add(start, attention)
            saturated += int(block_saturated[: max(align.n - start, 0)].sum())
            if attention_out is not None:
                for row in range(0, attention.shape[0], chunk):
                    rows = attention[row : row + chunk]
                    np.copyto(f4[: len(rows)], rows)
                    attention_out.write(f4[: len(rows)])
    if attribution is not None:
        panels = (work[:panel], work[panel : 2 * panel])
        for _ in _pairs(
            lambda start, slot: attribution.add(start, panels[slot]), attribution.starts, two_groups
        ):
            pass
    return SharedEvaluation(
        alignment=align.result(),
        attribution=None if attribution is None else attribution.result(),
        notes=(_SATURATED_NOTE,) if 2 * saturated > align.n * heads else (),
    )
