"""Frequency-band partitioning of rotary chunks and similarity-decay curves.

The similarity between two identical unit chunks separated by an integer grid
shift ``delta`` is ``cos(delta * theta_d)``. Averaging that quantity over a
band of chunk indices shows how quickly each part of the frequency spectrum
loses (or keeps) positional alignment: low chunk indices (high frequency)
drop steeply with small shifts, high indices (low frequency) barely move.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .rope import RotaryConfig, _block_height, _int64, frequencies

__all__ = [
    "Band",
    "BandPartition",
    "DecayCurve",
    "make_even_partition",
    "decay_curve",
    "decay_curve_to_csv",
]

_DEFAULT_LABELS = {1: ("full",), 2: ("high", "low"), 3: ("high", "mid", "low")}


@dataclass(frozen=True)
class Band:
    """A contiguous half-open range of chunk indices ``[start, stop)``."""

    label: str
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ConfigurationError(f"band {self.label!r} has empty range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)


@dataclass(frozen=True)
class BandPartition:
    """Ordered, disjoint bands, from low chunk index (high frequency) to high."""

    bands: tuple[Band, ...]

    def __post_init__(self) -> None:
        if not self.bands:
            raise ConfigurationError("a partition needs at least one band")
        labels = [b.label for b in self.bands]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"band labels must be unique, got {labels}")
        for a, b in zip(self.bands, self.bands[1:]):
            if b.start < a.stop:
                raise ConfigurationError(
                    f"bands {a.label!r} and {b.label!r} overlap or are out of order"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bands)

    def chunk_indices(self) -> np.ndarray:
        """All chunk indices covered, in band order."""
        return np.concatenate([b.indices() for b in self.bands])


def make_even_partition(config: RotaryConfig, n_bands: int, axis: str = "x") -> BandPartition:
    """Split an axis's chunk indices into ``n_bands`` near-equal bands.

    ``axis`` is ``"x"``, ``"y"``, or ``"all"`` (every chunk regardless of
    axis). Band sizes differ by at most one; when the count does not divide
    evenly the extra chunks go to the highest-frequency (lowest-index) bands.
    Three bands get the labels high/mid/low, two high/low, one "full", and
    any other count is labeled band0, band1, ...
    """
    if axis == "x":
        chunks = config.x_chunks
    elif axis == "y":
        chunks = config.y_chunks
    elif axis == "all":
        chunks = tuple(range(config.n_chunks))
    else:
        raise ConfigurationError(f"axis must be 'x', 'y' or 'all', got {axis!r}")
    if not chunks:
        raise ConfigurationError(f"axis {axis!r} has no chunks in this config")
    ordered = sorted(chunks)
    if ordered != list(range(ordered[0], ordered[-1] + 1)):
        raise ConfigurationError(f"axis {axis!r} chunk indices are not contiguous: {chunks}")
    if n_bands < 1 or n_bands > len(ordered):
        raise ConfigurationError(
            f"n_bands must be between 1 and {len(ordered)} for axis {axis!r}, got {n_bands}"
        )
    base, rem = divmod(len(ordered), n_bands)
    labels = _DEFAULT_LABELS.get(n_bands, tuple(f"band{i}" for i in range(n_bands)))
    bands = []
    lo = ordered[0]
    for i in range(n_bands):
        size = base + (1 if i < rem else 0)
        bands.append(Band(labels[i], lo, lo + size))
        lo += size
    return BandPartition(tuple(bands))


# Bytes one block of deltas may hold: f64 cosines in :func:`decay_curve`
# (chosen from a 32 KiB to 4 MiB sweep for the lowest peak RSS), row text
# and its keep mask in ``_csvrows.write_rows``, and a streamed chunk's
# curve in :func:`decay_curve_to_csv`. A block's height is this budget over
# the bytes of one delta, so memory stays flat however many deltas.
_BLOCK_BYTES = 2**18


def _block_deltas(delta_bytes: int) -> int:
    """Deltas per block when each delta holds ``delta_bytes`` bytes."""
    return _block_height(delta_bytes, _BLOCK_BYTES)


@dataclass(frozen=True)
class DecayCurve:
    """Mean similarity per band as a function of integer position shift.

    ``delta_values`` is an int64 array and each series a float64 array of
    the same length.
    """

    delta_values: np.ndarray
    series: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.delta_values)
        for label, values in self.series.items():
            if len(values) != n:
                raise ShapeError(f"series {label!r} has {len(values)} points, expected {n}")
            # Extremes rather than an |values| array; a NaN fails either bound.
            bound = 1.0 + 1e-12
            if not -bound <= np.min(values, initial=0.0) <= np.max(values, initial=0.0) <= bound:
                raise ConfigurationError(f"series {label!r} leaves [-1, 1]")


def decay_curve(
    delta_values,
    partition: BandPartition,
    config: RotaryConfig,
    include_full: bool = False,
) -> DecayCurve:
    """Evaluate mean band similarity for every delta in ``delta_values``.

    With ``include_full`` a series labeled "full" is appended, averaging over
    the union of the partition's chunks (the size-weighted mean of the band
    series). Deltas are evaluated in blocks of a fixed byte budget; each
    block takes ``cos`` once over every band's chunks, and each band's mean
    is over its slice of that block. Purely deterministic in its inputs.
    The deltas (any iterable) follow the position rule of
    :class:`~ropefreq.attention.TokenSet`: a value that is not an integer in
    the int64 range raises :class:`ConfigurationError` rather than being
    truncated or wrapped.
    """
    if not hasattr(delta_values, "__len__"):
        delta_values = list(delta_values)
    deltas = _int64(np.asarray(delta_values), "delta_values must be integers")
    if deltas.ndim != 1:
        raise ShapeError(f"delta_values must be 1-D, got shape {deltas.shape}")
    if not deltas.size:
        raise ConfigurationError("delta_values must be non-empty")
    if partition.bands[-1].stop > config.n_chunks:
        raise ConfigurationError(
            f"partition extends past the last chunk index {config.n_chunks - 1}"
        )
    if include_full and "full" in partition.labels:
        raise ConfigurationError("partition already has a band labeled 'full'")
    theta = frequencies(config)[partition.chunk_indices()]
    edges = np.cumsum([0] + [band.size for band in partition.bands]).tolist()
    columns = [
        (band.label, slice(lo, hi)) for band, lo, hi in zip(partition.bands, edges, edges[1:])
    ]
    if include_full:
        columns.append(("full", slice(None)))
    series = {label: np.empty(deltas.size) for label, _ in columns}
    step = _block_deltas(8 * theta.size)
    for start in range(0, deltas.size, step):
        # The int64 deltas are cast to f64 as the product is taken.
        block = np.multiply.outer(deltas[start : start + step], theta)
        np.cos(block, out=block)
        for label, cols in columns:
            series[label][start : start + step] = block[:, cols].mean(axis=1)
    return DecayCurve(deltas, series)


# Deltas per streamed chunk of :func:`decay_curve_to_csv`: a block's budget
# at 16 bytes a delta, 16,384. At 10**5 deltas on 2 cores, 2**13 to 2**15
# were fastest of 2**11 to 2**16: shorter chunks start more threads, longer
# ones leave the first chunk's cosines and the last one's rows unoverlapped
# for longer. Two chunks of 3 bands and "full" hold 1.3 MB.
_CHUNK_DELTAS = _block_deltas(16)


def decay_curve_to_csv(
    delta_values, partition: BandPartition, config: RotaryConfig, out, include_full: bool = False
) -> None:
    """Write the CSV of :func:`decay_curve` over ``delta_values`` to the open text file ``out``.

    ``delta_values`` needs ``len`` and slicing; a ``range`` is never
    materialized. Each ``delta,band,mean_similarity`` row is byte for byte
    ``"%d,%s,%.17g\\n"`` (see :mod:`ropefreq._csvrows`), in (delta, band)
    order. Each chunk of deltas is one ``decay_curve`` call, so the curve is
    never held whole; while one chunk's rows are written, a worker thread
    takes the next chunk's cosines, which release the GIL. The worker has
    ended before this returns or raises, and its exception is raised here.
    """
    # Imported on first use: every run that writes no CSV would otherwise
    # compile the renderer at start-up.
    from ._csvrows import HEADER, write_rows

    def chunk(lo: int) -> DecayCurve:
        return decay_curve(
            delta_values[lo : lo + _CHUNK_DELTAS], partition, config, include_full=include_full
        )

    def compute(lo: int, result: list) -> None:
        try:
            result.append(chunk(lo))
        except BaseException as exc:  # raised again in the calling thread
            result.append(exc)

    out.write(HEADER)
    curve = chunk(0)
    for lo in range(_CHUNK_DELTAS, len(delta_values), _CHUNK_DELTAS):
        result: list = []
        worker = threading.Thread(target=compute, args=(lo, result))
        worker.start()
        try:
            write_rows(curve, out)
        finally:
            worker.join()
        [curve] = result
        if isinstance(curve, BaseException):
            raise curve
    write_rows(curve, out)
