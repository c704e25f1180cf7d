"""Frequency-band partitioning of rotary chunks and similarity-decay curves.

The similarity between two identical unit chunks separated by an integer grid
shift ``delta`` is ``cos(delta * theta_d)``. Averaging that quantity over a
band of chunk indices shows how quickly each part of the frequency spectrum
loses (or keeps) positional alignment: low chunk indices (high frequency)
drop steeply with small shifts, high indices (low frequency) barely move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._worker import Worker
from .errors import ConfigurationError, ShapeError
from .rope import RotaryConfig, _block_height, _int64, _integer, frequencies

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


def make_even_partition(config: RotaryConfig, n_bands: int) -> BandPartition:
    """Split every chunk index, ``0 .. config.n_chunks - 1``, into ``n_bands`` near-equal bands.

    ``n_bands`` is an integer from 1 to ``config.n_chunks``. Band sizes differ
    by at most one; when the count does not divide evenly the extra chunks go
    to the highest-frequency (lowest-index) bands. Three bands get the labels
    high/mid/low, two high/low, one "full", and any other count is labeled
    band0, band1, ...
    """
    n = config.n_chunks
    if not (_integer(n_bands) and 1 <= n_bands <= n):
        raise ConfigurationError(f"n_bands must be an integer from 1 to {n}, got {n_bands!r}")
    base, rem = divmod(n, n_bands)
    labels = _DEFAULT_LABELS.get(n_bands, tuple(f"band{i}" for i in range(n_bands)))
    edges = [i * base + min(i, rem) for i in range(n_bands + 1)]
    return BandPartition(tuple(map(Band, labels, edges, edges[1:])))


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
    if isinstance(delta_values, range) and delta_values:
        # Only the ends become Python ints. Between two ends in the int64 range
        # every delta is in it, and int64 arithmetic wraps modulo 2**64, so
        # first + i * step comes out exact; np.arange counts its values in
        # floating point and drops some past 2**53.
        first, last = delta_values[0], delta_values[-1]
        _int64(np.array([first, last], dtype=object), "delta_values must be integers")
        try:
            deltas = np.arange(len(delta_values), dtype=np.int64)
        except OverflowError as exc:  # more deltas than len() can count
            raise ConfigurationError("delta_values is a range too long to hold") from exc
        deltas *= (delta_values.step + 2**63) % 2**64 - 2**63  # the step modulo 2**64, as an int64
        deltas += first
    else:
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
    step = _block_height(8 * theta.size)
    for start in range(0, deltas.size, step):
        # The int64 deltas are cast to f64 as the product is taken.
        block = np.multiply.outer(deltas[start : start + step], theta)
        np.cos(block, out=block)
        for label, cols in columns:
            series[label][start : start + step] = block[:, cols].mean(axis=1)
    return DecayCurve(deltas, series)


def _chunk_deltas(n_series: int) -> int:
    """Deltas per streamed chunk of :func:`decay_curve_to_csv` over ``n_series`` series.

    A chunk's curve, its int64 deltas and one f64 per series, fills one row
    budget: 6,553 deltas for 3 bands and "full", 16,384 for one band. The
    two chunks in flight then hold 512 KiB, where a fixed 16,384 deltas
    held 1.25 MiB at 3 bands and "full". At 10**5 deltas on 2 cores the
    CLI run's peak RSS fell 33.6 -> 32.9 MiB, with wall and CPU time level
    (medians of 10 runs, 0.37 -> 0.36 s wall, 0.46 s CPU).
    """
    return _block_height(8 * (1 + n_series))


def decay_curve_to_csv(
    delta_values, partition: BandPartition, config: RotaryConfig, out, include_full: bool = False
) -> None:
    """Write the CSV of :func:`decay_curve` over ``delta_values`` to the open text file ``out``.

    ``delta_values`` needs ``len`` and slicing; a ``range`` is never
    materialized. Each ``delta,band,mean_similarity`` row is byte for byte
    ``"%d,%s,%.17g\\n"`` (see :mod:`ropefreq._csvrows`), in (delta, band)
    order. Each chunk of deltas is one ``decay_curve`` call, so the curve is
    never held whole; while one chunk's rows are written, a worker thread
    (:class:`~ropefreq._worker.Worker`) takes the next chunk's cosines,
    which release the GIL. The worker has ended before this returns or
    raises, and its exception is raised here.
    """
    # Imported on first use: every run that writes no CSV would otherwise
    # compile the renderer at start-up.
    from ._csvrows import HEADER, write_rows

    step = _chunk_deltas(len(partition.bands) + include_full)

    def chunk(lo: int) -> DecayCurve:
        return decay_curve(delta_values[lo : lo + step], partition, config, include_full=include_full)

    out.write(HEADER)
    with Worker(threaded=len(delta_values) > step) as worker:
        curve = chunk(0)
        for lo in range(step, len(delta_values), step):
            _, curve = worker.split(lambda: write_rows(curve, out), lambda: chunk(lo))
    write_rows(curve, out)
