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

from .errors import ConfigurationError, ShapeError
from .rope import RotaryConfig, frequencies

__all__ = [
    "Band",
    "BandPartition",
    "DecayCurve",
    "make_even_partition",
    "decay_curve",
    "decay_curve_to_csv",
    "band_mask",
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

    def covers_all_chunks(self, config: RotaryConfig) -> bool:
        covered = set(self.chunk_indices().tolist())
        return covered == set(range(config.n_chunks))


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
# and its keep mask in :func:`decay_curve_to_csv`. A block's height is this
# budget over the bytes of one delta, so memory stays flat however many
# deltas.
_BLOCK_BYTES = 2**18


def _block_deltas(delta_bytes: int) -> int:
    """Deltas per block when each delta holds ``delta_bytes`` bytes."""
    return max(1, _BLOCK_BYTES // delta_bytes)


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
    """
    count = len(delta_values) if hasattr(delta_values, "__len__") else -1
    deltas = np.fromiter(map(int, delta_values), dtype=np.int64, count=count)
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


def decay_curve_to_csv(curve: DecayCurve, out) -> None:
    """Write a curve to the open text file ``out`` as ``delta,band,mean_similarity`` rows.

    Rows are sorted by (delta, band order); floats carry 17 significant
    digits so parsing the file back reproduces the exact doubles. Each row
    is byte for byte ``"%d,%s,%.17g\\n" % (delta, band, value)``. Deltas are
    rendered and written a block at a time (see :mod:`ropefreq._csvrows`).
    """
    # Imported on first use: every run that writes no CSV would otherwise
    # compile the renderer at start-up.
    from ._csvrows import HEADER, write_rows

    out.write(HEADER)
    if curve.series:
        write_rows(curve, out)


def _band_factor(band: Band, mode: str, config: RotaryConfig, scale: float | None = None) -> float:
    """The factor :func:`band_mask` multiplies ``band``'s coordinates by.

    Raises :class:`ConfigurationError` if the band does not fit ``config``
    or the mode (and scale) are not a valid mask.
    """
    if band.stop > config.n_chunks:
        raise ConfigurationError(f"band {band.label!r} extends past the last chunk")
    if mode == "zero":
        return 0.0
    if mode == "scale":
        if scale is None:
            raise ConfigurationError("mode 'scale' requires a scale value")
        return float(scale)
    raise ConfigurationError(f"mode must be 'zero' or 'scale', got {mode!r}")


def band_mask(vec, band: Band, mode: str, config: RotaryConfig, scale: float | None = None) -> np.ndarray:
    """Zero or rescale the coordinates of one chunk band, leaving the rest.

    ``vec`` may be a single embedding ``(dim,)`` or a stack ``(n, dim)``.
    ``mode`` is "zero" or "scale"; scaling requires ``scale``.
    """
    v = np.array(vec, dtype=np.float64)
    if v.shape[-1] != config.dim:
        raise ShapeError(f"expected last axis of width {config.dim}, got shape {v.shape}")
    v[..., 2 * band.start : 2 * band.stop] *= _band_factor(band, mode, config, scale)
    return v
