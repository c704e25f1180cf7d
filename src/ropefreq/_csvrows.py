"""Decay-curve CSV rows, byte for byte ``"%d,%s,%.17g\\n"``, by NumPy arithmetic.

Rows whose delta is in ``[0, 10**8)`` and whose value has
``1e-4 <= |value| < 1``, which ``%.17g`` writes as ``0.``, up to three zeros
and the 17 significant digits without their trailing zeros, are laid out in
fixed-width byte fields and taken out with one boolean mask; ``%`` writes the
rest. The digits come from Dekker's exact product of the value with a power
of ten (Dekker 1971), rounded half to even, and a table of the 10**4
four-digit ASCII words.

:func:`ropefreq.bands.decay_curve_to_csv` imports this module on its first
call, so runs that write no CSV neither compile it nor build its tables.
"""

from __future__ import annotations

import numpy as np

from . import bands
from .bands import DecayCurve

__all__ = ["HEADER", "write_rows"]

# The first line of a decay-curve CSV.
HEADER = "delta,band,mean_similarity\n"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of at most 26 bits."""
    c = a * (2.0**27 + 1)
    high = c - (c - a)
    return high, a - high


# The powers of ten 10**0 .. 10**22, each exact as a double, and their halves.
_POW10 = 10.0 ** np.arange(23)
_POW10_HIGH, _POW10_LOW = _split(_POW10)
# The four ASCII digits of each integer 0 .. 9999, zero-padded, as one word.
_WORDS = (
    (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy().view(np.uint32).ravel()
)
# Which of the 20 bytes "000" + 17 digits a value keeps, as five words: row
# 18 * z + s is for z zeros after the point (0..3) and s significant digits.
_VALUE_KEEP = (
    (np.arange(20) < np.arange(4)[:, None, None])
    | ((np.arange(20) >= 3) & (np.arange(20) < 3 + np.arange(18)[:, None]))
).reshape(72, 20).view(np.uint32)
# A laid-out row ends in the sign, "0.", those 20 bytes and "\n".
_VALUE_BYTES = 24


def _scaled(a: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**n`` exactly, as the rounded product ``p`` and its error (Dekker 1971)."""
    high, low = _split(a)
    b_high, b_low = _POW10_HIGH[n], _POW10_LOW[n]
    p = a * _POW10[n]
    return p, ((high * b_high - p) + high * b_low + low * b_high) + low * b_low


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each ``1e-4 <= a < 1``, as ``%.17g`` rounds them.

    Returns the int64 ``r`` in ``[10**16, 10**17]`` and the decimal exponent
    ``e`` with ``a`` closest to ``r * 10**(e - 16)``, ties to even ``r``.
    ``r == 10**17`` means the digits carried into the next decade.
    """
    # log10 may be one off at a decade's edge; the exact comparison settles it.
    n = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, err = _scaled(a, n)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        n[off] += low[off].astype(np.int64) - high[off]
        p[off], err[off] = _scaled(a[off], n[off])
    # p >= 10**16 > 2**53 is an integer, and err is exact: round p + err.
    whole = np.floor(err)
    r = p.astype(np.int64) + whole.astype(np.int64)
    fraction = err - whole
    r += (fraction > 0.5) | ((fraction == 0.5) & (r % 2 == 1))
    return r, 16 - n


def _ascii_words(numbers: np.ndarray, count: int) -> np.ndarray:
    """Each int64 ``0 <= number < 10**(4 * count)`` as ``4 * count`` zero-padded ASCII digits."""
    out = np.empty((len(numbers), count), dtype=np.uint32)
    for k in range(count - 1, -1, -1):
        quotient = numbers // 10**4
        out[:, k] = _WORDS[numbers - quotient * 10**4]
        numbers = quotient
    return out.view(np.uint8)


def write_rows(curve: DecayCurve, out) -> None:
    """Write the rows of ``curve`` to the open text file ``out``, a block of deltas at a time.

    Each row is byte for byte ``"%d,%s,%.17g\\n" % (delta, band, value)``,
    in (delta, band) order.
    """
    labels = list(curve.series)
    names = [f",{label},".encode() for label in labels]
    # Each row's bytes at fixed offsets: the delta's 8 digits, ",label,",
    # the sign, "0.", three zeros and 17 digits, and the newline. ``keep``
    # marks the bytes a row writes; these are the fields every row shares.
    sign = 8 + max(map(len, names))
    width = sign + _VALUE_BYTES
    step = bands._block_deltas(2 * len(labels) * width)
    text = np.empty((step, len(labels), width), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    for i, name in enumerate(names):
        text[:, i, 8 : 8 + len(name)] = np.frombuffer(name, np.uint8)
        keep[:, i, 8 : 8 + len(name)] = True
    text[..., sign : sign + 3] = np.frombuffer(b"-0.", np.uint8)
    text[..., -1] = ord("\n")
    keep[..., [sign + 1, sign + 2, -1]] = True
    for start in range(0, len(curve.delta_values), step):
        deltas = curve.delta_values[start : start + step]
        values = np.column_stack([curve.series[label][start : start + step] for label in labels])
        out.write(_block_rows(deltas, values, names, text[: len(deltas)], keep[: len(deltas)]))


def _block_rows(
    deltas: np.ndarray, values: np.ndarray, names: list[bytes], text: np.ndarray, keep: np.ndarray
) -> str:
    """The rows of one block: ``values`` holds one column per label.

    ``text`` and ``keep`` hold the fields every row shares; the block's own
    fields are written into them.
    """
    sign = text.shape[-1] - _VALUE_BYTES
    rows, row_keep = text.reshape(-1, text.shape[-1]), keep.reshape(-1, text.shape[-1])
    magnitude = np.abs(values).ravel()
    fits = (deltas >= 0) & (deltas < 10**8)
    rest = ~((magnitude >= 1e-4) & (magnitude < 1.0)) | np.repeat(~fits, len(names))
    laid = deltas
    if rest.any():
        # Any delta and value the layout takes; these rows are cut out below.
        magnitude[rest] = 0.5
        laid = np.where(fits, deltas, 0)
    significand, exponent = _significands(magnitude)
    # No double in the window carries: the largest below 1e-3, 1e-2, 1e-1
    # and 1 keep 17 digits. Were one to, ``%`` would write it.
    rest |= significand == 10**17
    text[:, :, :8] = _ascii_words(laid, 2)[:, None]
    delta_length = np.searchsorted(10 ** np.arange(1, 8), laid, side="right") + 1
    keep[:, :, :8] = (np.arange(8) >= 8 - delta_length[:, None])[:, None]
    digits = _ascii_words(significand, 5)
    rows[:, sign + 3 : -1] = digits
    significant = 17 - np.argmax(digits[:, :2:-1] != ord("0"), axis=1)
    zeros = -1 - exponent
    negative = values.ravel() < 0
    row_keep[:, sign] = negative
    row_keep[:, sign + 3 : -1] = np.take(_VALUE_KEEP, zeros * 18 + significant, axis=0).view(bool)
    body = memoryview(text[keep])
    if rest.any():
        # Cut each such row out of the laid-out text and put ``%``'s in.
        lengths = (negative + zeros + significant + 3).reshape(values.shape)
        ends = (lengths + delta_length[:, None] + [len(name) for name in names]).cumsum()
        pieces, at = [], 0
        for row in np.flatnonzero(rest).tolist():
            delta, label = divmod(row, len(names))
            line = b"%d%s%.17g\n" % (deltas[delta], names[label], values[delta, label])
            pieces += [body[at : ends[row - 1] if row else 0], line]
            at = ends[row]
        body = b"".join(pieces + [body[at:]])
    return str(body, "utf-8")
