"""Dense f64 references for shared attention, for the tests to compare against.

They build the full N x 2N softmax and the per-band logits of a shared setup
with plain NumPy and walk the image queries one at a time, the way the
metrics are defined. They import only public names from ``ropefreq``.
"""

import io
import math

import numpy as np

from ropefreq import evaluate_shared


def dense_softmax(q, k, heads=1):
    """Head-averaged softmax rows of rotated queries ``q`` over keys ``k``."""
    head_dim = q.shape[1] // heads
    attention = np.zeros((q.shape[0], k.shape[0]))
    for h in range(heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        logits = (q[:, sl] @ k[:, sl].T) * (1.0 / math.sqrt(head_dim))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attention += e / e.sum(axis=1, keepdims=True)
    return attention / heads


def dense_band_logits(q, k, partition):
    """Each band's share of the scaled single-head logits, shaped (bands, nq, nk)."""
    scale = 1.0 / math.sqrt(q.shape[1])
    return np.stack([
        (q[:, 2 * band.start : 2 * band.stop] @ k[:, 2 * band.start : 2 * band.stop].T) * scale
        for band in partition.bands
    ])


def rows_of(parts, source):
    """Row numbers of ``source``, counted along the ``(source, positions)`` runs ``parts``."""
    rows, start = [], 0
    for src, positions in parts:
        if src == source:
            rows += range(start, start + len(positions))
        start += len(positions)
    return rows


def dense_alignment(attention, qkv, scene):
    """The alignment metrics of softmax rows ``attention`` over ``qkv``'s runs."""
    q_rows = rows_of(qkv.query_parts, "target-image")
    ref_cols = rows_of(qkv.parts, "reference-image")
    if not ref_cols:
        return dict.fromkeys(
            ("positional_mass", "semantic_mass", "argmax_positional_rate",
             "argmax_semantic_rate", "reference_mass"), 0.0)
    key_index = [i for _, positions in qkv.parts for i in range(len(positions))]
    key_pos = [xy for _, positions in qkv.parts for xy in positions.tolist()]
    query_pos = [xy for _, positions in qkv.query_parts for xy in positions.tolist()]
    col_of_index = {key_index[c]: c for c in ref_cols}
    pos_mass = sem_mass = ref_mass = 0.0
    pos_hits = sem_hits = 0
    for i, row in enumerate(q_rows):
        aligned = [c for c in ref_cols if key_pos[c] == query_pos[row]]
        sem_col = col_of_index[int(scene.correspondence[i])]
        ref_row = attention[row, ref_cols]
        ref_mass += float(ref_row.sum())
        pos_mass += float(attention[row, aligned].sum())
        sem_mass += float(attention[row, sem_col])
        winner = ref_cols[int(np.argmax(ref_row))]
        pos_hits += winner in aligned
        sem_hits += winner == sem_col
    n = len(q_rows)
    return {
        "positional_mass": pos_mass / n,
        "semantic_mass": sem_mass / n,
        "argmax_positional_rate": pos_hits / n,
        "argmax_semantic_rate": sem_hits / n,
        "reference_mass": ref_mass / n,
    }


def dense_attribution(qkv, partition):
    """Mean |per-band logit| over image queries x reference keys, by band label."""
    q_rows = rows_of(qkv.query_parts, "target-image")
    ref_cols = rows_of(qkv.parts, "reference-image")
    per_band = dense_band_logits(qkv.q, qkv.k, partition)
    return {
        band.label: float(np.abs(logits[np.ix_(q_rows, ref_cols)]).mean())
        for band, logits in zip(partition.bands, per_band)
    }


def streamed_evaluation(qkv, scene, heads=1, band_partition=None):
    """``(evaluate_shared's result, the <f4 bytes it streamed)`` for ``qkv``."""
    out = io.BytesIO()
    evaluation = evaluate_shared(
        qkv, scene, heads=heads, band_partition=band_partition, attention_out=out
    )
    return evaluation, out.getvalue()


def evaluate_with_reference(qkv, scene, heads=1, band_partition=None):
    """``(evaluate_shared's result, dense softmax, tied)`` for ``qkv``.

    ``tied`` is whether the matrix the evaluation streamed is the dense
    softmax cast to ``<f4``, byte for byte.
    """
    evaluation, streamed = streamed_evaluation(qkv, scene, heads, band_partition)
    attention = dense_softmax(qkv.q, qkv.k, heads)
    tied = streamed == attention.astype("<f4").tobytes()
    return evaluation, attention, tied
