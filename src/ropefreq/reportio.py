"""Serialization of shared-attention evaluations.

Two artifacts: a JSON summary (composed by the CLI) and an optional raw
attention matrix. The raw file, streamed block by block by
:func:`~ropefreq.diagnostics.evaluate_shared`, holds the matrix as
little-endian 32-bit floats, row-major, no header; a JSON sidecar at
``<path>.json`` records the shape, dtype, and key layout needed to
interpret it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .attention import Layout, SharedQKV
from .errors import ShapeError

__all__ = ["layout_to_json", "sidecar_path", "write_attention_matrix", "read_attention_matrix"]


def layout_to_json(layout: Layout) -> list[dict]:
    return [
        {"source": source, "index": i, "position": xy}
        for source, positions in layout.parts
        for i, xy in enumerate(positions.tolist())
    ]


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar of the raw matrix at ``path``."""
    return Path(path).with_name(Path(path).name + ".json")


def write_attention_matrix(path: str | Path, qkv: SharedQKV) -> Path:
    """Write the sidecar of the matrix of ``qkv`` streamed to ``path``; returns its path.

    The matrix itself is written by :func:`~ropefreq.diagnostics.evaluate_shared`
    (``attention_out``); its shape is one row per query and one column per key.
    """
    sidecar = sidecar_path(path)
    meta = {
        "dtype": "<f4",
        "order": "row-major",
        "shape": [len(qkv.query_layout), len(qkv.key_layout)],
        "key_layout": layout_to_json(qkv.key_layout),
        "query_layout": layout_to_json(qkv.query_layout),
    }
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return sidecar


def read_attention_matrix(path: str | Path) -> tuple[np.ndarray, dict]:
    """Load a raw attention file back using its sidecar."""
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    raw = path.read_bytes()
    rows, cols = meta["shape"]
    expected = np.dtype(meta["dtype"]).itemsize * rows * cols
    if len(raw) != expected:
        raise ShapeError(
            f"{path} holds {len(raw)} bytes but its sidecar shape {rows}x{cols} "
            f"of {meta['dtype']} needs {expected}"
        )
    return np.frombuffer(raw, dtype=meta["dtype"]).reshape(rows, cols), meta
