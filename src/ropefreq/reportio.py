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

from .attention import SharedQKV
from .errors import ShapeError

__all__ = ["layout_to_json", "sidecar_path", "write_attention_matrix", "read_attention_matrix"]


# One layout row as ``json.dumps(rows, indent=2, sort_keys=True)`` writes it,
# after the comma and newline that end the row before; ``%s`` is the source.
_ROW = (
    ',\n  {\n    "index": %%d,\n    "position": [\n      %%d,\n      %%d\n    ],\n'
    '    "source": %s\n  }'
)


def layout_to_json(parts: tuple[tuple[str, np.ndarray], ...]) -> str:
    """The text ``json.dumps(rows, indent=2, sort_keys=True)`` writes for the runs ``parts``.

    ``rows`` holds one ``{"source", "index", "position"}`` object per row of
    each ``(source, positions)`` run, in order. Each run is rendered with one
    ``%`` over its row template repeated once per row. Nest the text one
    level deeper with ``.replace("\\n", "\\n  ")``.
    """
    return _json_array(_json_rows(parts))


def _json_rows(parts: tuple[tuple[str, np.ndarray], ...]) -> str:
    """The rows of ``parts``, each as :data:`_ROW` writes it."""
    text = []
    for source, positions in parts:
        n = len(positions)
        row = _ROW % json.dumps(source).replace("%", "%%")
        text.append(row * n % tuple(np.column_stack([np.arange(n), positions]).ravel().tolist()))
    return "".join(text)


def _json_array(rows: str) -> str:
    """The JSON array of the rows :func:`_json_rows` wrote."""
    return "[" + rows[1:] + "\n]" if rows else "[]"


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar of the raw matrix at ``path``."""
    return Path(path).with_name(Path(path).name + ".json")


# The sidecar as ``json.dumps(meta, indent=2, sort_keys=True)`` writes it,
# with a final newline: the key and query layouts (nested), then the shape.
_SIDECAR = (
    '{\n  "dtype": "<f4",\n  "key_layout": %s,\n  "order": "row-major",\n'
    '  "query_layout": %s,\n  "shape": [\n    %d,\n    %d\n  ]\n}\n'
)


def write_attention_matrix(path: str | Path, qkv: SharedQKV) -> Path:
    """Write the sidecar of the matrix of ``qkv`` streamed to ``path``; returns its path.

    The matrix itself is written by :func:`~ropefreq.diagnostics.evaluate_shared`
    (``attention_out``); its shape is one row per query and one column per key.
    """
    sidecar = sidecar_path(path)
    # The queries are the keys' leading runs: render their rows once.
    query_rows = _json_rows(qkv.query_parts)
    key_rows = query_rows + _json_rows(qkv.parts[len(qkv.query_parts) :])
    sidecar.write_text(
        _SIDECAR
        % (
            _json_array(key_rows).replace("\n", "\n  "),
            _json_array(query_rows).replace("\n", "\n  "),
            len(qkv.q),
            len(qkv.k),
        )
    )
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
