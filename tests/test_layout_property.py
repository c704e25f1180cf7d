"""Property: a layout's JSON text is the bytes the JSON encoder writes for its rows.

``reportio.layout_to_json`` renders a layout from row templates. On drawn
layouts (int64-extreme and negative positions, empty and one-row parts,
no reference part as in mode ``none``, sources that need escaping) the text
equals ``json.dumps(rows, indent=2, sort_keys=True)`` of the rows as a list
of ``{"source", "index", "position"}`` objects, alone and nested one level.
"""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ropefreq.attention import Layout
from ropefreq.reportio import layout_to_json

INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]),
)
SOURCES = st.one_of(
    st.sampled_from(["target-image", "target-text", "reference-image"]),
    st.text(max_size=6),
)


@st.composite
def layouts(draw):
    parts = []
    for source in draw(st.lists(SOURCES, max_size=3)):
        pairs = draw(st.lists(st.tuples(INT64, INT64), max_size=4))
        parts.append((source, np.array(pairs, dtype=np.int64).reshape(-1, 2)))
    return Layout(tuple(parts))


def rows(layout):
    """The layout as the list of row objects the JSON encoder was given."""
    return [
        {"source": source, "index": i, "position": xy}
        for source, positions in layout.parts
        for i, xy in enumerate(positions.tolist())
    ]


@given(layouts())
def test_layout_json_is_the_encoders_text(layout):
    text = layout_to_json(layout)
    assert text == json.dumps(rows(layout), indent=2, sort_keys=True)
    nested = '{\n  "key_layout": ' + text.replace("\n", "\n  ") + "\n}"
    assert nested == json.dumps({"key_layout": rows(layout)}, indent=2, sort_keys=True)
