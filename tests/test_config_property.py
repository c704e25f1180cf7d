"""Property: a config that ``--emit-config`` accepts is one that runs.

Generated configs cover small grids, every partition preset, every sharing
mode, ramps, band masks and sweeps with ``step``, with values on both sides
of each check, numbers too large for a float, and now and then a grid or a
text count past the key bound. Whatever ``--emit-config`` decides, the run
decides the same: exit 0 with the emitted config echoed in the report, or
exit 3 and no files.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ropefreq.cli import PARTITION_NAMES, main

# Numbers on both sides of each check, and integers too large for a float.
SCALES = st.one_of(st.sampled_from([0, 1, 2, 3, 10**400, -(10**400)]), st.floats(-0.25, 3.0))
STEPS = st.integers(-1, 4)
# Small shifts, and shifts that take a grid position up to or past an int64 bound.
OFFSETS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**63 - 3, 2**63 - 1, 2**63, 10**30, -(2**63), -(2**63) - 1, -(10**30)]),
)


@st.composite
def sharing_sections(draw):
    mode = draw(st.sampled_from(["none", "plain", "shifted", "frequency_aware"]))
    section = {"mode": mode}
    if draw(st.booleans()):
        section["adain"] = draw(st.booleans())
    if mode in ("plain", "shifted") and draw(st.booleans()):
        section["s"] = draw(SCALES)
    if mode == "shifted":
        section["offset"] = draw(st.lists(OFFSETS, min_size=2, max_size=2))
    if mode == "frequency_aware":
        section["s_hf"], section["s_lf"] = draw(SCALES), draw(SCALES)
        if draw(st.booleans()):
            section["beta"] = draw(SCALES)
        if draw(st.booleans()):
            keys = ("s_hf_start", "s_hf_end", "s_lf_start", "s_lf_end")
            section["ramp"] = {k: draw(SCALES) for k in keys}
            section["ramp"]["total_steps"] = draw(st.integers(0, 4))
    if draw(st.booleans()):
        mask = {
            "start": draw(st.integers(-1, 8)),
            "stop": draw(st.integers(0, 9)),
            "mode": draw(st.sampled_from(["zero", "scale"])),
        }
        if draw(st.booleans()):
            mask["scale"] = draw(SCALES)
        if draw(st.booleans()):
            mask["label"] = "band"
        section["band_mask"] = mask
    return section


@st.composite
def sweep_items(draw):
    section = draw(sharing_sections())
    keep = draw(st.sets(st.sampled_from(sorted(section))))
    item = {k: section[k] for k in sorted(keep)}
    if draw(st.booleans()):
        item["step"] = draw(st.one_of(st.none(), STEPS))
    return item


@st.composite
def configs(draw):
    # Now and then a grid or a text count far past the key bound, whose
    # tokens a run could not even allocate.
    huge = draw(st.sampled_from([None] * 8 + ["grid", "text"]))
    cfg = {
        "rotary": {
            "dim": draw(st.sampled_from([8, 16, 32])),
            "partition": draw(st.sampled_from(PARTITION_NAMES)),
        },
        "grid": {"width": draw(st.integers(1, 3)), "height": draw(st.integers(1, 3))}
        if huge != "grid"
        else {"width": 10**6, "height": 10**6},
        "scene": {
            "kind": draw(st.sampled_from(["identity", "shuffle", "shift"])),
            "noise_level": draw(st.floats(0.0, 1.0)),
            "shift": draw(st.integers(-9, 9)),
            "style_strength": draw(st.floats(0.0, 0.95)),
        },
        "text_tokens": draw(st.integers(0, 2)) if huge != "text" else 10**12,
        "heads": draw(st.integers(1, 2)),
        "sharing": draw(sharing_sections()),
        "seed": draw(st.integers(0, 100)),
    }
    if draw(st.booleans()):
        cfg["step"] = draw(STEPS)
    if draw(st.booleans()):
        cfg["attribution_bands"] = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cfg["sweep"] = draw(st.lists(sweep_items(), min_size=1, max_size=3))
    return cfg


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=configs(), attention=st.booleans())
def test_emit_config_accepts_exactly_what_runs(raw, attention):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw["output"] = {
            "report": str(tmp / "report.json"),
            "attention": str(tmp / "attn.f4") if attention else None,
        }
        config = tmp / "config.json"
        config.write_text(json.dumps(raw))
        emitted = tmp / "emitted.json"
        code = main(["shared-attn", str(config), "--emit-config", str(emitted), "--quiet"])
        assert code in (0, 3)
        if code == 3:
            assert main(["shared-attn", str(config), "--quiet"]) == 3
            assert sorted(tmp.iterdir()) == [config]
            return
        emitted_dict = json.loads(emitted.read_text())
        emitted.unlink()
        assert main(["shared-attn", str(config), "--quiet"]) == 0
        report = json.loads((tmp / "report.json").read_text())
        assert report["config"] == emitted_dict
