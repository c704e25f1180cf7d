"""Property: a config that ``--emit-config`` accepts is one that runs.

Generated configs cover small grids, every partition preset, every sharing
mode, ramps, band masks and sweeps with ``step``, with values on both sides
of each check, numbers too large for a float or whose product is, and now
and then a grid or a text count past the key bound. Whatever
``--emit-config`` decides, the run decides the same: exit 0 with the
emitted config echoed in the report, or exit 3 and no files.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ropefreq.cli import PARTITION_NAMES, main

# Numbers on both sides of each check, integers too large for a float, and
# floats whose products (a band mask's scale times a sharing scale) overflow one.
SCALES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 10**400, -(10**400), 1e155, -1e155, 1e300, 1e308, 1.7976931348623157e308]),
    st.floats(-0.25, 3.0),
)
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
            "noise_level": draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e150, 1e155]))),
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


@st.composite
def band_mask_products(draw):
    """A small config whose band mask scales reference keys by up to 10**300
    on top of a sharing scale of up to 10**300, so their product often
    overflows a float."""
    magnitudes = st.integers(0, 300).map(lambda e: 10.0**e)
    mode = draw(st.sampled_from(["plain", "shifted", "frequency_aware"]))
    sharing = {"mode": mode, "adain": draw(st.booleans())}
    if mode == "frequency_aware":
        sharing["s_hf"], sharing["s_lf"] = draw(magnitudes), draw(magnitudes)
    else:
        sharing["s"] = draw(magnitudes)
    if mode == "shifted":
        sharing["offset"] = [1, -1]
    start = draw(st.integers(0, 3))
    sharing["band_mask"] = {
        "start": start,
        "stop": draw(st.integers(start + 1, 4)),
        "mode": "scale",
        "scale": draw(st.sampled_from([1.0, -1.0])) * draw(magnitudes),
    }
    return {
        "rotary": {"dim": 8},
        "grid": {"width": 2, "height": 2},
        "scene": {},
        "text_tokens": 1,
        "sharing": sharing,
        "seed": draw(st.integers(0, 100)),
    }


def check_emit_config_accepts_exactly_what_runs(raw, attention):
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
        # The echo is a fixed point: the emitted config emits itself.
        emitted_text = emitted.read_text()
        twice = tmp / "twice.json"
        assert main(["shared-attn", str(emitted), "--emit-config", str(twice), "--quiet"]) == 0
        assert twice.read_text() == emitted_text
        emitted.unlink()
        twice.unlink()
        emitted_dict = json.loads(emitted_text)
        assert main(["shared-attn", str(config), "--quiet"]) == 0
        report = json.loads((tmp / "report.json").read_text())
        assert report["config"] == emitted_dict


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=configs(), attention=st.booleans())
def test_emit_config_accepts_exactly_what_runs(raw, attention):
    check_emit_config_accepts_exactly_what_runs(raw, attention)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(raw=band_mask_products())
def test_band_mask_products_are_accepted_exactly_when_they_run(raw):
    check_emit_config_accepts_exactly_what_runs(raw, attention=False)
