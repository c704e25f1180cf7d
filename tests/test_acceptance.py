"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Frozen expected values live in tests/fixtures/ and were produced by
the independent implementations in tests/oracles.py.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import oracles
from dense_reference import dense_attribution, dense_band_logits, evaluate_with_reference
from ropefreq import (
    Band,
    BandMaskSpec,
    RotaryConfig,
    SharingParams,
    TimestepRamp,
    apply_rope_batch,
    build_shared_qkv,
    chunk_decomposition,
    make_even_partition,
    make_grid,
    make_text,
    modulation_scales,
    plant_scene,
    ramp_at,
    reconstruct_inner_product,
    relative_inner_product,
)
from ropefreq.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DECAY = json.loads((FIXTURES / "decay_fixture.json").read_text())
COPYING = json.loads((FIXTURES / "copying_fixture.json").read_text())
DEMO = json.loads((FIXTURES / "copying_demo_fixture.json").read_text())


def check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def rebuild_scene(record):
    base = make_grid(
        record["grid"],
        record["grid"],
        record["dim"],
        seed=record["seed"],
        style_strength=record["style_strength"],
    )
    scene = plant_scene(
        base, kind=record["kind"], noise_level=record["noise_level"], seed=record["scene_seed"]
    )
    text = make_text(record["text_tokens"], record["dim"], seed=record["text_seed"])
    return scene, text


def frozen_match(got, frozen, tol=1e-9):
    return max(abs(got.as_dict()[k] - frozen[k]) for k in frozen)


def evaluate(scene, text, params, cfg, band_partition=None):
    """``(evaluation, qkv, dense softmax, kept matrix == softmax as <f4)`` of one setup."""
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, cfg)
    evaluation, attention, tied = evaluate_with_reference(
        qkv, scene, band_partition=band_partition
    )
    return evaluation, qkv, attention, tied


def test_criterion_1_rope_identity_suite():
    cfg = RotaryConfig(dim=128)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_identity = worst_isometry = worst_additivity = 0.0
    for _ in range(1000):
        q, k = rng.standard_normal((2, 128))
        m, n = rng.integers(-32, 33, 2), rng.integers(-32, 33, 2)
        rotated, k_n, once = apply_rope_batch([q, k, q], [m, n, m + n], cfg)
        direct = float(rotated @ k_n)
        closed = relative_inner_product(q, k, n - m, cfg)
        worst_identity = max(worst_identity, abs(direct - closed))

        worst_isometry = max(
            worst_isometry,
            abs(np.linalg.norm(rotated) - np.linalg.norm(q)) / np.linalg.norm(q),
        )
        (twice,) = apply_rope_batch([rotated], [n], cfg)
        worst_additivity = max(worst_additivity, float(np.max(np.abs(twice - once))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_identity < 1e-10
        and worst_isometry < 1e-10
        and worst_additivity < 1e-10
        and elapsed < 1.0
    )
    check(
        "criterion 1 (RoPE identity suite)",
        ok,
        f"identity {worst_identity:.2e}, isometry {worst_isometry:.2e}, "
        f"additivity {worst_additivity:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_polar_decomposition():
    cfg = RotaryConfig(dim=128)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        q, k = rng.standard_normal((2, 128))
        delta = tuple(rng.integers(-16, 17, 2).tolist())
        terms = chunk_decomposition(q, k, delta, cfg)
        expected = relative_inner_product(q, k, delta, cfg)
        worst = max(worst, abs(reconstruct_inner_product(terms) - expected))
    check("criterion 2 (polar decomposition)", worst < 1e-9, f"max error {worst:.2e}")


def test_criterion_3_decay_curve_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "curve.csv"
    code = main(["decay-curve", "--out", str(out), "--quiet"])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    series = {"high": {}, "mid": {}, "low": {}}
    for row in rows:
        delta_s, band, value = row.split(",")
        series[band][int(delta_s)] = float(value)

    ranges = {lab: tuple(rng) for lab, rng in DECAY["bands"].items()}
    worst_oracle = worst_frozen = 0.0
    for band, (lo, hi) in ranges.items():
        for delta in range(DECAY["delta_max"] + 1):
            got = series[band][delta]
            worst_oracle = max(
                worst_oracle, abs(got - oracles.o_band_mean(delta, lo, hi, 128, 10000.0))
            )
            worst_frozen = max(worst_frozen, abs(got - DECAY["series"][band][delta]))
    ordering = all(
        series["high"][d] <= series["mid"][d] <= series["low"][d] for d in range(1, 33)
    )
    low_at_1 = series["low"][1]
    high_at_8 = series["high"][8]
    elapsed = time.perf_counter() - start
    ok = (
        worst_oracle < 1e-12
        and worst_frozen < 1e-12
        and ordering
        and low_at_1 >= 0.99
        and high_at_8 <= 0.5
        and abs(low_at_1 - DECAY["thresholds"]["low_at_delta_1"]) < 1e-12
        and abs(high_at_8 - DECAY["thresholds"]["high_at_delta_8"]) < 1e-12
        and elapsed < 1.0
    )
    check(
        "criterion 3 (decay-curve vs oracle)",
        ok,
        f"oracle err {worst_oracle:.2e}, ordering {ordering}, "
        f"low@1 {low_at_1:.4f}, high@8 {high_at_8:.4f}, {elapsed:.2f}s",
    )


def test_criterion_4_schedule_exactness():
    scales = modulation_scales(0.3, 1.5, 2.0, 5)
    endpoints_exact = scales[0] == 0.3 and scales[-1] == 1.5
    vector_err = float(np.max(np.abs(scales - np.array([0.3, 0.375, 0.6, 0.975, 1.5]))))

    cfg = RotaryConfig(dim=32)
    base = make_grid(4, 4, 32, seed=1)
    scene = plant_scene(base, kind="shuffle", noise_level=0.3, seed=2)
    text = make_text(3, 32, seed=3)
    fa = build_shared_qkv(
        scene.target, text, scene.reference,
        SharingParams(mode="frequency_aware", s_hf=0.8, s_lf=0.8, beta=2.0), cfg,
    )
    plain = build_shared_qkv(
        scene.target, text, scene.reference, SharingParams(mode="plain", s=0.8), cfg
    )
    collapse_err = float(np.max(np.abs(fa.k - plain.k)))
    ok = endpoints_exact and vector_err < 1e-12 and collapse_err < 1e-12
    check(
        "criterion 4 (schedule exactness)",
        ok,
        f"endpoints exact {endpoints_exact}, vector err {vector_err:.2e}, "
        f"plain-collapse err {collapse_err:.2e}",
    )


def test_criterion_5_ramp_exactness():
    ramp = TimestepRamp(s_hf_start=0.2, s_hf_end=0.6, s_lf_start=1.0, s_lf_end=1.4, total_steps=5)
    start_exact = ramp_at(ramp, 0) == (0.2, 1.0)
    end_exact = ramp_at(ramp, 4) == (0.6, 1.4)
    mid_hf, mid_lf = ramp_at(ramp, 2)
    mid_err = max(abs(mid_hf - 0.4), abs(mid_lf - 1.2))
    ok = start_exact and end_exact and mid_err < 1e-12
    check(
        "criterion 5 (ramp exactness)",
        ok,
        f"endpoints exact {start_exact and end_exact}, midpoint err {mid_err:.2e}",
    )


def test_criterion_6_copying_mitigation():
    start = time.perf_counter()
    cfg = RotaryConfig.interleaved(COPYING["dim"])
    scene, text = rebuild_scene(COPYING)
    fa_args = COPYING["frequency_aware"]

    plain_eval, _, _, plain_tied = evaluate(scene, text, SharingParams(mode="plain", s=1.0), cfg)
    fa_eval, _, _, fa_tied = evaluate(
        scene, text,
        SharingParams(mode="frequency_aware", **fa_args),
        cfg,
    )
    plain, fa = plain_eval.alignment, fa_eval.alignment

    err_plain = frozen_match(plain, COPYING["plain"])
    err_fa = frozen_match(fa, COPYING["freq_aware"])

    # independent brute-force oracle must agree with the frozen values too
    common = dict(dim=COPYING["dim"], rope_base=10000.0, axes=oracles.INTERLEAVED_AXES)
    _, oracle_plain = oracles.o_shared_attention(scene, text, "plain", s=1.0, **common)
    _, oracle_fa = oracles.o_shared_attention(scene, text, "frequency_aware", **fa_args, **common)
    err_oracle = max(
        max(abs(oracle_plain[k] - COPYING["plain"][k]) for k in oracle_plain),
        max(abs(oracle_fa[k] - COPYING["freq_aware"][k]) for k in oracle_fa),
    )

    ordering = (
        plain.argmax_positional_rate > fa.argmax_positional_rate
        and fa.argmax_semantic_rate > plain.argmax_semantic_rate
    )
    elapsed = time.perf_counter() - start
    tied = plain_tied and fa_tied
    ok = (
        err_plain < 1e-9 and err_fa < 1e-9 and err_oracle < 1e-9 and ordering and tied
        and elapsed < 10.0
    )
    check(
        "criterion 6 (copying mitigation)",
        ok,
        f"pos rate {plain.argmax_positional_rate:.4f}->{fa.argmax_positional_rate:.4f}, "
        f"sem rate {plain.argmax_semantic_rate:.4f}->{fa.argmax_semantic_rate:.4f}, "
        f"fixture err {max(err_plain, err_fa):.2e}, oracle err {err_oracle:.2e}, "
        f"matrix matches reference {tied}, {elapsed:.2f}s",
    )


def test_criterion_7_band_attribution():
    cfg = RotaryConfig.interleaved(DEMO["dim"])
    scene, text = rebuild_scene(DEMO)

    partition = make_even_partition(cfg, 3)
    plain_params = SharingParams(mode="plain", s=1.0)
    plain_eval, qkv, _, plain_tied = evaluate(scene, text, plain_params, cfg, partition)
    logits = qkv.q @ qkv.k.T / math.sqrt(cfg.dim)
    per_band = dense_band_logits(qkv.q, qkv.k, partition)
    recon_err = float(np.max(np.abs(per_band.sum(axis=0) - logits)))
    want = dense_attribution(qkv, partition)
    attribution_err = max(
        abs(plain_eval.attribution.mean_abs_logit[label] - want[label]) for label in want
    )

    zero_stop = DEMO["zero_band"][1]
    masked_eval, _, _, masked_tied = evaluate(
        scene, text,
        SharingParams(
            mode="plain", s=1.0,
            band_mask_override=BandMaskSpec(Band("high", 0, zero_stop), "zero"),
        ),
        cfg,
    )
    plain_m, masked_m = plain_eval.alignment, masked_eval.alignment
    err_frozen = max(
        frozen_match(plain_m, DEMO["plain"]),
        frozen_match(masked_m, DEMO["plain_high_band_zeroed"]),
    )
    direction = masked_m.positional_mass < plain_m.positional_mass
    tied = plain_tied and masked_tied
    ok = recon_err < 1e-8 and attribution_err < 1e-12 and direction and err_frozen < 1e-9 and tied
    check(
        "criterion 7 (band attribution)",
        ok,
        f"reconstruction err {recon_err:.2e}, attribution err {attribution_err:.2e}, "
        f"positional mass "
        f"{plain_m.positional_mass:.6f} -> {masked_m.positional_mass:.6f} (zeroed high band), "
        f"fixture err {err_frozen:.2e}, matrix matches reference {tied}",
    )


def test_criterion_8_shifted_mode_sanity():
    cfg = RotaryConfig.interleaved(DEMO["dim"])
    scene, text = rebuild_scene(DEMO)
    width = DEMO["grid"]
    evaluation, qkv, attention, tied = evaluate(
        scene, text, SharingParams(mode="shifted", offset=(width, 0), s=1.0), cfg
    )
    metrics = evaluation.alignment
    target_positions = {tuple(p) for p in scene.target.positions}
    ref_positions = {tuple(p) for p in dict(qkv.parts)["reference-image"].tolist()}
    disjoint = not (target_positions & ref_positions)
    row_err = float(np.max(np.abs(attention.sum(axis=1) - 1.0)))
    ok = disjoint and metrics.positional_mass == 0.0 and row_err < 1e-9 and tied
    check(
        "criterion 8 (shifted-mode sanity)",
        ok,
        f"disjoint {disjoint}, positional mass {metrics.positional_mass}, "
        f"row-sum err {row_err:.2e}, matrix matches reference {tied}",
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "rotary": {"dim": DEMO["dim"], "rope_base": 10000.0, "partition": "interleaved"},
        "grid": {"width": DEMO["grid"], "height": DEMO["grid"]},
        "scene": {
            "kind": DEMO["kind"],
            "noise_level": DEMO["noise_level"],
            "seed": DEMO["scene_seed"],
            "style_strength": DEMO["style_strength"],
        },
        "text_tokens": DEMO["text_tokens"],
        "sharing": {"mode": "plain", "s": 1.0},
        "attribution_bands": 3,
        "seed": DEMO["seed"],
        "output": {"report": None, "attention": None},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["shared-attn", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    check("criterion 9 (byte determinism)", ok, f"{len(outputs[0])} bytes each")
