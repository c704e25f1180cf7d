"""Independent reference implementations used to pin expected test values.

Everything here recomputes results through a different route than the
package: rotations via complex multiplication (cmath), sums via math.fsum,
statistics via the statistics module, softmax in extended precision, and all
bookkeeping with plain Python loops. Run as a script to regenerate the
frozen fixtures:

    python tests/oracles.py --write
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import statistics
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# rotary pieces


def o_frequencies(dim: int, rope_base: float) -> list[float]:
    return [math.pow(1.0 / rope_base, 2.0 * d / dim) for d in range(dim // 2)]


def o_default_axes(dim: int) -> tuple[list[int], list[int], list[int]]:
    n = dim // 2
    return list(range(n // 2)), list(range(n // 2, n)), []


def o_chunk_angle(d: int, x: int, y: int, theta, x_chunks, y_chunks) -> float:
    if d in x_chunks:
        return x * theta[d]
    if d in y_chunks:
        return y * theta[d]
    return 0.0


def o_apply_rope(vec, x: int, y: int, dim: int, rope_base: float, axes=None) -> list[float]:
    """Rotate each chunk as a complex number multiplied by exp(i*angle)."""
    theta = o_frequencies(dim, rope_base)
    x_chunks, y_chunks, _ = axes if axes is not None else o_default_axes(dim)
    xset, yset = set(x_chunks), set(y_chunks)
    out = []
    for d in range(dim // 2):
        angle = o_chunk_angle(d, x, y, theta, xset, yset)
        z = complex(vec[2 * d], vec[2 * d + 1]) * cmath.exp(1j * angle)
        out.extend([z.real, z.imag])
    return out


def o_dot(a, b) -> float:
    return math.fsum(ai * bi for ai, bi in zip(a, b))


def o_band_mean(delta: int, start: int, stop: int, dim: int, rope_base: float) -> float:
    theta = o_frequencies(dim, rope_base)
    return math.fsum(math.cos(delta * theta[d]) for d in range(start, stop)) / (stop - start)


def o_even_ranges(n_chunks: int, n_bands: int) -> list[tuple[int, int]]:
    base, rem = divmod(n_chunks, n_bands)
    ranges = []
    lo = 0
    for i in range(n_bands):
        size = base + (1 if i < rem else 0)
        ranges.append((lo, lo + size))
        lo += size
    return ranges


def o_modulation_scales(s_hf: float, s_lf: float, beta: float, n: int) -> list[float]:
    out = [s_hf + (s_lf - s_hf) * math.pow(d / (n - 1), beta) for d in range(n)]
    out[0], out[-1] = s_hf, s_lf
    return out


def o_adain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    for c in range(x.shape[1]):
        xs = [float(v) for v in x[:, c]]
        ys = [float(v) for v in y[:, c]]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sx = math.sqrt(statistics.fmean([(v - mx) ** 2 for v in xs]))
        sy = math.sqrt(statistics.fmean([(v - my) ** 2 for v in ys]))
        if sx < 1e-8:
            out[:, c] = my
        else:
            out[:, c] = [(v - mx) / sx * sy + my for v in xs]
    return out


# ---------------------------------------------------------------------------
# brute-force shared attention


def o_shared_attention(
    scene,
    text,
    mode: str,
    dim: int,
    rope_base: float,
    s: float = 1.0,
    s_hf: float | None = None,
    s_lf: float | None = None,
    beta: float = 2.0,
    adain_enabled: bool = True,
    offset: tuple[int, int] = (0, 0),
    zero_band: tuple[int, int] | None = None,
    axes=None,
):
    """Materialize rotated/modulated vectors and run softmax in extended precision.

    Returns (attention as float64 ndarray, metrics dict). Queries are the
    target image then text rows; keys are those rows followed by reference
    keys (absent for mode "none").
    """
    n_chunks = dim // 2
    x_chunks, y_chunks, temporal = axes if axes is not None else o_default_axes(dim)
    tgt = np.asarray(scene.target.features, dtype=np.float64)
    ref = np.asarray(scene.reference.features, dtype=np.float64)
    txt = np.asarray(text.features, dtype=np.float64)
    tgt_pos = [tuple(map(int, p)) for p in scene.target.positions]
    ref_pos = [tuple(map(int, p)) for p in scene.reference.positions]
    if mode == "shifted":
        ref_pos = [(px + offset[0], py + offset[1]) for px, py in ref_pos]

    img = o_adain(tgt, ref) if (adain_enabled and mode != "none") else tgt

    def rot(row, pos):
        return o_apply_rope(
            list(map(float, row)), pos[0], pos[1], dim, rope_base,
            axes=(x_chunks, y_chunks, temporal),
        )

    q_rows = [rot(img[i], tgt_pos[i]) for i in range(len(tgt_pos))]
    q_rows += [rot(txt[j], (0, 0)) for j in range(txt.shape[0])]
    k_rows = [list(r) for r in q_rows]

    if mode != "none":
        if mode == "frequency_aware":
            scales = [0.0] * n_chunks
            sx = o_modulation_scales(s_hf, s_lf, beta, len(x_chunks))
            sy = o_modulation_scales(s_hf, s_lf, beta, len(y_chunks))
            for i, d in enumerate(x_chunks):
                scales[d] = sx[i]
            for i, d in enumerate(y_chunks):
                scales[d] = sy[i]
            for d in temporal:
                scales[d] = s_lf
        else:
            scales = [s] * n_chunks
        for i in range(ref.shape[0]):
            row = rot(ref[i], ref_pos[i])
            for d in range(n_chunks):
                factor = 0.0 if (zero_band and zero_band[0] <= d < zero_band[1]) else scales[d]
                row[2 * d] *= factor
                row[2 * d + 1] *= factor
            k_rows.append(row)

    q = np.asarray(q_rows, dtype=np.longdouble)
    k = np.asarray(k_rows, dtype=np.longdouble)
    logits = (q @ k.T) / np.longdouble(math.sqrt(dim))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=1, keepdims=True)

    n_img = len(tgt_pos)
    n_txt = txt.shape[0]
    n_ref = ref.shape[0] if mode != "none" else 0
    ref_cols = list(range(n_img + n_txt, n_img + n_txt + n_ref))
    pos_of_ref = {ref_pos[i]: n_img + n_txt + i for i in range(n_ref)}
    corr = [int(c) for c in scene.correspondence]

    pos_mass = sem_mass = ref_mass = 0.0
    pos_hits = sem_hits = 0
    for i in range(n_img):
        row = attn[i]
        if n_ref:
            ref_mass += float(sum(row[c] for c in ref_cols))
            aligned = pos_of_ref.get(tgt_pos[i])
            sem_col = n_img + n_txt + corr[i]
            if aligned is not None:
                pos_mass += float(row[aligned])
            sem_mass += float(row[sem_col])
            winner = max(ref_cols, key=lambda c: row[c])
            if aligned is not None and winner == aligned:
                pos_hits += 1
            if winner == sem_col:
                sem_hits += 1
    metrics = {
        "positional_mass": pos_mass / n_img,
        "semantic_mass": sem_mass / n_img,
        "argmax_positional_rate": pos_hits / n_img,
        "argmax_semantic_rate": sem_hits / n_img,
        "reference_mass": ref_mass / n_img,
    }
    return np.asarray(attn, dtype=np.float64), metrics


# ---------------------------------------------------------------------------
# fixture generation

COPY_GRID = 8
COPY_DIM = 128
COPY_TEXT = 4
FREQ_AWARE = {"s_hf": 0.3, "s_lf": 1.2, "beta": 2.0}
INTERLEAVED_AXES = (list(range(0, 64, 2)), list(range(1, 64, 2)), [])


def interleaved_config():
    from ropefreq import RotaryConfig

    return RotaryConfig.interleaved(COPY_DIM)


def _scene(kind, noise, style, seed, scene_seed, text_seed):
    from ropefreq import make_grid, make_text, plant_scene

    base = make_grid(COPY_GRID, COPY_GRID, COPY_DIM, seed=seed, style_strength=style)
    scene = plant_scene(base, kind=kind, noise_level=noise, seed=scene_seed)
    text = make_text(COPY_TEXT, COPY_DIM, seed=text_seed)
    return scene, text


def build_decay_fixture() -> dict:
    dim, base, n_bands, dmax = 128, 10000.0, 3, 64
    ranges = o_even_ranges(dim // 2, n_bands)
    labels = ["high", "mid", "low"]
    table = {
        lab: [o_band_mean(d, lo, hi, dim, base) for d in range(dmax + 1)]
        for lab, (lo, hi) in zip(labels, ranges)
    }
    return {
        "dim": dim,
        "rope_base": base,
        "bands": {lab: list(rng) for lab, rng in zip(labels, ranges)},
        "delta_max": dmax,
        "series": table,
        "thresholds": {
            "low_at_delta_1": table["low"][1],
            "high_at_delta_8": table["high"][8],
        },
    }


def _scene_record(kind, seed, noise, style):
    return {
        "grid": COPY_GRID,
        "dim": COPY_DIM,
        "partition": "interleaved",
        "seed": seed,
        "scene_seed": seed + 1,
        "text_seed": seed + 2,
        "text_tokens": COPY_TEXT,
        "kind": kind,
        "noise_level": noise,
        "style_strength": style,
        "frequency_aware": FREQ_AWARE,
    }


def build_copying_fixture(seed: int, noise: float, style: float) -> dict:
    scene, text = _scene("shuffle", noise, style, seed, seed + 1, seed + 2)
    common = dict(dim=COPY_DIM, rope_base=10000.0, axes=INTERLEAVED_AXES)
    _, plain = o_shared_attention(scene, text, "plain", s=1.0, **common)
    _, fa = o_shared_attention(scene, text, "frequency_aware", **FREQ_AWARE, **common)
    out = _scene_record("shuffle", seed, noise, style)
    out["plain"] = plain
    out["freq_aware"] = fa
    out["fixed_points"] = int(sum(1 for i, c in enumerate(scene.correspondence) if i == c))
    return out


def build_demo_fixture(seed: int, noise: float, style: float, zero_stop: int) -> dict:
    scene, text = _scene("identity", noise, style, seed, seed + 1, seed + 2)
    common = dict(dim=COPY_DIM, rope_base=10000.0, axes=INTERLEAVED_AXES)
    _, plain = o_shared_attention(scene, text, "plain", s=1.0, **common)
    _, fa = o_shared_attention(scene, text, "frequency_aware", **FREQ_AWARE, **common)
    _, masked = o_shared_attention(
        scene, text, "plain", s=1.0, zero_band=(0, zero_stop), **common
    )
    out = _scene_record("identity", seed, noise, style)
    out["zero_band"] = [0, zero_stop]
    out["plain"] = plain
    out["freq_aware"] = fa
    out["plain_high_band_zeroed"] = masked
    return out


def library_metrics(kind, seed, noise, style, mode_kwargs):
    """Fast path used for scanning; mirrors the CLI experiment assembly."""
    from ropefreq import SharingParams, build_shared_qkv, evaluate_shared

    config = interleaved_config()
    scene, text = _scene(kind, noise, style, seed, seed + 1, seed + 2)
    if mode_kwargs["mode"] == "frequency_aware":
        params = SharingParams(mode="frequency_aware", **FREQ_AWARE)
    else:
        params = SharingParams(**mode_kwargs)
    qkv = build_shared_qkv(scene.target, text, scene.reference, params, config)
    return evaluate_shared(qkv, scene).alignment, scene


def search_copying_seed(seeds, noises, styles, verbose=True):
    """Scan scene parameters for cleanly ordered copying metrics.

    Uses the package itself for speed; the chosen candidate is re-verified
    with the slow oracle before freezing.
    """
    best = None
    for style in styles:
        for noise in noises:
            for seed in seeds:
                p, scene = library_metrics("shuffle", seed, noise, style, {"mode": "plain", "s": 1.0})
                f, _ = library_metrics("shuffle", seed, noise, style, {"mode": "frequency_aware"})
                n = COPY_GRID * COPY_GRID
                pos_margin = (p.argmax_positional_rate - f.argmax_positional_rate) * n
                sem_margin = (f.argmax_semantic_rate - p.argmax_semantic_rate) * n
                fixed = int(sum(1 for i, c in enumerate(scene.correspondence) if i == c))
                if pos_margin >= 4 and sem_margin >= 8 and fixed == 0 and p.argmax_positional_rate >= 6 / 64:
                    score = min(pos_margin, sem_margin / 2)
                    if best is None or score > best[0]:
                        best = (score, seed, noise, style, pos_margin, sem_margin, p, f)
                        if verbose:
                            print(
                                f"candidate seed={seed} noise={noise} style={style}: "
                                f"pos {p.argmax_positional_rate:.4f}->{f.argmax_positional_rate:.4f} "
                                f"sem {p.argmax_semantic_rate:.4f}->{f.argmax_semantic_rate:.4f}"
                            )
    return best


def search_demo(seeds, noises, styles, zero_stop=22, verbose=True):
    """Scan identity-scene parameters for the copying demo fixture."""
    from ropefreq import Band, SharingParams, BandMaskSpec, build_shared_qkv, evaluate_shared

    results = []
    for style in styles:
        for noise in noises:
            for seed in seeds:
                p, scene = library_metrics("identity", seed, noise, style, {"mode": "plain", "s": 1.0})
                f, _ = library_metrics("identity", seed, noise, style, {"mode": "frequency_aware"})
                from ropefreq import make_text

                config = interleaved_config()
                text = make_text(COPY_TEXT, COPY_DIM, seed=seed + 2)
                masked_params = SharingParams(
                    mode="plain",
                    s=1.0,
                    band_mask_override=BandMaskSpec(Band("high", 0, zero_stop), "zero"),
                )
                qkv = build_shared_qkv(scene.target, text, scene.reference, masked_params, config)
                m = evaluate_shared(qkv, scene).alignment
                ok = (
                    p.argmax_positional_rate >= 0.9
                    and f.argmax_positional_rate <= p.argmax_positional_rate - 2 / 64
                    and m.positional_mass < p.positional_mass
                )
                results.append((ok, seed, noise, style, p, f, m))
                if ok and verbose:
                    print(
                        f"demo candidate seed={seed} noise={noise} style={style}: "
                        f"pos {p.argmax_positional_rate:.4f}->{f.argmax_positional_rate:.4f} "
                        f"mass {p.positional_mass:.5f}->masked {m.positional_mass:.5f}"
                    )
    return [r for r in results if r[0]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="write fixture files")
    parser.add_argument("--search", action="store_true", help="search copying scene params")
    parser.add_argument("--search-demo", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--noise", type=float, default=None)
    parser.add_argument("--style", type=float, default=None)
    parser.add_argument("--demo-seed", type=int, default=None)
    parser.add_argument("--demo-noise", type=float, default=None)
    parser.add_argument("--demo-style", type=float, default=None)
    args = parser.parse_args()

    FIXTURES.mkdir(exist_ok=True)

    if args.search:
        best = search_copying_seed(range(60), [0.5, 1.0], [0.9, 0.93, 0.95])
        if best is None:
            print("no candidate found")
            return
        _, seed, noise, style, pos_m, sem_m, p, f = best
        print(f"\nbest: seed={seed} noise={noise} style={style} pos_margin={pos_m} sem_margin={sem_m}")
        print("plain:", p.as_dict())
        print("freq :", f.as_dict())
        return

    if args.search_demo:
        good = search_demo(range(20), [0.5, 1.0, 1.5], [0.9, 0.93])
        print(f"{len(good)} demo candidates")
        return

    if args.write:
        decay = build_decay_fixture()
        (FIXTURES / "decay_fixture.json").write_text(json.dumps(decay, indent=2) + "\n")
        print("wrote decay_fixture.json")
        needed = (args.seed, args.noise, args.style, args.demo_seed, args.demo_noise, args.demo_style)
        if any(v is None for v in needed):
            raise SystemExit("--write needs --seed/--noise/--style and --demo-seed/--demo-noise/--demo-style")
        copying = build_copying_fixture(args.seed, args.noise, args.style)
        (FIXTURES / "copying_fixture.json").write_text(json.dumps(copying, indent=2) + "\n")
        print("wrote copying_fixture.json")
        print("  plain:", {k: round(v, 4) for k, v in copying["plain"].items()})
        print("  freq :", {k: round(v, 4) for k, v in copying["freq_aware"].items()})
        demo = build_demo_fixture(args.demo_seed, args.demo_noise, args.demo_style, zero_stop=22)
        (FIXTURES / "copying_demo_fixture.json").write_text(json.dumps(demo, indent=2) + "\n")
        print("wrote copying_demo_fixture.json")
        print("  plain:", {k: round(v, 4) for k, v in demo["plain"].items()})
        print("  freq :", {k: round(v, 4) for k, v in demo["freq_aware"].items()})
        print("  masked:", {k: round(v, 4) for k, v in demo["plain_high_band_zeroed"].items()})


if __name__ == "__main__":
    main()
