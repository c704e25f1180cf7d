"""Independent recomputation of the shared-attention workloads.

Nothing here imports ``ropefreq``. The scene generators replay the same
seeded NumPy draws the program documents (unit-norm Gaussian rows, style
mixing, permutation, then noise), but every later step takes its own route:
rotation by complex multiplication, the modulation schedule from its
formula, softmax and the diagnostics on row blocks, and alignment by array
indexing instead of a per-query loop. Only the options the benchmark's own
configs use are supported; anything else raises ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_ROWS = 512


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def scene(cfg: dict) -> dict:
    """Target, reference and text features plus the planted correspondence."""
    w, h = cfg["grid"]["width"], cfg["grid"]["height"]
    dim = cfg["rotary"]["dim"]
    sc = cfg["scene"]
    seed = cfg["seed"]
    n = w * h

    rng = np.random.default_rng(seed)
    style = sc["style_strength"]
    if style > 0:
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
    target = _unit_rows(rng.standard_normal((n, dim)))
    if style > 0:
        target = _unit_rows(math.sqrt(1.0 - style**2) * target + style * direction)

    rng = np.random.default_rng(sc["seed"] if sc["seed"] is not None else seed + 1)
    if sc["kind"] == "identity":
        corr = np.arange(n)
    elif sc["kind"] == "shuffle":
        corr = rng.permutation(n)
    else:
        raise ValueError(f"scene kind {sc['kind']!r} is not modelled")
    noise = sc["noise_level"]
    reference = np.empty_like(target)
    if noise == 0:
        reference[corr] = target
    else:
        noisy = target + noise / math.sqrt(dim) * rng.standard_normal(target.shape)
        reference[corr] = _unit_rows(noisy)

    t = cfg["text_tokens"]
    text = np.random.default_rng(seed + 2).standard_normal((t, dim))
    if t:
        text = _unit_rows(text)

    xy = np.stack([np.arange(n) % w, np.arange(n) // w], axis=1)
    return {"target": target, "reference": reference, "text": text, "corr": corr, "xy": xy}


def _axes(dim: int, partition: str) -> tuple[list[int], list[int]]:
    if partition != "interleaved":
        raise ValueError(f"partition {partition!r} is not modelled")
    n = dim // 2
    return list(range(0, n, 2)), list(range(1, n, 2))


def _rotate(feats: np.ndarray, xy: np.ndarray, cfg: dict) -> np.ndarray:
    dim, base = cfg["rotary"]["dim"], cfg["rotary"]["rope_base"]
    xs, ys = _axes(dim, cfg["rotary"]["partition"])
    theta = np.array([math.pow(1.0 / base, 2.0 * d / dim) for d in range(dim // 2)])
    angle = np.empty((feats.shape[0], dim // 2))
    angle[:, xs] = xy[:, :1] * theta[xs]
    angle[:, ys] = xy[:, 1:] * theta[ys]
    z = (feats[:, 0::2] + 1j * feats[:, 1::2]) * np.exp(1j * angle)
    out = np.empty_like(feats)
    out[:, 0::2], out[:, 1::2] = z.real, z.imag
    return out


def _adain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    sx = x.std(axis=0)
    if np.any(sx < 1e-8):
        raise ValueError("degenerate AdaIN channel is not modelled")
    return (x - x.mean(axis=0)) / sx * y.std(axis=0) + y.mean(axis=0)


def _axis_scales(s_hf: float, s_lf: float, beta: float, n: int) -> list[float]:
    vals = [s_hf + (s_lf - s_hf) * (i / (n - 1)) ** beta for i in range(n)]
    vals[0], vals[-1] = s_hf, s_lf
    return vals


def _chunk_scales(sharing: dict, step, cfg: dict) -> np.ndarray:
    dim = cfg["rotary"]["dim"]
    mode = sharing["mode"]
    if mode in ("plain", "shifted"):
        return np.full(dim // 2, float(sharing.get("s", 1.0)))
    s_hf, s_lf = sharing["s_hf"], sharing["s_lf"]
    ramp = sharing.get("ramp")
    if ramp is not None and step is not None:
        last = ramp["total_steps"] - 1
        if step == 0 or last == 0:
            s_hf, s_lf = ramp["s_hf_start"], ramp["s_lf_start"]
        elif step == last:
            s_hf, s_lf = ramp["s_hf_end"], ramp["s_lf_end"]
        else:
            f = step / last
            s_hf = ramp["s_hf_start"] + (ramp["s_hf_end"] - ramp["s_hf_start"]) * f
            s_lf = ramp["s_lf_start"] + (ramp["s_lf_end"] - ramp["s_lf_start"]) * f
    out = np.empty(dim // 2)
    for chunks in _axes(dim, cfg["rotary"]["partition"]):
        out[chunks] = _axis_scales(s_hf, s_lf, sharing.get("beta", 2.0), len(chunks))
    return out


def _band_ranges(n_chunks: int, n_bands: int) -> list[tuple[str, int, int]]:
    labels = {1: ["full"], 2: ["high", "low"], 3: ["high", "mid", "low"]}.get(
        n_bands, [f"band{i}" for i in range(n_bands)]
    )
    base, rem = divmod(n_chunks, n_bands)
    out, lo = [], 0
    for i, label in enumerate(labels):
        size = base + (i < rem)
        out.append((label, lo, lo + size))
        lo += size
    return out


def entries(cfg: dict) -> list[tuple[str, dict, object]]:
    """(label, merged sharing, step) for each sweep entry, as the config defines."""
    if cfg.get("sweep") is None:
        return [("entry0", dict(cfg["sharing"]), cfg.get("step"))]
    out = []
    for i, override in enumerate(cfg["sweep"]):
        merged, step = dict(cfg["sharing"]), cfg.get("step")
        for key, value in override.items():
            if key == "step":
                step = value
            else:
                merged[key] = value
        out.append((f"entry{i}", merged, step))
    return out


def reference_xy(sharing: dict, xy: np.ndarray) -> np.ndarray:
    """Grid positions the reference keys are rotated at."""
    return xy + np.asarray(sharing["offset"]) if sharing["mode"] == "shifted" else xy


def aligned_index(cfg: dict, ref_xy: np.ndarray) -> np.ndarray:
    """For each target token, the reference index at the same position, or -1."""
    w, h = cfg["grid"]["width"], cfg["grid"]["height"]
    inside = (ref_xy[:, 0] >= 0) & (ref_xy[:, 0] < w) & (ref_xy[:, 1] >= 0) & (ref_xy[:, 1] < h)
    out = np.full(w * h, -1)
    out[ref_xy[inside, 1] * w + ref_xy[inside, 0]] = np.flatnonzero(inside)
    return out


def evaluate(cfg: dict, sc: dict, sharing: dict, step, want_matrix: bool) -> dict:
    """Alignment, band attribution and optionally the attention matrix of one entry."""
    dim, heads = cfg["rotary"]["dim"], cfg["heads"]
    mode = sharing["mode"]
    target, ref, text, xy = sc["target"], sc["reference"], sc["text"], sc["xy"]
    n, t = target.shape[0], text.shape[0]
    zeros = np.zeros((t, 2), dtype=np.int64)

    img = _adain(target, ref) if mode != "none" and sharing.get("adain", True) else target
    q = np.vstack([_rotate(img, xy, cfg), _rotate(text, zeros, cfg)])
    k_parts = [q]
    ref_xy = reference_xy(sharing, xy)
    if mode != "none":
        k_ref = _rotate(ref, ref_xy, cfg) * np.repeat(_chunk_scales(sharing, step, cfg), 2)
        mask = sharing.get("band_mask")
        if mask is not None:
            factor = 0.0 if mask["mode"] == "zero" else float(mask["scale"])
            k_ref[:, 2 * mask["start"] : 2 * mask["stop"]] *= factor
        k_parts.append(k_ref)
    k = np.vstack(k_parts)
    nq, nk = q.shape[0], k.shape[0]

    hd = dim // heads
    scale = 1.0 / math.sqrt(hd)
    bands = None
    if cfg.get("attribution_bands") and mode != "none":
        bands = _band_ranges(dim // 2, cfg["attribution_bands"])
    band_abs = np.zeros(len(bands)) if bands else None
    matrix = np.empty((nq, nk)) if want_matrix else None
    ref_sum = np.zeros(n)
    pos_w = np.zeros(n)
    sem_w = np.zeros(n)
    winner = np.zeros(n, dtype=np.int64)

    aligned = aligned_index(cfg, ref_xy)

    for lo in range(0, nq, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, nq)
        a = np.zeros((hi - lo, nk))
        for hh in range(heads):
            cols = slice(hh * hd, (hh + 1) * hd)
            logits = q[lo:hi, cols] @ k[:, cols].T * scale
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            a += e / e.sum(axis=1, keepdims=True)
        a /= heads
        if want_matrix:
            matrix[lo:hi] = a
        img_rows = slice(lo, min(hi, n))
        m = img_rows.stop - img_rows.start
        if mode == "none" or m <= 0:
            continue
        ra = a[:m, nq:]
        ref_sum[img_rows] = ra.sum(axis=1)
        idx = np.arange(img_rows.start, img_rows.stop)
        al = aligned[idx]
        pos_w[img_rows] = np.where(al >= 0, ra[np.arange(m), np.maximum(al, 0)], 0.0)
        sem_w[img_rows] = ra[np.arange(m), sc["corr"][idx]]
        winner[img_rows] = ra.argmax(axis=1)
        if bands:
            for b, (_, start, stop) in enumerate(bands):
                cols = slice(2 * start, 2 * stop)
                band_abs[b] += np.abs(q[lo : lo + m, cols] @ k[nq:, cols].T * scale).sum()

    result: dict = {"n_queries": nq, "n_keys": nk, "matrix": matrix}
    if mode == "none":
        result["alignment"] = dict.fromkeys(
            ("argmax_positional_rate", "argmax_semantic_rate", "positional_mass",
             "reference_mass", "semantic_mass"), 0.0)
        result["band_attribution"] = None
        return result
    result["alignment"] = {
        "argmax_positional_rate": float(np.mean(winner == aligned)),
        "argmax_semantic_rate": float(np.mean(winner == sc["corr"])),
        "positional_mass": math.fsum(pos_w) / n,
        "reference_mass": math.fsum(ref_sum) / n,
        "semantic_mass": math.fsum(sem_w) / n,
    }
    result["band_attribution"] = (
        {label: float(band_abs[b] / (n * n)) for b, (label, _, _) in enumerate(bands)}
        if bands
        else None
    )
    return result


def layouts(cfg: dict, sharing: dict) -> tuple[list, list]:
    """Expected (query_layout, key_layout) JSON lists of one entry."""
    w, h = cfg["grid"]["width"], cfg["grid"]["height"]
    n = w * h
    query = [
        {"source": "target-image", "index": i, "position": [i % w, i // w]} for i in range(n)
    ] + [
        {"source": "target-text", "index": j, "position": [0, 0]}
        for j in range(cfg["text_tokens"])
    ]
    key = list(query)
    if sharing["mode"] != "none":
        dx, dy = sharing.get("offset", [0, 0]) if sharing["mode"] == "shifted" else (0, 0)
        key += [
            {"source": "reference-image", "index": i, "position": [i % w + dx, i // w + dy]}
            for i in range(n)
        ]
    return query, key
