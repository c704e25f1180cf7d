"""Spans around calls into ``ropefreq``'s modules, installed from outside.

``Tracer.install`` rebinds each hooked function, in every loaded
``ropefreq`` module that names it, to a wrapper that records a span (name,
start, end, parent span, and a trace id shared per invocation and sweep
entry) plus counts derived from the call's arguments and result. Nothing in
``src/`` changes: module-level names are looked up at call time, so the
program's own calls go through the wrappers. Spans stay in memory until
``dump`` writes them.

``layer_metrics`` turns one invocation's spans into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

MIB = 1024 * 1024
LAYERS = ("cli", "synthetic", "rope", "attention", "diagnostics", "reportio", "bands")

# Every per-layer metric of a traced run, with its unit. ``setup.import_s``
# and ``trace.overhead_s`` come from the run, the rest from ``layer_metrics``.
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "synthetic.scene_s": "s",
    "rope.apply_s": "s",
    "rope.rows": "count",
    "attention.qkv_s": "s",
    "attention.shared_attend_s": "s",
    "attention.core_s": "s",
    "attention.flops": "count",
    "attention.gflops_per_s": "GFLOP/s",
    "attention.dense_mib": "MiB",
    "attention.rss_growth_mib": "MiB",
    "diagnostics.alignment_s": "s",
    "diagnostics.attribution_s": "s",
    "reportio.write_s": "s",
    "reportio.bytes_written": "bytes",
    "reportio.write_mib_per_s": "MiB/s",
    "bands.decay_s": "s",
    "bands.csv_s": "s",
    "bands.cos_evals": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


def _attention_counts(args, kwargs, result):
    nq, nk = result.attention.shape
    dim = result.output.shape[1]
    # Multiply-adds of the logits and the weighted sum of values, plus the
    # per-band logits when they are requested; counted as 2 flops each.
    flops = 4 * nq * nk * dim
    dense = result.attention.nbytes + result.output.nbytes
    if result.per_band_logits is not None:
        flops += 2 * nq * nk * dim
        dense += result.per_band_logits.nbytes
    return {"flops": flops, "dense_bytes": dense}


def _written(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size + os.stat(result).st_size}


def _cos_evals(args, kwargs, result):
    partition = args[1]
    chunks = sum(b.size for b in partition.bands)
    if len(result.series) > len(partition.bands):  # the "full" series
        chunks *= 2
    return {"cos_evals": len(result.delta_values) * chunks}


# (module, attribute path, span name, counts from (args, kwargs, result))
HOOKS = (
    ("ropefreq.cli", "build_parser", "cli.parse", None),
    ("ropefreq.cli", "ExperimentConfig.from_json_dict", "cli.parse", None),
    ("ropefreq.cli", "ExperimentConfig.iter_entries", "cli.parse", None),
    ("ropefreq.cli", "_sharing_params", "cli.parse", None),
    ("ropefreq.cli", "run_experiment", "cli.run_experiment", None),
    ("ropefreq.cli", "_dump_json", "cli.report", None),
    ("ropefreq.synthetic", "make_grid", "synthetic.scene", None),
    ("ropefreq.synthetic", "make_text", "synthetic.scene", None),
    ("ropefreq.synthetic", "plant_scene", "synthetic.scene", None),
    ("ropefreq.rope", "apply_rope_batch", "rope.apply", _rows),
    ("ropefreq.attention", "adain", "attention.adain", None),
    ("ropefreq.attention", "build_shared_qkv", "attention.qkv", None),
    ("ropefreq.attention", "shared_attend", "attention.shared_attend", _attention_counts),
    ("ropefreq.diagnostics", "compute_alignment", "diagnostics.alignment", None),
    ("ropefreq.diagnostics", "band_attribution", "diagnostics.attribution", None),
    ("ropefreq.reportio", "layout_to_json", "reportio.layout", None),
    ("ropefreq.reportio", "write_attention_matrix", "reportio.write", _written),
    ("ropefreq.bands", "make_even_partition", "bands.partition", None),
    ("ropefreq.bands", "band_mask", "bands.mask", None),
    ("ropefreq.bands", "decay_curve", "bands.decay", _cos_evals),
    ("ropefreq.bands", "decay_curve_to_csv", "bands.csv", None),
)

# What the hooks do beyond the program's own calls. They call no library
# function the program would not call itself.
EXTRA_CALLS = (
    "resource.getrusage(RUSAGE_SELF) before and after each attention.shared_attend",
    "os.stat of the matrix and sidecar after each reportio.write",
)


class Tracer:
    """The spans of one invocation, and the hooks that record them."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.entry = "setup"
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str, counts=None, args=(), kwargs=None):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self.stack[-1] if self.stack else None,
               "trace_id": f"{self.invocation}/{self.entry}"}
        self.spans.append(rec)
        self.stack.append(sid)
        track_rss = name == "attention.shared_attend"
        if track_rss:
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec["start"] = time.monotonic()
        box = {}
        try:
            yield box
        finally:
            rec["end"] = time.monotonic()
            self.stack.pop()
            if track_rss:
                rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                rec.setdefault("counts", {})["rss_growth_kib"] = rss1 - rss0
            if counts is not None and "result" in box:
                rec.setdefault("counts", {}).update(counts(args, kwargs or {}, box["result"]))

    def _wrap(self, fn, name, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, counts, args, kwargs) as box:
                box["result"] = fn(*args, **kwargs)
            return box["result"]

        return wrapper

    def _wrap_entries(self, fn, name):
        """Time each step of the entry generator and tag later spans by entry."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                tracer.entry = item[0]
                yield item
            tracer.entry = "report"

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "ropefreq" or n.startswith("ropefreq.")]
        for modname, attr, name, counts in HOOKS:
            try:
                owner = importlib.import_module(modname)
                *outer, last = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[last]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, last, classmethod(self._wrap(raw.__func__, name, counts)))
            elif last == "iter_entries":
                setattr(owner, last, self._wrap_entries(raw, name))
            elif outer:
                setattr(owner, last, self._wrap(raw, name, counts))
            else:
                wrapped = self._wrap(raw, name, counts)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"invocation": self.invocation, "missing_hooks": self.missing,
                       "spans": self.spans}, f)


def _total(spans, by_id, name) -> float:
    """Time inside spans called ``name``, counting nested same-name spans once."""
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced invocation."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + (s["end"] - s["start"] - child_time[s["id"]])
        for k, v in s.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v

    def t(name):
        return _total(spans, by_id, name)

    attend_s, qkv_s, write_s = t("attention.shared_attend"), t("attention.qkv"), t("reportio.write")
    written = counts.get("bytes", 0)
    out = {
        "cli.parse_s": t("cli.parse"),
        "synthetic.scene_s": t("synthetic.scene"),
        "rope.apply_s": t("rope.apply"),
        "rope.rows": counts.get("rows", 0),
        "attention.qkv_s": qkv_s,
        "attention.shared_attend_s": attend_s,
        "attention.core_s": attend_s - qkv_s,
        "attention.flops": counts.get("flops", 0),
        "attention.gflops_per_s": counts.get("flops", 0) / attend_s / 1e9 if attend_s else 0.0,
        "attention.dense_mib": counts.get("dense_bytes", 0) / MIB,
        "attention.rss_growth_mib": counts.get("rss_growth_kib", 0) / 1024,
        "diagnostics.alignment_s": t("diagnostics.alignment"),
        "diagnostics.attribution_s": t("diagnostics.attribution"),
        "reportio.write_s": write_s,
        "reportio.bytes_written": written,
        "reportio.write_mib_per_s": written / MIB / write_s if write_s else 0.0,
        "bands.decay_s": t("bands.decay"),
        "bands.csv_s": t("bands.csv"),
        "bands.cos_evals": counts.get("cos_evals", 0),
    }
    out.update({f"{layer}.self_s": v for layer, v in self_s.items() if layer in LAYERS})
    return out
