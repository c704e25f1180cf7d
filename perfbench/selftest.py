"""Self-test of the benchmark harness at smoke size.

    python3 perfbench/selftest.py

Runs every workload at smoke size (the shipped 8x8 grid and 10^3 deltas)
through the same ``run.run`` the benchmark uses, untraced and traced, for
the default and the held-out seed, and requires that no invocation fails
and that each traced layer reports work. Then shows that a corrupted output
value and a non-zero exit are each counted as failed invocations. Exits 0
when every expectation holds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run
from tracing import PER_LAYER_UNITS
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

# A metric each workload must report as non-zero when traced.
MUST_RUN = {
    "copy64_attr": ("attention.shared_attend_s", "diagnostics.attribution_s", "rope.rows"),
    "sweep32_dump": ("attention.qkv_s", "reportio.bytes_written", "diagnostics.alignment_s"),
    "decay1e5": ("bands.decay_s", "bands.csv_s", "bands.cos_evals"),
}


def shift_alignment(w) -> None:
    path = w.out / "report.json"
    report = json.loads(path.read_text())
    report["entries"][0]["alignment"]["positional_mass"] += 1e-9
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def bump_matrix(w) -> None:
    path = w.matrix_paths()[1]
    raw = bytearray(path.read_bytes())
    raw[2] ^= 0x40
    path.write_bytes(bytes(raw))


def nan_in_csv(w) -> None:
    path = w.out / "decay.csv"
    lines = path.read_text().split("\n")
    lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines))


class MissingConfig:
    """A workload whose invocations name a config file that does not exist."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def argv(self) -> list[str]:
        argv = self.inner.argv()
        argv[1] = str(Path(argv[1]).with_name("missing.json"))
        return argv


def main() -> int:
    problems = []
    for name, w in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            for trace in (False, True):
                result = run.run(w, seed, 0.0, trace, size="smoke")
                bad = [r for r in result["records"] if r["errors"]]
                for r in bad:
                    problems.append(f"{name} seed {seed}: {r['id']} failed: {r['errors'][:3]}")
                if trace:
                    metrics = run.per_layer(result)
                    if set(metrics) != set(PER_LAYER_UNITS):
                        problems.append(f"{name}: per-layer keys {sorted(metrics)}")
                    for key in MUST_RUN[name]:
                        if not metrics.get(key, 0) > 0:
                            problems.append(f"{name}: traced {key} is {metrics.get(key)}")
                else:
                    e2e = run.end_to_end(result)
                    if not all(v > 0 and math.isfinite(v) for v in e2e.values()):
                        problems.append(f"{name}: end-to-end metrics {e2e}")
                print(f"{name} seed {seed} trace {int(trace)}: "
                      f"failed_frac {run.failed_frac(result):g} of {len(result['records'])}")

    faults = (
        ("copy64_attr", "alignment value shifted by 1e-9", WORKLOADS["copy64_attr"], shift_alignment),
        ("sweep32_dump", "one matrix byte flipped", WORKLOADS["sweep32_dump"], bump_matrix),
        ("decay1e5", "NaN written into the CSV", WORKLOADS["decay1e5"], nan_in_csv),
        ("copy64_attr", "non-zero exit", MissingConfig(WORKLOADS["copy64_attr"]), None),
    )
    for name, what, w, tamper in faults:
        result = run.run(w, DEFAULT_SEED, 0.0, False, size="smoke", tamper=tamper)
        frac = run.failed_frac(result)
        print(f"{name} with {what}: failed_frac {frac:g} of {len(result['records'])}")
        if frac != 1.0:
            problems.append(f"{name}: {what} counted as failed_frac {frac}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
