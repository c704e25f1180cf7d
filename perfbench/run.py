"""The ropefreq benchmark: timed CLI invocations on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each invocation of the ``ropefreq`` CLI runs in its own child process, one
at a time (a closed loop with one client): the next starts only after the
previous one exits and its outputs have been checked. One warm-up
invocation is discarded, a few import-only spawns time set-up, and then
invocations repeat until another one would overrun ``--seconds``.

With ``--trace 0`` the end-to-end metrics are printed: median wall time
and CPU time of an invocation, the highest peak RSS, and the median set-up
time (spawn until ``ropefreq`` is imported). With ``--trace 1`` traced and
untraced invocations alternate; spans recorded around the library's
functions give per-layer numbers, and the traced run's spans are written
to ``.perfbench/traces/``. Every invocation's outputs are checked; one that
exits non-zero or fails a check counts as failed. Human-readable lines
start with ``#``; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXTRA_CALLS, PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, file_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

INVOCATION_TIMEOUT_S = 150
SETUP_PROBES_FIRST = 4
SETUP_PROBES_EACH = 2
MIN_MEASURED = 3
MIB = 1024 * 1024
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _proc_field(path: str, key: str):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    """Versions and machine facts the numbers depend on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "ropefreq").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "nproc": nproc(),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "blas_threads": nproc(),
        "src_ropefreq_lines": src_lines,
    }


class Spawner:
    """Starts children through ``spawner.py``, which says why."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv: list[str], env: dict, stderr: Path) -> dict:
        req = {"argv": argv, "env": env, "stderr": str(stderr), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner process exited")
        return json.loads(line)


def spawn(spawner: Spawner, argv: list[str], invdir: Path, inv_id: str, traced: bool,
          env: dict) -> dict:
    """Run one child to completion; its wall, CPU and peak RSS, and set-up time."""
    invdir.mkdir(parents=True, exist_ok=True)
    stamp, trace_path, stderr = invdir / "stamp.json", invdir / "trace.json", invdir / "stderr.txt"
    for p in (stamp, trace_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(stamp),
           str(trace_path) if traced else "-", inv_id, "--", *argv]
    r = spawner.run(cmd, env, stderr)
    rec = {
        "id": inv_id,
        "traced": traced,
        "rc": r["exit"],
        "wall_s": r["end"] - r["start"],
        "cpu_s": r["utime"] + r["stime"],
        "rss_mib": r["maxrss_kib"] * 1024 / MIB,
        "stderr": stderr.read_text(errors="replace")[-2000:],
    }
    if stamp.exists():
        s = json.loads(stamp.read_text())
        rec["setup_s"] = s["import_done"] - r["start"]
        rec["import_s"] = s["import_done"] - s["import_start"]
    if traced and trace_path.exists():
        rec["trace"] = json.loads(trace_path.read_text())
    return rec


def run(workload, seed: int, seconds: float, trace: bool, size: str = "full", tamper=None) -> dict:
    """Measure one workload; returns the invocation records and set-up samples.

    ``tamper(workload)``, when given, runs after each invocation and before
    its check; the self-test uses it to corrupt outputs.
    """
    workdir = WORK / "work" / f"{workload.name}-{size}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Spawner() as spawner:
            return _measure(spawner, workload, workdir, seed, seconds, trace, size, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(spawner, workload, workdir, seed, seconds, trace, size, tamper) -> dict:
    env = child_env()
    verdicts: dict[str, list[str]] = {}
    records: list[dict] = []

    def invoke(inv_id: str, traced: bool) -> dict:
        shutil.rmtree(workload.out, ignore_errors=True)
        workload.out.mkdir(parents=True)
        rec = spawn(spawner, workload.argv(), workdir / "inv", inv_id, traced, env)
        if tamper is not None:
            tamper(workload)
        errors = []
        if rec["rc"] != 0:
            errors.append(f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}")
        else:
            try:
                digest = file_digest(workload.outputs())
                if digest not in verdicts:
                    verdicts[digest] = workload.check()
                errors = verdicts[digest]
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"output unreadable: {exc!r}"]
        rec["errors"] = errors
        records.append(rec)
        return rec

    setup: list[dict] = []

    def probe(count: int) -> float:
        """Import-only spawns; returns the time they took."""
        busy = 0.0
        for _ in range(count):
            rec = spawn(spawner, [], workdir / "probe", f"probe{len(setup)}", False, env)
            busy += rec["wall_s"]
            if rec["rc"] == 0 and "setup_s" in rec:
                setup.append(rec)
        return busy

    workload.prepare(workdir, seed, size)
    invoke("warmup", traced=False)
    # Set-up is sampled throughout the run, not in one burst, so that a
    # spell of contention on the machine weighs on it as on the invocations.
    busy = probe(SETUP_PROBES_FIRST)
    measured: list[dict] = []
    min_measured = 2 * MIN_MEASURED - 2 if trace else MIN_MEASURED
    while True:
        rec = invoke(f"inv{len(measured)}", traced=trace and len(measured) % 2 == 0)
        measured.append(rec)
        busy += rec["wall_s"] + probe(SETUP_PROBES_EACH)
        typical = statistics.median(r["wall_s"] for r in measured)
        if len(measured) >= min_measured and busy + typical > seconds:
            break
    return {"records": records, "measured": measured, "setup": setup}


def failed_frac(result: dict) -> float:
    """Failed invocations (non-zero exit or a failed check) over those attempted."""
    records = result["records"]
    return sum(bool(r["errors"]) for r in records) / len(records)


def end_to_end(result: dict) -> dict:
    measured = result["measured"]
    setups = [r["setup_s"] for r in result["setup"] + measured if "setup_s" in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in measured),
        "cpu_s": statistics.median(r["cpu_s"] for r in measured),
        "peak_rss_mib": max(r["rss_mib"] for r in measured),
        "setup_s": statistics.median(setups),
    }


def per_layer(result: dict) -> dict:
    traced = [r for r in result["measured"] if r["traced"] and "trace" in r]
    plain = [r for r in result["measured"] if not r["traced"]]
    rows = [layer_metrics(r["trace"]["spans"]) for r in traced]
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    imports = [r["import_s"] for r in result["setup"] + result["measured"] if "import_s" in r]
    metrics["setup.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return metrics


def write_trace(workload, seed: int, result: dict, metrics: dict, env_info: dict) -> Path:
    out = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    invocations = [
        {k: r.get(k) for k in ("id", "traced", "wall_s", "cpu_s", "rss_mib", "errors")}
        | {"missing_hooks": r["trace"]["missing_hooks"], "spans": r["trace"]["spans"]}
        for r in result["measured"] if "trace" in r
    ]
    doc = {
        "workload": workload.name,
        "seed": seed,
        "environment": env_info,
        "per_layer": metrics,
        "extra_calls": list(EXTRA_CALLS),
        "invocations": invocations,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ropefreq" / "cli.py").is_file():
        print(f"error: no ropefreq sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env_info = environment()
    result = run(workload, args.seed, args.seconds, bool(args.trace))

    records = result["records"]
    failed = [r for r in records if r["errors"]]
    n = len(result["measured"])
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: {n} measured "
          f"invocations after 1 warm-up, closed loop with 1 client")
    print(f"# env {json.dumps(env_info, sort_keys=True)}")
    for r in failed:
        print(f"# FAILED {r['id']}: {'; '.join(r['errors'][:5])}")
    if args.trace:
        metrics = per_layer(result)
        path = write_trace(workload, args.seed, result, metrics, env_info)
        units = PER_LAYER_UNITS
        print(f"# spans written to {path.relative_to(ROOT)}; beyond the program's own calls "
              f"the hooks make only: {'; '.join(EXTRA_CALLS)}")
    else:
        metrics = end_to_end(result)
        units = END_TO_END_UNITS
    for k, v in metrics.items():
        print(f"# {k} {v:.6g} {units[k]}")
    walls = sorted(round(r["wall_s"], 3) for r in result["measured"])
    print(f"# invocation wall times (s, sorted): {walls}")
    if not args.trace:
        print(f"# wall_s and cpu_s are medians of n={n}; no tail percentile (fewer than 10 "
              f"samples beyond any); setup_s is the median of "
              f"{len(result['setup']) + n} spawns")
    print(f"# failed_frac {failed_frac(result):.6g} ratio ({len(failed)}/{len(records)})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
