"""Freeze the reference outputs the benchmark compares against.

    python3 perfbench/freeze.py [--force]

Runs one invocation of every workload, at both sizes, for the default and
the held-out seed, and stores each output summary under ``reference/``.
The references record the program's outputs at the commit that froze
them; existing files are never replaced without ``--force``, and a
difference the checks report is not a reason to re-freeze.
"""

import argparse
import json
import shutil
import sys

from run import WORK, Spawner, child_env, spawn
from workloads import DEFAULT_SEED, HELDOUT_SEED, REFERENCE_DIR, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--force", action="store_true", help="replace existing references")
    args = parser.parse_args()
    REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    for workload in WORKLOADS.values():
        for size in ("full", "smoke"):
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                workdir = WORK / "freeze" / workload.name
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                workload.prepare(workdir, seed, size)
                workload.out.mkdir()
                path = REFERENCE_DIR / f"{workload.ref_key(seed)}.json"
                if path.exists() and not args.force:
                    print(f"kept {path.name}")
                    continue
                with Spawner() as spawner:
                    rec = spawn(spawner, workload.argv(), workdir / "inv", "freeze", False,
                                child_env())
                if rec["rc"] != 0:
                    print(f"{workload.name}: exit {rec['rc']}\n{rec['stderr']}", file=sys.stderr)
                    return 1
                path.write_text(json.dumps(workload.summary(), indent=1, sort_keys=True) + "\n")
                errors = workload.check()
                print(f"wrote {path.name}: {'; '.join(errors[:3]) if errors else 'checks pass'}")
                status |= bool(errors)
    shutil.rmtree(WORK / "freeze", ignore_errors=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
