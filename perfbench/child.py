"""One ``ropefreq`` CLI invocation, run as its own process by ``run.py``.

Usage: child.py STAMP TRACE INVOCATION_ID -- [ropefreq arguments]

Imports ``ropefreq`` (the same entry point as the ``ropefreq`` console
script), records in STAMP the monotonic clock before and after that import
and the exit code, then runs ``ropefreq.cli.main``. With no ropefreq
arguments it exits right after the import, which is how set-up alone is
timed. When TRACE is not ``-``, spans around the library's public calls are
held in memory and written to TRACE when the invocation ends.
"""

import json
import sys
import time


def main() -> int:
    stamp_path, trace_path, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STAMP TRACE INVOCATION_ID -- [ropefreq args]")
    t0 = time.monotonic()
    import ropefreq.cli

    t1 = time.monotonic()
    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer(invocation)
        tracer.install()
    rc = 0
    try:
        if argv:
            if tracer is None:
                rc = ropefreq.cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = ropefreq.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(stamp_path, "w") as f:
            json.dump({"import_start": t0, "import_done": t1, "rc": rc}, f)
        if tracer is not None:
            tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
