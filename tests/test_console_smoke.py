"""The console smoke script (``console_smoke.sh``), run with ``python -m ropefreq``.

CI runs the same script against the installed entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("console_smoke.sh")


def test_console_smoke(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # The script's own checks run `python`: make it this interpreter.
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    env["ROPEFREQ"] = "python -m ropefreq"
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run(
        ["bash", str(SCRIPT)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
