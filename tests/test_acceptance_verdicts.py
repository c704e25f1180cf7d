"""The acceptance-verdict script (``acceptance_verdicts.sh``), as CI runs it."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("acceptance_verdicts.sh")


def test_nine_criteria_each_pass_once(tmp_path):
    env = dict(os.environ)
    # The script runs `python`: make it this interpreter.
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    # Keep the inner run's pytest cache out of the checkout.
    env["PYTEST_ADDOPTS"] = f"-p no:cacheprovider {env.get('PYTEST_ADDOPTS', '')}"
    result = subprocess.run(["bash", str(SCRIPT)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
