"""A failing Hypothesis property, run under the repo's pytest settings, prints its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # Every warning is an error under pyproject.toml; one raised while the
    # failure is reported turns it into INTERNALERROR lines and no example.
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, *argv, str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
