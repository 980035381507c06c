"""The suite's warning filters: every warning is an error, except one that hypothesis raises
while it reports a failing property.

Hypothesis's report hook touches `mypy_extensions.TypedDict`, which warns that it is
deprecated; as an error inside the hook, that warning ends the whole session with
INTERNALERROR and hides every test after the failing property.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_the_property():
    pass


def test_an_unrelated_deprecation_warning_fails():
    warnings.warn("an unrelated deprecation", DeprecationWarning)
'''


def test_a_failing_property_ends_with_a_summary_and_other_warnings_still_fail(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
    assert "FAILED test_probe.py::test_a_failing_property" in out
    assert "FAILED test_probe.py::test_an_unrelated_deprecation_warning_fails" in out
    assert out.rstrip().splitlines()[-1].startswith("2 failed, 1 passed")
