"""The repository's pytest settings report a failing property test as a failure."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis prints the failing example through libcst, whose import warns; under
    # filterwarnings = error that warning ended the session in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
