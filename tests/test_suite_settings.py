"""The suite's own settings (pytest.ini and conftest.py), run in a child session."""
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_later_tests_reported(tmp_path):
    """Hypothesis's failure report imports libcst, whose DeprecationWarning must
    not become an INTERNALERROR under filterwarnings = error and end the session."""
    shutil.copy(TESTS.parent / "pytest.ini", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(TESTS / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_pair.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1 and "1 failed, 1 passed" in done.stdout
