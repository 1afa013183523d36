"""The repository's pytest settings report a failing hypothesis test as a
failure and go on to the tests after it.

``filterwarnings = ["error"]`` turns every warning into an error, and
hypothesis's report hook can warn while it reports a failing ``@given``
test; raised there, the warning ends the session with ``INTERNALERROR``.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_fails" in out
    assert "PASSED test_probe.py::test_passes" in out
    assert run.returncode == 1
