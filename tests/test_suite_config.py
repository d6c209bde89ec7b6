"""The suite's own configuration: pytest reports a failing test as a failure,
and every source file parses as the oldest Python the package supports."""

import ast
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_given_test_is_reported_not_internal_error(tmp_path):
    # filterwarnings = error must not turn hypothesis's failure report into
    # an INTERNALERROR, which would leave every later test unreported
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout, output


def test_every_source_file_parses_as_python_3_10():
    """Every ``.py`` file under ``src/``, ``tests/`` and ``tools/`` parses with
    the Python 3.10 grammar, the oldest that ``requires-python`` admits.

    This check is best effort. It covers grammar only, and only the newer
    constructs that the running parser checks against ``feature_version``,
    such as ``except*``; it says nothing of standard-library APIs that 3.10
    lacks, which only a 3.10 interpreter would find.
    """
    files = sorted(path for top in ("src", "tests", "tools") for path in (REPO / top).rglob("*.py"))
    assert len(files) > 20
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
