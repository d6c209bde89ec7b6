"""The suite's own configuration: pytest reports a failing test as a failure,
every source file parses as the oldest Python the package supports, and the
CI workflow runs scripts that exist, the Tier-1 command of ROADMAP.md and a
checked smoke run of every benchmark workload."""

import ast
import json
import pathlib
import re
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


WORKFLOW = REPO / ".github" / "workflows" / "tier1.yml"


def _run_commands(text):
    """The shell text of each ``run:`` step of a workflow, read as plain
    text: a one-line value as it is, a ``|`` or ``>`` block as its lines,
    stripped, up to the first line indented no deeper than the key."""
    lines = text.splitlines()
    commands = []
    for i, line in enumerate(lines):
        key = line.lstrip(" -")
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if value not in ("|", ">"):
            commands.append(value)
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            block.append(follow.strip())
        commands.append("\n".join(block))
    return commands


def test_every_script_the_workflow_runs_exists():
    scripts = {
        path
        for command in _run_commands(WORKFLOW.read_text(encoding="utf-8"))
        for path in re.findall(r"(?:^|\s)([\w./-]+\.py)(?=\s|$)", command, re.M)
    }
    assert "perfbench/run.py" in scripts, scripts
    missing = sorted(path for path in scripts if not (REPO / path).is_file())
    assert not missing, missing


def test_the_workflow_runs_the_roadmap_tier1_command():
    (want,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", (REPO / "ROADMAP.md").read_text(encoding="utf-8"), re.M)
    (step,) = [command for command in _run_commands(WORKFLOW.read_text(encoding="utf-8")) if "-m pytest" in command]
    # the step may add two options that select no test: Python's
    # development mode, which is stricter, and the report of the slowest tests
    assert re.sub(r" -X dev| --durations=\d+", "", step) == want


def test_every_benchmark_workload_has_a_checked_smoke_step():
    # each workload of BENCHMARK.json is run once in CI, and the step fails
    # unless the run's last line reports every output check as correct
    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    assert workloads
    commands = _run_commands(WORKFLOW.read_text(encoding="utf-8"))
    for name in workloads:
        steps = [c for c in commands if re.search(rf"perfbench/run\.py --workload {re.escape(name)}(?=\s|$)", c)]
        assert steps, name
        assert any(re.search(r"\[['\"]correct['\"]\] is True", c) and "sys.exit" in c for c in steps), name
