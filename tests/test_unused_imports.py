"""Every name a package or test module imports is used, and the root exports only what its callers need.

No linter ships with the test dependencies, so the checks walk the syntax
tree with the standard library. Names listed in ``__all__`` count as used,
since the package root imports them only to re-export them. The root may
export a name only if the command line, the acceptance tests or the README
example imports it; everything else is imported from its own module.
"""

import ast
import pathlib
import re

import pytest

import modal_ent

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "modal_ent"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def package_imports(source: str):
    """Names imported from the package or, in a package module, relatively."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "modal_ent")
        for alias in node.names
    }


def readme_example() -> str:
    return re.search(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)


def test_detector_finds_an_unused_name():
    source = "from typing import List, Tuple\nimport numpy as np\nx: List[int] = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "Tuple")]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted((REPO / "tests").glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_root_exports_only_what_its_callers_import():
    exported = modal_ent.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == package_imports((PACKAGE / "__init__.py").read_text())
    needed = package_imports(readme_example())
    for caller in (PACKAGE / "cli.py", REPO / "tests" / "test_acceptance.py"):
        needed |= package_imports(caller.read_text())
    assert sorted(set(exported) - needed) == []


def test_readme_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
