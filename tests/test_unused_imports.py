"""Every imported name is used, the root exports only what its callers need, and nothing public is dead.

No linter ships with the test dependencies, so the checks walk the syntax
tree with the standard library. The root resolves each exported name from
the module its table names, on first access; it may export a name only if
the command line, the acceptance tests or the README example imports it,
and everything else is imported from its own module. Every public name of
a package module must be read by the package itself, the README example,
the acceptance tests or the benchmark; a function that only its own unit
tests call is deleted, tests and all.
"""

import ast
import importlib
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


def public_definitions(source: str):
    """Top-level functions, classes and assigned names without a leading underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def referenced_names(source: str, strings: bool = False):
    """Names a source reads, attributes and imported names included.

    With ``strings``, a string constant counts too, for code that looks
    functions up by name.
    """
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


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
    assert exported == list(modal_ent._EXPORTS)
    needed = package_imports(readme_example())
    for caller in (PACKAGE / "cli.py", REPO / "tests" / "test_acceptance.py"):
        needed |= package_imports(caller.read_text())
    assert sorted(set(exported) - needed) == []


def test_root_names_are_the_objects_of_their_modules():
    for name, module in modal_ent._EXPORTS.items():
        assert getattr(modal_ent, name) is getattr(importlib.import_module(f"modal_ent.{module}"), name)
    assert not hasattr(modal_ent, "no_such_name")


def test_readme_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


#: public names whose only callers are tests that use them as references;
#: such a reference belongs in the tests, so none is allowed
TEST_REFERENCES = set()


def test_every_public_name_is_reached_outside_its_unit_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    reached = referenced_names(readme_example())
    reached |= referenced_names((REPO / "tests" / "test_acceptance.py").read_text())
    for path in modules:
        reached |= referenced_names(path.read_text())
    for path in sorted((REPO / "perfbench").glob("*.py")):
        reached |= referenced_names(path.read_text(), strings=True)
    unreached = [
        (path.stem, name) for path in modules for name in sorted(public_definitions(path.read_text()) - reached)
    ]
    # equality also drops an exception once something else reaches the name
    assert unreached == sorted(TEST_REFERENCES)


#: private helpers that fix the format of the symbol-move tables
MOVE_TABLE_HELPERS = {"_symbol_moves"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_operators_reads_the_move_tables(path):
    # other modules act through operators.apply, so the table format has one owner
    named = referenced_names(path.read_text()) & MOVE_TABLE_HELPERS
    assert named == (MOVE_TABLE_HELPERS if path.name == "operators.py" else set())


#: StateVector's layout slots: the map a caller built it from, its support
#: in basis order, and the amplitudes on that support
LAYOUT_SLOTS = {"_map", "_support", "_amps"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_states_reads_the_layout_slots(path):
    # other modules read a state through its amplitudes view and its layout
    # methods, so how a state lays out its amplitudes is decided in one module
    named = referenced_names(path.read_text(), strings=True) & LAYOUT_SLOTS
    assert named == set() or path.name == "states.py"


#: the dense sector matrix and its index columns, which operators keeps as
#: the oracle the tests compare the pair-block action and apply against
DENSE_ORACLE = {"sector_matrix", "_index_columns"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_operators_names_the_dense_oracle(path):
    # the package moves states by apply and by the pair-block action, so no
    # other module computes with, imports or looks up the dense matrix
    named = referenced_names(path.read_text(), strings=True) & DENSE_ORACLE
    assert named == set() or path.name == "operators.py"


def numpy_imports(source: str):
    """The top-level function, or None for the module, of each import of
    numpy that runs; an ``if TYPE_CHECKING:`` block never runs."""
    found = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and isinstance(child.test, ast.Name) and child.test.id == "TYPE_CHECKING":
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(owner)
            inner = child.name if owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            walk(child, inner)

    walk(ast.parse(source), None)
    return found


def test_numpy_loads_at_module_level_only_in_monte_carlo():
    # the Monte-Carlo batch layer owns module-level numpy; the operators
    # import it only in the dense matrix and the random element
    probe = "import numpy as np\nif TYPE_CHECKING:\n    import numpy\ndef f():\n    from numpy import linalg\n"
    assert numpy_imports(probe) == [None, "f"]
    at_load = {path.stem for path in PACKAGE.glob("*.py") if None in numpy_imports(path.read_text())}
    assert at_load == {"monte_carlo"}
    inside = set(numpy_imports((PACKAGE / "operators.py").read_text()))
    assert inside == {"sector_matrix", "_index_columns", "random_element"}


def test_classify_imports_no_numpy_anywhere():
    # the canonical form's SVD is a closed form and its phase fit an exact
    # pseudo-inverse, so not even a type-checking block names numpy
    assert "numpy" not in imported_modules((PACKAGE / "classify.py").read_text())


def imported_modules(source: str):
    """The top-level names of the modules a source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def test_import_finder_sees_every_form():
    source = "import dataclasses.x\nfrom typing import NamedTuple\nfrom . import states\ndef f():\n    import inspect\n"
    assert imported_modules(source) == {"dataclasses", "typing", "inspect"}


def test_invariants_imports_no_numpy_anywhere():
    # W and its traces go through one 2x2 product over Python numbers, so
    # not even a type-checking block names numpy
    assert "numpy" not in imported_modules((PACKAGE / "invariants.py").read_text())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses loads inspect, ast, dis and tokenize, and execs the source of
    # every method it makes; records are NamedTuples and the checked value
    # classes use slots, so a CLI call starts without either
    assert "dataclasses" not in imported_modules(path.read_text())
