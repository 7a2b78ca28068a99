"""The package's layout: stdlib-only imports, no public name that only tests
use, and a reference route that shares no code with the engines."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "matchlab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# public names kept with no caller yet, each for the ROADMAP item that will
# call it
KEPT_FOR_ROADMAP = {
    "is_matching": "ROADMAP: a standalone certificate checker",
    "recurrence_check": "ROADMAP: one finite certificate for every n coprime to 6",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def absolute_imports(path):
    """The top-level module of every absolute import in `path`."""
    modules = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


def defined_names(stmt):
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {name for name in names if not name.startswith("_")}


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_public_names():
    """Public top-level names of the package that no code in the package or
    the scripts references outside the name's own definition."""
    defined, referenced = set(), set()
    for path in PACKAGE + SCRIPTS:
        for stmt in parse(path).body:
            own = defined_names(stmt) if path in PACKAGE else set()
            defined |= own
            referenced |= referenced_names(stmt) - own
    return defined - referenced


def test_package_imports_only_the_standard_library():
    for path in PACKAGE:
        outside = absolute_imports(path) - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_public_names() == set(KEPT_FOR_ROADMAP)


def test_reference_route_imports_no_engine_code():
    # stdlib only, so nothing from matchlab
    outside = absolute_imports(ROOT / "tests" / "reference.py") - set(sys.stdlib_module_names)
    assert not outside, f"reference.py imports {sorted(outside)}"
