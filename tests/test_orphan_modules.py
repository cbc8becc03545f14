"""The import-graph lint: every module under src/repro has a caller.

A module that only its package ``__init__`` re-exports, and only the tests
import, is code no production path reaches.  This walks every import
statement (function-local ones included) of the repository's non-test
code and requires each module of ``src/repro`` to be named by at least one
of them, its own package ``__init__`` aside.
"""

import ast
import os
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
REPO = os.path.dirname(SRC)
#: where non-test code lives; ``tests`` directories under them are skipped
NON_TEST_ROOTS = ("src", "perfbench", "benchmarks", "tools", "examples")

#: Modules no other module imports, because something outside Python
#: code runs them:
#: * ``repro.cli`` is the command line, ``python -m repro.cli``;
#: * ``repro.testing.*`` are harnesses the CI jobs drive: ``torture``
#:   (through ``repro.cli torture``), ``concurrency`` (the interleaving
#:   sweep and byte-determinism gate, ``testing.schedules``) and
#:   ``replication-torture`` (``testing.repltorture``).
ENTRY_POINTS = ("repro.cli",)
HARNESS_PREFIX = "repro.testing."


def module_name(path):
    parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def python_files(root):
    for directory, subdirectories, filenames in os.walk(root):
        subdirectories[:] = [
            name for name in subdirectories
            if name != "tests" and not name.startswith((".", "__"))
        ]
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(directory, filename)


def imported_names(path):
    """Every dotted name an import in ``path`` could load: ``import a.b``
    names ``a.b``; ``from a import b`` names ``a`` and ``a.b``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    package = module_name(path).split(".") if path.startswith(SRC) else []
    if package and not path.endswith("__init__.py"):
        package.pop()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def importers():
    """dotted module name -> the non-test files that import it"""
    found = {}
    for root in NON_TEST_ROOTS:
        for path in python_files(os.path.join(REPO, root)):
            for name in imported_names(path):
                found.setdefault(name, set()).add(path)
    return found


def orphan_modules():
    graph = importers()
    orphans = []
    for path in python_files(os.path.join(SRC, "repro")):
        name = module_name(path)
        if (
            path.endswith("__init__.py")
            or name in ENTRY_POINTS
            or name.startswith(HARNESS_PREFIX)
        ):
            continue
        own_init = os.path.join(os.path.dirname(path), "__init__.py")
        if not graph.get(name, set()) - {own_init}:
            orphans.append(name)
    return sorted(orphans)


def test_every_module_has_a_non_test_importer():
    assert orphan_modules() == []


def test_a_re_export_alone_does_not_count(tmp_path, monkeypatch):
    """The lint sees through a package ``__init__`` that re-exports a
    module nothing else imports, and counts a function-local import."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.pkg.lonely import x\n")
    (package / "lonely.py").write_text("x = 1\n")
    (package / "used.py").write_text("y = 2\n")
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "script.py").write_text(
        "def main():\n    from repro.pkg import used\n"
    )
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "SRC", str(tmp_path / "src"))
    monkeypatch.setattr(this, "REPO", str(tmp_path))
    assert orphan_modules() == ["repro.pkg.lonely"]
