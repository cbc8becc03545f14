"""The knob lint: every ``StoreConfig`` field is set by non-test code.

A field that only tests set runs at its default on every production path
(the CLI, the benchmarks, the examples), so it is a constant with a
settable surface.  This walks the repository's non-test code and counts
two kinds of setter: a ``StoreConfig(...)`` keyword and a
``replace(..., field=...)`` keyword.  An attribute store ``x.field = ...``
does not count: any object's attribute of the same name would pass it.
A field neither kind names fails the lint unless it is on
:data:`ALLOWLIST` with its reason.
"""

import ast
import dataclasses
import os
import sys

from repro.core.config import StoreConfig
from tests.test_orphan_modules import NON_TEST_ROOTS, REPO, python_files

#: Fields kept although no non-test code sets them.
ALLOWLIST = {
    "server_max_queue_depth": "admission capacity",
    "server_group_commit": (
        "the per-commit reference path the group-commit bench compares against"
    ),
    "server_snapshot_reads": (
        "the reference path the snapshot-read test compares against"
    ),
    "replication_batch_size": (
        "read by perfbench/checks.py, which only a benchmark PR may edit"
    ),
}


def _callee(node):
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def set_names(path):
    """Every field name ``path`` could set: keywords of ``StoreConfig``
    and ``replace`` calls."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("StoreConfig", "replace"):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg


def unset_fields():
    """The fields no non-test code sets, allowlisted ones included."""
    names = set()
    for root in NON_TEST_ROOTS:
        for path in python_files(os.path.join(REPO, root)):
            names.update(set_names(path))
    return sorted(
        spec.name for spec in dataclasses.fields(StoreConfig) if spec.name not in names
    )


def test_every_field_is_set_by_non_test_code():
    assert [name for name in unset_fields() if name not in ALLOWLIST] == []


def test_allowlist_holds_only_unset_fields():
    """An allowlisted field that something starts to set leaves the list."""
    assert set(ALLOWLIST) <= set(unset_fields())


def test_each_setter_kind_counts(tmp_path, monkeypatch):
    """A keyword to ``StoreConfig`` and a keyword to ``replace`` each
    count as setting a field; an attribute store or a read does not, and
    neither does a setter under a ``tests`` directory."""
    src = tmp_path / "src"
    (src / "tests").mkdir(parents=True)
    (src / "a.py").write_text("c = StoreConfig(page_size=512)\n")
    (src / "b.py").write_text("c = dataclasses.replace(c, policy=p)\n")
    (src / "c.py").write_text("c.adaptive_window = 8\nx = c.checksums_enabled\n")
    (src / "tests" / "d.py").write_text("c = StoreConfig(checksums_enabled=False)\n")
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "REPO", str(tmp_path))
    unset = unset_fields()
    assert {"page_size", "policy"}.isdisjoint(unset)
    assert {"adaptive_window", "checksums_enabled"} <= set(unset)
