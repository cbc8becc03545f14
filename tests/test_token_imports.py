"""The token lint: program code works on records, not on decoded tokens
(and the query layer, which reads them as node columns, imports nothing
from ``repro.core``; the observers import nothing from ``repro.core.repair``).

The store writes records straight from XML text (``parse_records``) and
renders them straight back (``emit``); undo, snapshots and the reference
store run over the same records (``RecordDocument``).  This walks every
import statement of ``src/repro`` and fails on

* an import of the token-list helpers that now live only in the tests'
  oracle (``tests/xmltoken/oracle.py``): the ``serializer`` module,
  ``tokenize_fragment``, ``tokenize_document``, ``decode_tokens`` and
  ``node_end_offset``;
* an import of ``Token`` by any module outside :data:`TOKEN_IMPORTERS`.

An import is judged by the name it loads, not the name it binds:
``core/store.py`` binds ``parse_records`` and ``emit`` under the names
perfbench's tracer patches, and that is not a token import.
"""

import os

from tests.test_orphan_modules import SRC, imported_names, python_files

#: The modules that may import ``Token``, and why.
TOKEN_IMPORTERS = {
    # the codec's decode_token / encode_token(s): the one place a record
    # becomes a token and back
    "repro/xmltoken/binary.py": "the token codec",
    "repro/xmltoken/__init__.py": "re-exports the token model",
    # PrePostLabeler.label_stream labels a token sequence
    "repro/ids/prepost.py": "labels a token sequence",
}

#: Names no program module may import.
RETIRED = (
    "serializer", "tokenize_fragment", "tokenize_document", "decode_tokens", "node_end_offset",
)


def source_imports(src=None):
    """``(path relative to src, dotted name)`` for every import in src/repro."""
    src = src or SRC
    for path in python_files(os.path.join(src, "repro")):
        relative = os.path.relpath(path, src).replace(os.sep, "/")
        for name in imported_names(path):
            yield relative, name


def token_importers(src=None):
    """The src/repro modules that import ``Token``, sorted."""
    return sorted({path for path, name in source_imports(src) if name.endswith(".Token")})


def retired_imports(src=None):
    return sorted(
        (path, name)
        for path, name in source_imports(src)
        if name.rpartition(".")[2] in RETIRED
    )


def core_imports_from_xpath(src=None):
    """``(path, name)`` for every import of ``repro.core`` under
    ``repro/xpath``: the query processor sits above the store and reads
    its node columns from ``repro.xmltoken.columns``, below both."""
    return sorted(
        (path, name)
        for path, name in source_imports(src)
        if path.startswith("repro/xpath/")
        and (name == "repro.core" or name.startswith("repro.core."))
    )


def repair_imports_from_obs(src=None):
    """``(path, name)`` for every import of ``repro.core.repair`` under
    ``repro/obs``: the observers read the repair sidecar through
    ``repro.obs.schema.read_sidecar``, beside the other on-disk formats."""
    return sorted(
        (path, name)
        for path, name in source_imports(src)
        if path.startswith("repro/obs/")
        and (name == "repro.core.repair" or name.startswith("repro.core.repair."))
    )


def test_obs_imports_nothing_from_repair():
    assert repair_imports_from_obs() == []


def test_the_repair_lint_sees_a_planted_import(tmp_path):
    package = tmp_path / "repro" / "obs"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "down.py").write_text(
        "def f():\n    from repro.core.repair import read_sidecar\n"
    )
    assert repair_imports_from_obs(str(tmp_path)) == [
        ("repro/obs/down.py", "repro.core.repair"),
        ("repro/obs/down.py", "repro.core.repair.read_sidecar"),
    ]


def test_xpath_imports_nothing_from_core():
    assert core_imports_from_xpath() == []


def test_the_xpath_lint_sees_a_planted_core_import(tmp_path):
    package = tmp_path / "repro" / "xpath"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "up.py").write_text(
        "def f():\n    from repro.core.locator import Locator\n"
    )
    assert core_imports_from_xpath(str(tmp_path)) == [
        ("repro/xpath/up.py", "repro.core.locator"),
        ("repro/xpath/up.py", "repro.core.locator.Locator"),
    ]


def test_no_module_imports_a_retired_token_helper():
    assert retired_imports() == []


def test_only_the_allowlisted_modules_import_token():
    assert set(token_importers()) <= set(TOKEN_IMPORTERS)


def test_the_lint_sees_retired_helpers_and_stray_token_imports(tmp_path, monkeypatch):
    """Planted violations are found; an alias of a record function under
    a retired name is not one."""
    package = tmp_path / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "old.py").write_text(
        "from repro.xmltoken import serializer\n"
        "def f():\n    from repro.xmltoken.parser import tokenize_fragment\n"
    )
    (package / "stray.py").write_text("from repro.xmltoken.tokens import Token, TokenKind\n")
    (package / "renamed.py").write_text(
        "from repro.xmltoken.parser import parse_records as tokenize_fragment\n"
    )
    assert retired_imports(str(tmp_path)) == [
        ("repro/pkg/old.py", "repro.xmltoken.parser.tokenize_fragment"),
        ("repro/pkg/old.py", "repro.xmltoken.serializer"),
    ]
    assert token_importers(str(tmp_path)) == ["repro/pkg/stray.py"]
