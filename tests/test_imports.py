"""Import hygiene: every module-level import in the package is used, and every
top-level function and class is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcswave"


def unused_imports(source: str):
    """Names bound by the module-level imports of source that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nfrom . import dataio\nprint(lcm(os.sep))\n"
    assert unused_imports(source) == [(2, "gcd"), (3, "dataio")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# top-level names nothing in the package reads, each kept for a reason
ENTRY_POINTS = {
    ("presets", "box_bank"): "the README's example of a preset bank",
    ("presets", "deg4_bank"): "the accuracy-4 preset bank the README pairs with box_bank",
    ("filters", "filter_nd"): "builds an n-D filter from its taps, for general banks",
    ("filterbank", "bank_to_json"): "the bank document as dicts, for pcsbench and the tests",
}


def _reads(node):
    """Names a statement reads: loaded or stored names, attributes, imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
    return out


def unread_definitions(sources):
    """(module, name) of each top-level def or class in sources (module -> text)
    that no other top-level statement of any module reads."""
    statements = [(module, node) for module, text in sources.items()
                  for node in ast.parse(text).body]
    reads = [_reads(node) for _, node in statements]
    return sorted((module, node.name) for i, (module, node) in enumerate(statements)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not any(node.name in r for j, r in enumerate(reads) if j != i))


def test_unread_definitions_are_found():
    sources = {"a": 'def used():\n    """Also names unused and Kept."""\n\n'
                    "def unused():\n    unused()\n\nclass Kept:\n    pass\n",
               "b": "from .a import used\nfrom . import a\nx = a.Kept\n"}
    assert unread_definitions(sources) == [("a", "unused")]


def test_package_has_no_unread_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == sorted(ENTRY_POINTS)
