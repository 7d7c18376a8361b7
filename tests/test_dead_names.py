"""No dead names: every function and class under ``src/`` is named
somewhere besides its own definition.

A name that occurs exactly once across ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` — at its ``def`` or ``class`` — is code
nothing calls, and it goes.  Identifiers are counted as tokens of the
whole text, so a name used only in generated source, an f-string or a
``getattr`` string still counts as used.  Dunder methods are exempt
(Python calls them), and so are decorated classes: registry entries are
reached through their decorator, by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dead_names(root=ROOT):
    uses = Counter()
    for tree in TREES:
        for path in (root / tree).rglob("*.py"):
            uses.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, DEFINITIONS) or uses[node.name] != 1:
                continue
            if isinstance(node, ast.ClassDef) and node.decorator_list:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            dead.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return dead


def test_every_function_and_class_under_src_is_referenced():
    dead = _dead_names()
    assert not dead, "defined and referenced nowhere: " + "; ".join(dead)


def _tree(tmp_path, src, tests=""):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(src, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(tests, encoding="utf-8")
    return tmp_path


def test_a_name_defined_once_is_flagged_with_its_line(tmp_path):
    root = _tree(
        tmp_path,
        "def used():\n    pass\n\n\n"
        "def orphan():\n    pass\n\n\n"
        "class Lonely:\n    def forgotten(self):\n        return used()\n",
    )
    assert _dead_names(root) == [
        "src/mod.py:5 orphan",
        "src/mod.py:9 Lonely",
        "src/mod.py:10 forgotten",
    ]


def test_a_use_in_another_tree_or_a_string_counts(tmp_path):
    root = _tree(
        tmp_path,
        "def by_test():\n    pass\n\n\n"
        "def by_getattr():\n    pass\n\n\n"
        "HOOK = getattr(object(), 'by_getattr', None)\n",
        tests="from mod import by_test\n",
    )
    assert _dead_names(root) == []


def test_decorated_classes_and_dunders_are_exempt(tmp_path):
    root = _tree(
        tmp_path,
        "def register(cls):\n    return cls\n\n\n"
        "@register\n"
        "class Entry:\n    def __repr__(self):\n        return 'entry'\n\n\n"
        "@staticmethod\n"
        "def decorated_function():\n    pass\n",
    )
    # Only classes are reached through their decorator; a decorated
    # function still needs a caller.
    assert _dead_names(root) == ["src/mod.py:12 decorated_function"]
