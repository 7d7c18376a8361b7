"""No process-global counters: every id a run uses is numbered by that run.

Task ids drive hash placement, so an id counter that outlives a run makes
the run's results depend on what ran before it in the process.  The run's
``Engine`` owns its task-id and graph-id counters; this test keeps a
counter from coming back as a module global or a class attribute.  It
walks the AST of ``src/repro``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_counter(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):  # itertools.count(...)
        module = getattr(func.value, "id", None)
        return module == "itertools" and func.attr == "count"
    name = getattr(func, "id", None)
    return name == "count" or name == "iter" and any(
        isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "range"
        for arg in node.args
    )


def _shared_assignments(body):
    """Assignments that run once per module or class, not per instance."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _shared_assignments(node.body)


def test_no_module_or_class_attribute_holds_a_counter():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _shared_assignments(
            ast.parse(path.read_text(encoding="utf-8")).body
        )
        if any(_is_counter(sub) for sub in ast.walk(node.value))
    ]
    assert not offenders, "process-global counters: " + "; ".join(offenders)
