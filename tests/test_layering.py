"""Layering: the substrate packages never import the layers above them.

``repro.core``, ``repro.sim`` and ``repro.net`` sit under the runtime,
the cluster tier, the workloads and the bench harness (see the layer map
in ``docs/architecture.md``).  ``net/faults.py`` once reached *up* into
``repro.runtime.qos`` for the near-miss matcher; that helper now lives in
``repro.core.registry``, and this test keeps the inversion from coming
back.  It walks the AST, so an import hidden inside a function counts.

The simulator is also pure standard library at run time, and a run
imports only what it uses: ``numpy`` would cost every run ~0.1 s of
set-up and ~13 MiB of resident memory, ``hashlib`` loads OpenSSL
(``_hashlib``, ~3.4 MiB) although only a fleet's hash ring needs it, and
``difflib`` serves only the near-miss hint of a mistyped name.  The
ledger's ``setup_s`` and ``peak_rss_mb`` would carry each of them.  A
fresh interpreter checks that none is loaded after importing the
testbeds and after a quick run of each app, and that a two-shard run
still imports ``hashlib`` for its ring.

And there is one way to run a handler: generated code.  The reference
interpreter lives test-side (``tests/lang_oracle.py``), nothing under
``src/`` reaches for it or any other oracle, and no layer carries an
option that could select it.  Likewise the grammar's tree-walking
expression evaluator, ``eval_expr``, lives with its oracle.
"""

import ast
import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("core", "sim", "net")
UPPER = ("repro.runtime", "repro.cluster", "repro.workloads", "repro.bench")


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("package", LOWER)
def test_lower_layers_do_not_import_upper_layers(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files, f"no sources found under {SRC / package}"
    offenders = [
        f"{path.relative_to(SRC)} imports {module}"
        for path in files
        for module in _imported_modules(path)
        if module.startswith(UPPER)
    ]
    assert not offenders, "upward imports: " + "; ".join(offenders)


#: Modules no single-platform run uses; each costs resident memory.
UNUSED_AT_RUN_TIME = ("numpy", "_hashlib", "ssl", "difflib")

_RUN_PROBE = f"""
import sys
from repro.bench.testbeds import Scenario, run_experiment

def loaded(when):
    found = [name for name in {UNUSED_AT_RUN_TIME!r} if name in sys.modules]
    if found:
        sys.exit(f"{{when}}: {{', '.join(found)}} imported")

loaded("after the import")
run_experiment(Scenario(app="memcached_proxy", concurrency=4, total_requests=64))
run_experiment(Scenario(app="http_lb", concurrency=4, total_requests=64))
run_experiment(Scenario(app="hadoop_agg", n_mappers=2, data_kb_per_mapper=4))
loaded("after a run of each app")
fleet = run_experiment(
    Scenario(app="http_lb", concurrency=4, total_requests=64, shards=2)
)
assert fleet.entry["cluster"]["shards"] == 2, fleet.entry["cluster"]
assert "hashlib" in sys.modules, "the two-shard run built no ring"
"""


def test_a_run_imports_only_what_it_uses():
    # A fresh interpreter: this one may have numpy loaded already
    # (hypothesis imports it when it is installed).
    done = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_the_interpreter_is_not_in_the_product():
    assert importlib.util.find_spec("repro.lang.interpreter") is None
    offenders = [
        f"{path.relative_to(SRC)} imports {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[0] == "tests" or "oracle" in module
    ]
    assert not offenders, "test-side imports: " + "; ".join(offenders)


def test_the_grammar_expression_evaluator_is_test_side():
    # Generated codecs inline length expressions as arithmetic; the
    # tree-walking evaluator belongs to the oracle that still walks them.
    import repro.grammar

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "attr", None)
            if name == "eval_expr" or getattr(node, "id", None) == "eval_expr":
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, "eval_expr under src/: " + "; ".join(offenders)
    assert "eval_expr" not in repro.grammar.__all__
    from tests.grammar_oracle import eval_expr

    assert callable(eval_expr)


def test_no_layer_has_an_exec_tier_option():
    from repro.bench.scenarios import run_scenario, run_scenario_matrix
    from repro.bench.testbeds import (
        Scenario,
        run_hadoop_experiment,
        run_http_experiment,
        run_memcached_experiment,
    )
    from repro.runtime.costs import RuntimeConfig

    names = {field.name for field in dataclasses.fields(RuntimeConfig)}
    names.update(Scenario._fields)
    for function in (
        run_http_experiment,
        run_memcached_experiment,
        run_hadoop_experiment,
        run_scenario,
        run_scenario_matrix,
    ):
        names.update(inspect.signature(function).parameters)
    assert "exec_tier" not in names
