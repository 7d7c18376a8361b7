"""Product-reach probe: the functions under ``src/`` that no product
entry point calls.

    PYTHONPATH=src python tests/reach_probe.py [--jobs N]

Each entry point in :data:`ENTRY_POINTS` (every ``python -m repro.bench``
target at ``--quick``, so the quick matrix and ``all --quick``, and
``scenarios --list``; ``python -m repro.grammar`` for the three
protocols and the projection ``docs/architecture.md`` shows;
``python -m repro.bench.registry_docs``; the nine examples) runs in a
child process under a ``sys.setprofile`` hook that records the code
object of every call.  The parent walks every ``def`` under ``src/`` and
prints how many were never called, then lists each one :data:`KEPT` does
not label, each label that no longer names an unreached function, and
each label of no known kind.  It exits 1 if it listed anything.

It takes about three minutes on two cores, so it is not a tier-1 test
(pytest collects only ``test_*.py``).  ``registry_docs`` rewrites
``docs/registries.md``, which is committed as that command writes it.
"""

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_TARGETS = ("ablations", "claims", "e1", "fig4", "fig5", "fig6", "fig7", "scenarios")
ENTRY_POINTS = (
    *(("-m", "repro.bench", target, "--quick") for target in BENCH_TARGETS),
    ("-m", "repro.bench", "scenarios", "--list"),
    *(("-m", "repro.grammar", protocol) for protocol in ("hadoop", "http", "memcached")),
    ("-m", "repro.grammar", "memcached", "--project", "opcode,key"),
    ("-m", "repro.bench.registry_docs"),
    *((str(path),) for path in sorted((ROOT / "examples").glob("*.py"))),
)

KINDS = ("error", "hook", "language", "benchmark")
TYPECHECK = "tests/test_typecheck.py::"
INTERPRETER = "tests/test_interpreter.py::"
#: Why each unreached function stays, keyed ``path under src/repro::
#: qualified name``, one of :data:`KINDS` first.  ``error``: an error or
#: off-nominal path (a typo, a bad spec, a close no pinned run makes),
#: with the test that reaches it.  ``hook``: a base definition every
#: registered implementation overrides, or the policy hook the scheduler
#: skips at its base definition.  ``language``: §4.3 surface no shipped
#: program uses, with the test that runs it on both executors.
#: ``benchmark``: named only by ``benchmarks/hosttime/``; it goes with
#: ROADMAP item 0.
KEPT = {
    "baselines/base.py::BaselineHttpServer._on_close":
        "error: tests/test_baselines_workloads.py::TestHttpBaselines::"
        "test_a_client_close_releases_its_connection",
    "baselines/base.py::BaselineHttpServer.request_overhead_us": "hook",
    "bench/testbeds.py::run_hadoop_experiment": "benchmark",
    "bench/testbeds.py::run_memcached_experiment": "benchmark",
    "cluster/fleet.py::_ProxiedConnection._client_closed":
        "error: tests/test_cluster.py::TestShardRouterMechanism::"
        "test_a_close_at_either_end_releases_the_pipe",
    "cluster/fleet.py::_ProxiedConnection._shard_closed":
        "error: tests/test_cluster.py::TestShardRouterMechanism::"
        "test_a_close_at_either_end_releases_the_pipe",
    "cluster/routing.py::RoutingPolicy.choose_shard": "hook",
    "core/errors.py::FlickSyntaxError.__init__":
        f"error: {TYPECHECK}TestRecords::test_anonymous_field_not_addressable",
    "core/errors.py::FlickTypeError.__init__":
        f"error: {TYPECHECK}TestDirectionSafety::test_read_only_channel_cannot_be_sink",
    "core/errors.py::SourceLocation.__str__":
        f"error: {TYPECHECK}TestDirectionSafety::test_read_only_channel_cannot_be_sink",
    "core/registry.py::Registry.closest":
        "error: tests/test_registry.py::TestSharedContract::test_separator_slips_match_exactly",
    "core/registry.py::Registry.unknown_message":
        "error: tests/test_registry.py::TestSharedContract::"
        "test_unknown_name_lists_registered_names_and_a_near_miss",
    "core/registry.py::_plural":
        "error: tests/test_registry.py::TestSharedContract::"
        "test_every_unknown_name_gets_its_own_near_miss",
    "core/registry.py::closest_name":
        "error: tests/test_registry.py::TestSharedContract::"
        "test_unknown_name_lists_registered_names_and_a_near_miss",
    "core/registry.py::did_you_mean":
        "error: tests/test_registry.py::TestSharedContract::"
        "test_unknown_name_lists_registered_names_and_a_near_miss",
    "grammar/codegen.py::_pack_checked":
        "error: tests/test_grammar.py::TestCodec::test_int_overflow_rejected",
    "grammar/codegen.py::_payload_bytes":
        "language: field assignment, re-encoded; tests/test_grammar.py::"
        "TestSpecialisation::test_specialised_mutation_roundtrip",
    "grammar/codegen.py::_span_bytes":
        "language: field assignment, re-encoded; tests/test_grammar_codegen.py::"
        "TestProtocols::test_memcached_serialize_clean_dirty_spliced",
    "grammar/engine.py::UnitCodec._complete":
        "error: tests/test_http_codec.py::TestSerialize::"
        "test_a_fieldless_record_without_raw_is_refused",
    "grammar/engine.py::UnitCodec.parse_all": "benchmark",
    "grammar/engine.py::UnitParser.pending_bytes": "benchmark: parse_all's check",
    "grammar/engine.py::UnitParser.poll": "hook: every codec generates its own",
    "grammar/engine.py::_BoundedParser._framed":
        "error: tests/test_grammar_codegen.py::TestErrors::"
        "test_max_bytes_bounds_the_frame_not_the_message",
    "grammar/protocols/http.py::serialize": "benchmark",
    "lang/builtins.py::_all_ready_impl": f"language: {INTERPRETER}TestBuiltins::test_all_ready",
    "lang/builtins.py::_min_max_rule.rule": f"language: {INTERPRETER}TestBuiltins::test_min_max",
    "lang/builtins.py::_to_int_impl": f"language: {INTERPRETER}TestBuiltins::test_to_int_to_str",
    "lang/builtins.py::_to_str_impl": f"language: {INTERPRETER}TestBuiltins::test_to_int_to_str",
    "lang/builtins.py::is_builtin":
        "error: tests/test_termination.py::TestRejection::test_fold_over_builtin_rejected",
    "lang/codegen.py::CompiledFoldTHandler.combine":
        "language: a foldt body in FLICK (the apps combine natively); "
        "tests/test_exec_tier.py::test_foldt_handler_parity",
    "lang/codegen.py::CompiledFoldTHandler.combine_with_ops": "benchmark",
    "lang/codegen.py::CompiledFoldTHandler.key":
        "language: a foldt body in FLICK (the apps combine natively); "
        "tests/test_exec_tier.py::test_foldt_handler_parity",
    "lang/codegen.py::_make_helpers._div":
        f"language: {INTERPRETER}TestArithmetic::test_integer_division",
    "lang/codegen.py::_make_helpers._fset":
        "language: tests/test_exec_tier.py::TestFuzzedPrograms::test_fuzzed_parity",
    "lang/codegen.py::_make_helpers._ho_filter": f"language: {INTERPRETER}TestHigherOrder::test_filter",
    "lang/codegen.py::_make_helpers._ho_fold": f"language: {INTERPRETER}TestHigherOrder::test_fold",
    "lang/codegen.py::_make_helpers._ho_map": f"language: {INTERPRETER}TestHigherOrder::test_map",
    **{
        f"lang/codegen.py::{name}":
            "error: tests/test_exec_tier.py::test_what_the_checker_refuses_fails_like_the_oracle"
        for name in (
            "_make_helpers._unbound", "_make_helpers._unbound_assign",
            "_make_helpers._unknown_fn", "_record_ctor.ctor",
        )
    },
    "lang/compiler.py::_no_such_tier": "benchmark",
    "lang/lexer.py::Lexer._skip_comment":
        "language: tests/test_lexer.py::TestIndentation::test_trailing_comment",
    "lang/parser.py::Parser._parse_if_continuation":
        "language: tests/test_parser.py::TestErrors::test_elif_supported",
    **{
        f"lang/typecheck.py::TypeChecker.{name}":
            f"language: {TYPECHECK}TestHigherOrder::test_fold_accepted"
        for name in ("_check_higher_order", "_require_list", "_require_signature")
    },
    "lang/types.py::Type.__str__": "hook",
    **{
        f"lang/types.py::{name}.__str__":
            f"error: {TYPECHECK}test_types_print_as_flick_spells_them"
        for name in (
            "AnyType", "BoolType", "ChannelEndType", "DictMapType", "FunType",
            "IntType", "ListSeqType", "RefCellType", "StringType", "UnitType",
        )
    },
    "lang/values.py::Record.__repr__":
        "error: tests/test_values_stats.py::TestRecord::test_repr_readable",
    "net/faults.py::FaultPolicy.params": "hook",
    "runtime/admission.py::AdmissionPolicy.admit": "hook",
    "runtime/allocator.py::AllocationPolicy.target_workers": "hook",
    "runtime/policy.py::SchedulingPolicy.__repr__":
        "error: tests/test_policy.py::TestPriorityPolicy::"
        "test_instance_shared_across_live_engines_rejected",
    "runtime/policy.py::SchedulingPolicy.next_local": "hook",
    "runtime/policy.py::SchedulingPolicy.on_task_done": "hook",
    "runtime/policy.py::SchedulingPolicy.steal_count": "hook",
    "runtime/policy.py::SchedulingPolicy.steps_per_decision": "hook",
    "runtime/qos.py::ServiceClassMap.__repr__":
        "error: tests/test_service_classes.py::TestOneSpelling::"
        "test_other_spellings_are_rejected_naming_the_spec_form",
    "runtime/scheduler.py::TaskBase.has_work": "hook",
    "runtime/scheduler.py::TaskBase.step": "hook",
    "runtime/task.py::_unwired": "hook: the wake of a channel no task reads",
    "sim/engine.py::Engine.pending":
        "error: tests/test_policy.py::TestPriorityPolicy::"
        "test_instance_shared_across_live_engines_rejected",
    "sim/stats.py::RunResult.extra": "benchmark",
    "workloads/arrivals.py::ArrivalProcess.describe": "hook",
    "workloads/arrivals.py::ArrivalProcess.gaps": "hook",
    "workloads/arrivals.py::RequestCodec.client_request": "hook",
    "workloads/arrivals.py::RequestCodec.is_error": "hook",
    "workloads/arrivals.py::RequestCodec.parser": "hook",
    "workloads/arrivals.py::RequestCodec.request_bytes": "hook",
}


def _child(out, argv):
    """Run one entry point under the hook; write the reached code
    locations under ``src/`` to ``out``."""
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    module = argv[0] == "-m"
    sys.argv = list(argv[module:])
    sys.setprofile(hook)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
    finally:
        sys.setprofile(None)
    src = str(SRC)
    Path(out).write_text(json.dumps(sorted(r for r in reached if r[0].startswith(src))))


def _functions():
    """``(path, first line) -> (key, lines)`` for every ``def`` under
    ``src/``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                key = f"{path.relative_to(SRC / 'repro')}::{name}"
                found[str(path), first] = (key, child.end_lineno - first + 1)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _run(index, argv, workdir):
    out = Path(workdir) / f"{index}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(out), *argv],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    if done.returncode:
        sys.exit(f"{' '.join(argv)} failed:\n{done.stderr}")
    return [tuple(r) for r in json.loads(out.read_text())]


def main():
    if sys.argv[1:2] == ["--child"]:
        return _child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        with ThreadPoolExecutor(args.jobs) as pool:
            runs = list(pool.map(
                lambda item: _run(*item, workdir), enumerate(ENTRY_POINTS)
            ))
    reached = set().union(*runs)
    functions = _functions()
    unreached = sorted(
        (key, lines) for where, (key, lines) in functions.items() if where not in reached
    )
    print(
        f"{len(unreached)} functions ({sum(n for _, n in unreached)} lines) "
        f"of {len(functions)} under src/ unreached; {len(KEPT)} labelled"
    )
    keys = {key for key, _ in unreached}
    listed = [f"unlabelled: {key} ({lines} lines)" for key, lines in unreached if key not in KEPT]
    listed += [f"stale label: {key}" for key in sorted(KEPT) if key not in keys]
    listed += [
        f"bad label: {key}" for key, label in sorted(KEPT.items())
        if label.split(":")[0] not in KINDS
    ]
    print("\n".join(listed))
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
