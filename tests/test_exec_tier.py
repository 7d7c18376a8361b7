"""Differential harness: generated handler code vs the interpreter.

The interpreter in ``tests/lang_oracle.py`` is the semantic **oracle**;
``repro.lang.codegen`` — the only executor under ``src/`` — must be
observationally indistinguishable from it: identical values, identical
side effects (sends, dict/record mutation) and **bit-identical op
counts**, so virtual-time charging cannot depend on how a body executes.
This file holds the product to that contract at every level:

* every user function of every FLICK program in the corpus (the three
  apps, the inline example programs, the parser round-trip sources),
  called with type-directed synthesized arguments;
* global initialisers (``eval_const``);
* rule handlers driven message-by-message with stub channels;
* foldt key/combine handlers, including the k-way merge reference;
* hypothesis-fuzzed programs generated type-correct by construction;
* end to end through :class:`FlickPlatform` with the oracle patched in
  behind ``CompiledProgram.executor()``: full experiment runs must
  produce identical ``RunResult``s and scoreboards, and the whole quick
  scenario matrix the committed baseline, byte for byte.
"""

import dataclasses
import importlib.util
import itertools
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hadoop_agg import HADOOP_SOURCE
from repro.apps.http_lb import HTTP_LB_SOURCE, STATIC_WEB_SOURCE
from repro.apps.memcached_proxy import CACHE_ROUTER_SOURCE, PROXY_SOURCE
from repro.core.errors import FlickError, RuntimeFlickError
from repro.lang import types as ty
from repro.lang.codegen import CompiledExec
from repro.lang.compiler import (
    build_foldt_handler,
    build_rule_handler,
    compile_source,
)
from repro.lang.parser import parse
from repro.lang.values import Record
from tests.lang_oracle import EXECUTORS, Interpreter, oracle_for, under_oracle
from tests.test_parser import HADOOP, MEMCACHED_FULL, MEMCACHED_SHORT

# ---------------------------------------------------------------------------
# Source corpus
# ---------------------------------------------------------------------------

_EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _example_sources():
    """Every inline FLICK program defined by the examples."""
    sources = {}
    for path in sorted(_EXAMPLES_DIR.glob("*.py")):
        spec = importlib.util.spec_from_file_location(
            f"_example_{path.stem}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for attr, value in vars(module).items():
            if isinstance(value, str) and "proc " in value and "=>" in value:
                sources[f"example:{path.stem}:{attr}"] = value
    return sources


ALL_SOURCES = {
    "app:http_lb": HTTP_LB_SOURCE,
    "app:static_web": STATIC_WEB_SOURCE,
    "app:memcached_proxy": PROXY_SOURCE,
    "app:cache_router": CACHE_ROUTER_SOURCE,
    "app:hadoop": HADOOP_SOURCE,
    "parser:memcached_short": MEMCACHED_SHORT,
    "parser:memcached_full": MEMCACHED_FULL,
    "parser:hadoop": HADOOP,
}
ALL_SOURCES.update(_example_sources())


# ---------------------------------------------------------------------------
# Value synthesis and state snapshots
# ---------------------------------------------------------------------------


class _StubChannel:
    """List-backed channel stub (the interpreter's documented contract)."""

    def __init__(self):
        self.sent = []

    def send(self, value):
        self.sent.append(value)


def _synth(t, counter, depth=0):
    """A deterministic value of type ``t``; same counter → same value."""
    t = ty.strip_ref(t)
    if isinstance(t, ty.IntType):
        return next(counter) % 13
    if isinstance(t, ty.StringType):
        return f"k{next(counter) % 5}"
    if isinstance(t, ty.BoolType):
        return next(counter) % 2 == 0
    if isinstance(t, ty.RecordType):
        return Record(
            t.name,
            {name: _synth(ft, counter, depth + 1) for name, ft in t.fields},
        )
    if isinstance(t, ty.DictMapType):
        if depth > 2:
            return {}
        return {
            _synth(t.key, counter, depth + 1): _synth(
                t.value, counter, depth + 1
            )
            for _ in range(2)
        }
    if isinstance(t, ty.ListSeqType):
        return [_synth(t.element, counter, depth + 1) for _ in range(3)]
    if isinstance(t, ty.ChannelEndType):
        if t.is_array:
            return [_StubChannel() for _ in range(3)]
        return _StubChannel()
    if isinstance(t, ty.UnitType):
        return None
    return next(counter)  # AnyType


def _snap(value):
    """Deep, comparison-friendly snapshot of a runtime value."""
    if isinstance(value, Record):
        return (
            "record",
            value.type_name,
            tuple((k, _snap(v)) for k, v in value._fields.items()),
            value.dirty,
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((k, _snap(v)) for k, v in value.items()),
                    key=lambda kv: repr(kv[0]),
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("list", tuple(_snap(v) for v in value))
    if isinstance(value, _StubChannel):
        return ("chan", tuple(_snap(v) for v in value.sent))
    return value


# ---------------------------------------------------------------------------
# Function-level parity over the whole corpus
# ---------------------------------------------------------------------------


def _run_function(program, side, fname):
    executor = EXECUTORS[side](program)
    ftype = program.checked.functions[fname]
    counter = itertools.count(1)
    args = [_synth(param, counter) for param in ftype.params]
    executor.reset_ops()
    result, error = None, None
    try:
        result = executor.call_function(fname, args)
    except Exception as exc:  # both sides must fail identically
        error = f"{type(exc).__name__}: {exc}"
    ops = executor.reset_ops()
    return {
        "result": _snap(result),
        "error": error,
        # Op batching only guarantees parity for completed runs.
        "ops": ops if error is None else None,
        "args": [_snap(arg) for arg in args],
    }


@pytest.mark.parametrize("name", sorted(ALL_SOURCES))
def test_function_value_and_op_parity(name):
    program = compile_source(ALL_SOURCES[name])
    for fname in sorted(program.checked.functions):
        oracle = _run_function(program, "oracle", fname)
        generated = _run_function(program, "generated", fname)
        assert generated == oracle, f"{name}:{fname} diverged"


@pytest.mark.parametrize("name", sorted(ALL_SOURCES))
def test_global_initialiser_parity(name):
    program = compile_source(ALL_SOURCES[name])
    for spec in program.procs.values():
        for gname, init in spec.globals:
            results = {}
            for side, executor_of in EXECUTORS.items():
                executor = executor_of(program)
                executor.reset_ops()
                value = executor.eval_const(init)
                results[side] = (_snap(value), executor.reset_ops())
            assert results["generated"] == results["oracle"], gname


# ---------------------------------------------------------------------------
# Handler-level parity (rule handlers with stub contexts)
# ---------------------------------------------------------------------------


def _drive_rules(program, side):
    """Run every rule of every proc over stub channels; trace everything."""
    trace = []
    executor = EXECUTORS[side](program)
    checked = program.checked
    for pname in sorted(program.procs):
        spec = program.procs[pname]
        context = {}
        for param_name, ptype in checked.proc_params[pname]:
            stripped = ty.strip_ref(ptype)
            if isinstance(stripped, ty.ChannelEndType):
                context[param_name] = (
                    [_StubChannel() for _ in range(3)]
                    if stripped.is_array
                    else _StubChannel()
                )
            else:
                context[param_name] = _synth(ptype, itertools.count(1))
        for gname, init in spec.globals:
            context[gname] = executor.eval_const(init)
        executor.reset_ops()
        for rule in spec.rules:
            read_type = spec.endpoint(rule.source).read_type
            record_type = (
                checked.records.get(read_type) if read_type else None
            )
            if record_type is None:
                continue
            handler = executor.rule_handler(rule, dict(context))
            counter = itertools.count(3)
            for _ in range(4):
                message = _synth(record_type, counter)
                ops = handler(message)
                trace.append(("ops", pname, rule.source, ops))
        trace.append(("context", pname, _snap(context)))
    return trace


@pytest.mark.parametrize("name", sorted(ALL_SOURCES))
def test_rule_handler_parity(name):
    program = compile_source(ALL_SOURCES[name])
    assert _drive_rules(program, "generated") == _drive_rules(
        program, "oracle"
    ), name


def test_build_handlers_take_only_the_compiled_tier():
    """The trailing ``tier`` argument survives for the host-time probes,
    which pass ``"compiled"`` positionally; nothing else is accepted."""
    program = compile_source(HADOOP_SOURCE)
    plan = program.procs["hadoop"].foldt
    assert build_foldt_handler(program, plan, "compiled").key(
        _kv("a", 1)
    ) == "a"
    router = compile_source(CACHE_ROUTER_SOURCE)
    rule = router.procs["memcached"].rules[0]
    context = {"client": _StubChannel(), "cache": {}, "backends": []}
    message = Record("cmd", {"opcode": 0x0C, "key": "k1"})
    assert build_rule_handler(router, rule, context, "compiled")(message) > 0
    assert context["client"].sent == [message]
    for tier in ("interp", "bogus"):
        with pytest.raises(FlickError, match="tests/lang_oracle.py"):
            build_rule_handler(router, rule, context, tier)
        with pytest.raises(FlickError, match="tests/lang_oracle.py"):
            build_foldt_handler(program, plan, tier)


# ---------------------------------------------------------------------------
# foldt parity (key, combine, combine_with_ops, k-way merge)
# ---------------------------------------------------------------------------


def _kv(key, value):
    return Record("kv", {"key": key, "value": str(value)})


def test_foldt_handler_parity():
    program = compile_source(HADOOP_SOURCE)
    plan = program.procs["hadoop"].foldt
    interp_handler = oracle_for(program).foldt_handler(plan)
    compiled_handler = build_foldt_handler(program, plan)
    records = [_kv(k, n) for k, n in
               [("alpha", 3), ("beta", 11), ("beta", 4), ("gamma", 9)]]
    for record in records:
        assert compiled_handler.key(record) == interp_handler.key(record)
    for left, right in itertools.permutations(records, 2):
        merged_i, ops_i = interp_handler.combine_with_ops(left, right)
        merged_c, ops_c = compiled_handler.combine_with_ops(left, right)
        assert (_snap(merged_c), ops_c) == (_snap(merged_i), ops_i)


def test_foldt_merge_matches_reference():
    """The generated handler, driven by the reference merge algorithm,
    reproduces ``Interpreter.merge_sorted_streams`` exactly."""
    program = compile_source(HADOOP_SOURCE)
    plan = program.procs["hadoop"].foldt
    handler = build_foldt_handler(program, plan)
    streams = [
        [_kv("a", 1), _kv("b", 2), _kv("d", 7)],
        [_kv("b", 5), _kv("c", 3)],
        [_kv("a", 9), _kv("c", 1), _kv("d", 2)],
    ]
    reference = oracle_for(program).merge_sorted_streams(plan.expr, streams)
    merged = sorted(
        (record for stream in streams for record in stream),
        key=handler.key,
    )
    out = []
    for element in merged:
        if out and handler.key(out[-1]) == handler.key(element):
            out[-1] = handler.combine(out[-1], element)
        else:
            out.append(element)
    assert [_snap(r) for r in out] == [_snap(r) for r in reference]


# ---------------------------------------------------------------------------
# Fuzzed programs: type-correct by construction
# ---------------------------------------------------------------------------

_PRELUDE = (
    "type rec: record\n"
    "    n : integer\n"
    "    t : string\n"
    "\n"
    "fun add2: (acc: integer, x: integer) -> (integer)\n"
    "    acc + x\n"
    "\n"
    "fun inc: (x: integer) -> (integer)\n"
    "    x + 1\n"
    "\n"
    "fun pos: (x: integer) -> (boolean)\n"
    "    x > 0\n"
    "\n"
    "fun main: (a: integer, b: integer, s: string, r: rec, "
    "d: dict<string*integer>, xs: list<integer>) -> (integer)\n"
)


def _gen_str(draw, depth):
    kind = draw(st.sampled_from(
        ["s", "rt", "lit", "concat", "to_str"] if depth > 0
        else ["s", "rt", "lit"]
    ))
    if kind == "s":
        return "s"
    if kind == "rt":
        return "r.t"
    if kind == "lit":
        return f'"w{draw(st.integers(0, 4))}"'
    if kind == "concat":
        return (
            f"concat({_gen_str(draw, depth - 1)}, "
            f"{_gen_str(draw, depth - 1)})"
        )
    return f"to_str({_gen_int(draw, [], depth - 1)})"


def _gen_int(draw, variables, depth):
    options = ["lit", "a", "b", "rn"]
    if variables:
        options.append("var")
    if depth > 0:
        options += ["arith", "div", "mod", "hash", "len", "fold", "to_int"]
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return str(draw(st.integers(0, 50)))
    if kind == "a":
        return "a"
    if kind == "b":
        return "b"
    if kind == "rn":
        return "r.n"
    if kind == "var":
        return draw(st.sampled_from(variables))
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        return (
            f"({_gen_int(draw, variables, depth - 1)} {op} "
            f"{_gen_int(draw, variables, depth - 1)})"
        )
    if kind == "div":
        return (
            f"({_gen_int(draw, variables, depth - 1)} / "
            f"{draw(st.sampled_from(['2', '3', '7']))})"
        )
    if kind == "mod":
        return (
            f"({_gen_int(draw, variables, depth - 1)} mod "
            f"{draw(st.sampled_from(['2', '5', '11']))})"
        )
    if kind == "hash":
        return f"hash({_gen_str(draw, depth - 1)})"
    if kind == "len":
        return "len(s)"
    if kind == "to_int":
        return f"to_int(to_str({_gen_int(draw, variables, depth - 1)}))"
    # fold over the list parameter, optionally through map/filter
    seq = draw(st.sampled_from(["xs", "map(inc, xs)", "filter(pos, xs)"]))
    return f"fold(add2, {_gen_int(draw, variables, depth - 1)}, {seq})"


def _gen_bool(draw, variables, depth):
    options = ["cmp", "streq", "dictnone"]
    if depth > 0:
        options += ["and", "or", "not"]
    kind = draw(st.sampled_from(options))
    if kind == "cmp":
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "=", "<>"]))
        return (
            f"({_gen_int(draw, variables, depth - 1)} {op} "
            f"{_gen_int(draw, variables, depth - 1)})"
        )
    if kind == "streq":
        op = draw(st.sampled_from(["=", "<>"]))
        return f"({_gen_str(draw, depth - 1)} {op} {_gen_str(draw, depth - 1)})"
    if kind == "dictnone":
        return f"(d[{_gen_str(draw, depth - 1)}] = None)"
    if kind in ("and", "or"):
        return (
            f"({_gen_bool(draw, variables, depth - 1)} {kind} "
            f"{_gen_bool(draw, variables, depth - 1)})"
        )
    return f"not {_gen_bool(draw, variables, depth - 1)}"


def _gen_stmts(draw, variables, counter, depth, indent):
    """Generate 1-3 statements; mutates ``variables`` with new lets."""
    pad = "    " * indent
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        options = ["let", "dictset", "fieldset"]
        if variables:
            options.append("assign")
        if depth > 0:
            options.append("if")
        kind = draw(st.sampled_from(options))
        if kind == "let":
            # Occasionally reuse a live name inside branches to exercise
            # shadowing through the codegen scope chain.
            if variables and indent > 1 and draw(st.booleans()):
                name = draw(st.sampled_from(variables))
            else:
                name = f"x{next(counter)}"
            lines.append(
                f"{pad}let {name} = {_gen_int(draw, variables, depth)}"
            )
            if name not in variables:
                variables.append(name)
        elif kind == "assign":
            name = draw(st.sampled_from(variables))
            lines.append(
                f"{pad}{name} := {_gen_int(draw, variables, depth)}"
            )
        elif kind == "dictset":
            lines.append(
                f"{pad}d[{_gen_str(draw, depth)}] := "
                f"{_gen_int(draw, variables, depth)}"
            )
        elif kind == "fieldset":
            if draw(st.booleans()):
                lines.append(f"{pad}r.t := {_gen_str(draw, depth)}")
            else:
                lines.append(
                    f"{pad}r.n := {_gen_int(draw, variables, depth)}"
                )
        else:  # if
            lines.append(
                f"{pad}if {_gen_bool(draw, variables, depth - 1)}:"
            )
            lines.extend(
                _gen_stmts(
                    draw, list(variables), counter, depth - 1, indent + 1
                )
            )
            if draw(st.booleans()):
                lines.append(f"{pad}else:")
                lines.extend(
                    _gen_stmts(
                        draw, list(variables), counter, depth - 1, indent + 1
                    )
                )
    return lines


def _gen_source(draw):
    variables = []
    counter = itertools.count()
    body = _gen_stmts(draw, variables, counter, depth=2, indent=1)
    body.append(f"    {_gen_int(draw, variables, 2)}")
    return _PRELUDE + "\n".join(body) + "\n"


class TestFuzzedPrograms:
    @settings(max_examples=80, deadline=None)
    @given(
        st.data(),
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.text(string.ascii_lowercase, max_size=6),
        st.integers(-20, 20),
        st.text(string.ascii_lowercase, max_size=4),
        st.dictionaries(
            st.text(string.ascii_lowercase, max_size=3),
            st.integers(0, 20),
            max_size=3,
        ),
        st.lists(st.integers(-9, 9), max_size=5),
    )
    def test_fuzzed_parity(self, data, a, b, s, rn, rt, d_items, xs):
        source = _gen_source(data.draw)
        program = compile_source(source)

        def call(side):
            executor = EXECUTORS[side](program)
            record = Record("rec", {"n": rn, "t": rt})
            mapping = dict(d_items)
            executor.reset_ops()
            result, error = None, None
            try:
                result = executor.call_function(
                    "main", (a, b, s, record, mapping, list(xs))
                )
            except Exception as exc:  # both sides must fail identically
                error = f"{type(exc).__name__}: {exc}"
            ops = executor.reset_ops()
            return (
                _snap(result),
                error,
                ops if error is None else None,
                _snap(record),
                _snap(mapping),
            )

        assert call("generated") == call("oracle"), source


# ---------------------------------------------------------------------------
# End-to-end: identical RunResults and scoreboards through FlickPlatform
# ---------------------------------------------------------------------------


def _result_snap(result):
    return (
        result.system,
        result.x,
        result.throughput,
        result.latency_ms,
        result.entry,
    )


class TestEndToEndParity:
    def test_http_lb_run_identical(self):
        from repro.bench.testbeds import run_http_experiment

        def run():
            return _result_snap(
                run_http_experiment(
                    "flick-kernel",
                    16,
                    mode="lb",
                    cores=4,
                    requests_per_client=6,
                    slo_us=5000.0,
                )
            )

        assert run() == under_oracle(run)

    def test_cache_router_run_identical(self):
        from repro.bench.testbeds import run_memcached_experiment

        def run():
            return _result_snap(
                run_memcached_experiment(
                    "flick-kernel",
                    4,
                    concurrency=16,
                    requests_per_client=5,
                    cache_router=True,
                    key_space=32,
                    slo_us=5000.0,
                )
            )

        assert run() == under_oracle(run)

    def test_hadoop_interpreted_foldt_run_identical(self):
        """End-to-end foldt through the merge tree (native combine off,
        so the foldt handlers actually execute)."""
        from repro.apps import hadoop_agg
        from repro.core.units import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform
        from repro.sim.engine import Engine
        from repro.workloads.hadoop_mappers import (
            Mapper,
            ReducerSink,
            generate_mapper_output,
            reference_wordcount,
        )

        def run():
            engine = Engine()
            net = TcpNetwork(engine)
            mbox = net.add_host("mbox", 10 * GBPS, "core")
            reducer = net.add_host("reducer", 10 * GBPS, "core")
            n_mappers = 4
            mhosts = [
                net.add_host(f"m{i}", 1 * GBPS, "edge")
                for i in range(n_mappers)
            ]
            sink = ReducerSink(engine, net, reducer, 9000)
            platform = FlickPlatform(
                engine,
                net,
                mbox,
                RuntimeConfig(cores=4),
                hadoop_agg.hadoop_codec_registry(),
            )
            platform.register_program(
                hadoop_agg.compile_hadoop(),
                "hadoop",
                9100,
                hadoop_agg.hadoop_bindings(
                    reducer, 9000, n_mappers, native=False
                ),
            )
            platform.start()
            outputs = [
                generate_mapper_output(i, 8 * 1024, 8, vocabulary=64)
                for i in range(n_mappers)
            ]
            mappers = [
                Mapper(engine, net, host, mbox, 9100, out)
                for host, out in zip(mhosts, outputs)
            ]
            for mapper in mappers:
                mapper.start()
            final_time = engine.run()
            return sink.pairs, sink.counts(), final_time, outputs

        pairs_i, counts_i, time_i, outputs = under_oracle(run)
        pairs_c, counts_c, time_c, _ = run()
        assert pairs_c == pairs_i
        assert counts_c == counts_i == reference_wordcount(outputs)
        assert time_c == time_i

    def test_under_oracle_really_runs_the_oracle(self):
        """The patch is live inside, gone outside (or every comparison
        above would be the product against itself)."""
        program = compile_source(HADOOP_SOURCE)
        assert under_oracle(lambda: program.executor()) is oracle_for(program)
        assert isinstance(program.executor(), CompiledExec)

    def test_quick_matrix_under_oracle_is_the_committed_baseline(self, tmp_path):
        """The whole quick scenario matrix, in-process on the oracle,
        byte-identical to the committed (product-generated) baseline."""
        from repro.bench import results as results_io
        from repro.bench.scenarios import SCENARIOS, run_scenario_matrix

        baseline = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baseline_scenarios.json"
        )
        results = under_oracle(
            lambda: run_scenario_matrix(SCENARIOS, quick=True, jobs=1)
        )
        written = results_io.write_results(
            tmp_path / "oracle.json",
            results_io.results_document(results, quick=True),
        )
        assert written.read_bytes() == baseline.read_bytes()


@pytest.mark.parametrize("body", [
    "    missing + x",
    "    missing := x\n    x",
    "    nowhere(x)",
    "    kv(x, x)",
    "    let r = kv(x)\n    r.z := x\n    x",
], ids=[
    "unbound-name", "unbound-assign", "unknown-function", "constructor-arity",
    "new-field",
])
def test_what_the_checker_refuses_fails_like_the_oracle(body):
    """Generated code keeps runtime checks for what the typechecker
    refuses (an unbound name, an unknown function, a constructor of the
    wrong arity, a field a record lacks); reached unchecked, each fails
    as the oracle does."""
    head = "type kv: record\n    k : integer\n\nfun f: (x: integer) -> (integer)\n"
    checked = compile_source(head + "    x\n").checked
    unchecked = dataclasses.replace(checked, program=parse(head + body + "\n"))
    errors = []
    for call in (
        lambda: CompiledExec(unchecked).function("f")(1),
        lambda: Interpreter(unchecked).call_function("f", (1,)),
    ):
        with pytest.raises(RuntimeFlickError) as caught:
            call()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
