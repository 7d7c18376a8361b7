"""Parser unit tests over the paper's listings and the expression grammar."""

import pytest

from repro.core.errors import FlickSyntaxError
from repro.lang import ast
from repro.lang.parser import parse


def _named(decls, name):
    return next(decl for decl in decls if decl.name == name)

MEMCACHED_SHORT = """
type cmd: record
    key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
    | backends => client
    | client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
    let target = hash(req.key) mod len(backends)
    req => backends[target]
"""

MEMCACHED_FULL = """
type cmd: record
    opcode : integer {size=1}
    keylen : integer {signed=False, size=2}
    _ : string {size=3}
    key : string {size=keylen}

proc memcached:
    (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    backends => update_cache(cache) => client
    client => test_cache(client, backends, cache)

fun update_cache:
    (cache: ref dict<string*cmd>, resp: cmd)
    -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache:
    (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd)
    -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
"""

HADOOP = """
type kv: record
    key : string
    value : string

proc hadoop: ([kv/-] mappers, -/kv reducer)
    if all_ready(mappers):
        let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
            let v = combine(e1.value, e2.value)
            kv(e_key, v)
        result => reducer

fun combine: (v1: string, v2: string) -> (string)
    v1
"""


class TestListings:
    def test_memcached_short_parses(self):
        prog = parse(MEMCACHED_SHORT)
        assert len(prog.types) == 1
        assert len(prog.procs) == 1
        assert len(prog.funs) == 1

    def test_memcached_full_parses(self):
        prog = parse(MEMCACHED_FULL)
        assert _named(prog.procs, "memcached")
        assert _named(prog.funs, "update_cache")
        assert _named(prog.funs, "test_cache")

    def test_hadoop_parses(self):
        prog = parse(HADOOP)
        proc = _named(prog.procs, "hadoop")
        assert isinstance(proc.body[0], ast.IfStmt)

    def test_anonymous_fields(self):
        prog = parse(MEMCACHED_FULL)
        fields = _named(prog.types, "cmd").fields
        assert fields[2].name is None
        assert fields[3].name == "key"

    def test_field_attrs_are_expressions(self):
        prog = parse(MEMCACHED_FULL)
        key_field = _named(prog.types, "cmd").fields[3]
        attrs = dict(key_field.attrs)
        assert isinstance(attrs["size"], ast.Var)
        assert attrs["size"].name == "keylen"


class TestProcesses:
    def test_channel_param_directions(self):
        prog = parse(MEMCACHED_SHORT)
        params = _named(prog.procs, "Memcached").params
        client = params[0].type
        assert isinstance(client, ast.ChannelType)
        assert not client.is_array
        backends = params[1].type
        assert backends.is_array

    def test_write_only_channel(self):
        prog = parse(HADOOP)
        reducer = _named(prog.procs, "hadoop").params[1].type
        assert reducer.read is None
        assert reducer.write == ast.NamedType("kv")

    def test_read_only_channel_array(self):
        prog = parse(HADOOP)
        mappers = _named(prog.procs, "hadoop").params[0].type
        assert mappers.read == ast.NamedType("kv")
        assert mappers.write is None

    def test_pipeline_stages(self):
        prog = parse(MEMCACHED_SHORT)
        body = _named(prog.procs, "Memcached").body
        forward = body[0]
        assert isinstance(forward, ast.PipelineStmt)
        assert forward.stages[0].expr == ast.Var(
            "backends", forward.stages[0].expr.location
        )
        routed = body[1]
        assert routed.stages[1].func == "target_backend"

    def test_global_declaration(self):
        prog = parse(MEMCACHED_FULL)
        body = _named(prog.procs, "memcached").body
        assert isinstance(body[0], ast.GlobalDecl)
        assert body[0].name == "cache"

    def test_foldt_structure(self):
        prog = parse(HADOOP)
        if_stmt = _named(prog.procs, "hadoop").body[0]
        let = if_stmt.then_body[0]
        assert isinstance(let.value, ast.FoldTExpr)
        assert let.value.elem_var == "elem"
        assert let.value.left_var == "e1"
        assert let.value.right_var == "e2"
        assert let.value.key_alias == "e_key"


class TestExpressions:
    def _expr(self, text):
        prog = parse(
            f"fun f: (x: integer) -> (integer)\n    {text}\n"
        )
        stmt = _named(prog.funs, "f").body[-1]
        return stmt.expr if isinstance(stmt, ast.ExprStmt) else stmt

    def test_precedence_mod_binds_tighter_than_comparison(self):
        e = self._expr("x mod 2 = 0")
        assert isinstance(e, ast.BinOp) and e.op == "="
        assert e.left.op == "mod"

    def test_precedence_mul_over_add(self):
        e = self._expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_parens_override(self):
        e = self._expr("(1 + 2) * 3")
        assert e.op == "*"

    def test_and_or_precedence(self):
        e = self._expr("True or False and True")
        assert e.op == "or"
        assert e.right.op == "and"

    def test_unary_not(self):
        e = self._expr("not True")
        assert isinstance(e, ast.UnaryOp) and e.op == "not"

    def test_unary_minus(self):
        e = self._expr("-x")
        assert isinstance(e, ast.UnaryOp) and e.op == "-"

    def test_field_and_index_chaining(self):
        e = self._expr("a.b[0].c")
        assert isinstance(e, ast.FieldAccess)
        assert e.field == "c"
        assert isinstance(e.obj, ast.Index)

    def test_double_equals_normalised(self):
        e = self._expr("x == 1")
        assert e.op == "="

    def test_call_with_args(self):
        e = self._expr("f2(x, 1)")
        assert isinstance(e, ast.Call)
        assert len(e.args) == 2

    def test_none_literal(self):
        e = self._expr("None")
        assert isinstance(e, ast.NoneLit)


class TestErrors:
    def test_missing_colon(self):
        with pytest.raises(FlickSyntaxError):
            parse("proc P (cmd/cmd c)\n    c => c\n")

    def test_stray_token_at_top_level(self):
        with pytest.raises(FlickSyntaxError):
            parse("42\n")

    def test_empty_record(self):
        with pytest.raises(FlickSyntaxError):
            parse("type t: record\nproc P: (t/t c)\n    c => c\n")

    def test_unclosed_paren(self):
        with pytest.raises(FlickSyntaxError):
            parse("fun f: (x: integer -> (integer)\n    x\n")

    def test_elif_supported(self):
        prog = parse(
            "fun f: (x: integer) -> (integer)\n"
            "    if x = 1:\n        1\n"
            "    elif x = 2:\n        2\n"
            "    else:\n        3\n"
        )
        top = _named(prog.funs, "f").body[0]
        assert isinstance(top.else_body[0], ast.IfStmt)
