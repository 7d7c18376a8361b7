"""Language-semantics tests: expression semantics, builtins, side effects.

Every test runs twice: on the product (the generated code behind
``CompiledProgram.executor()``) and on the reference interpreter in
``tests/lang_oracle.py``.
"""

import pytest

from repro.core.errors import RuntimeFlickError
from repro.lang.compiler import compile_source
from repro.lang.values import Record
from tests.lang_oracle import EXECUTORS

_executor_of = None  # set per test by the fixture below


@pytest.fixture(autouse=True, params=sorted(EXECUTORS))
def _executor(request, monkeypatch):
    monkeypatch.setitem(globals(), "_executor_of", EXECUTORS[request.param])


def interp_for(src):
    return _executor_of(compile_source(src))


def call(src, name, *args):
    return interp_for(src).call_function(name, args)


class TestArithmetic:
    SRC = (
        "fun calc: (x: integer, y: integer) -> (integer)\n    {expr}\n"
    )

    def _eval(self, expr, x=10, y=3):
        return call(self.SRC.format(expr=expr), "calc", x, y)

    def test_add(self):
        assert self._eval("x + y") == 13

    def test_sub_mul(self):
        assert self._eval("x - y * 2") == 4

    def test_mod(self):
        assert self._eval("x mod y") == 1

    def test_integer_division(self):
        assert self._eval("x / y") == 3

    def test_division_by_zero(self):
        with pytest.raises(RuntimeFlickError):
            self._eval("x / (y - 3)")

    def test_mod_by_zero(self):
        with pytest.raises(RuntimeFlickError):
            self._eval("x mod (y - 3)")

    def test_unary_minus(self):
        assert self._eval("-x + y") == -7


class TestControlFlow:
    def test_if_else(self):
        src = (
            "fun sign: (x: integer) -> (integer)\n"
            "    if x > 0:\n        1\n"
            "    elif x = 0:\n        0\n"
            "    else:\n        0 - 1\n"
        )
        assert call(src, "sign", 5) == 1
        assert call(src, "sign", 0) == 0
        assert call(src, "sign", -9) == -1

    def test_let_binding(self):
        src = (
            "fun f: (x: integer) -> (integer)\n"
            "    let a = x * 2\n"
            "    let b = a + 1\n"
            "    b\n"
        )
        assert call(src, "f", 10) == 21

    def test_boolean_short_circuit(self):
        src = (
            "fun f: (x: integer) -> (boolean)\n"
            "    x > 0 and x mod 2 = 0 or x = 0 - 1\n"
        )
        assert call(src, "f", 4) is True
        assert call(src, "f", 3) is False
        assert call(src, "f", -1) is True

    def test_non_boolean_condition_rejected_at_runtime(self):
        # The typechecker rejects a non-boolean condition; a dict miss
        # smuggles one in at run time (``d[k]`` is typed by the dict's
        # declared value type, here boolean, whatever the dict holds).
        src = (
            "fun f: (d: ref dict<string*boolean>, k: string) -> (integer)\n"
            "    if d[k]:\n        1\n"
            "    else:\n        0\n"
        )
        assert call(src, "f", {"k": True}, "k") == 1
        assert call(src, "f", {}, "k") == 0  # a miss is None, i.e. false
        with pytest.raises(RuntimeFlickError, match="non-boolean 3"):
            call(src, "f", {"k": 3}, "k")


class TestBuiltins:
    def test_hash_deterministic(self):
        src = "fun h: (k: string) -> (integer)\n    hash(k)\n"
        assert call(src, "h", "abc") == call(src, "h", "abc")
        assert call(src, "h", "abc") != call(src, "h", "abd")

    def test_len_of_string(self):
        src = "fun f: (s: string) -> (integer)\n    len(s)\n"
        assert call(src, "f", "hello") == 5

    def test_concat(self):
        src = "fun f: (a: string, b: string) -> (string)\n    concat(a, b)\n"
        assert call(src, "f", "ab", "cd") == "abcd"

    def test_to_int_to_str(self):
        src = "fun f: (s: string) -> (string)\n    to_str(to_int(s) + 1)\n"
        assert call(src, "f", "41") == "42"

    def test_min_max(self):
        src = "fun f: (a: integer, b: integer) -> (integer)\n    min(a, b) + max(a, b)\n"
        assert call(src, "f", 3, 9) == 12


class TestRecordsAndDicts:
    SRC = (
        "type kv: record\n    key : string\n    value : string\n"
        "fun mk: (k: string, v: string) -> (kv)\n    kv(k, v)\n"
        "fun get_key: (r: kv) -> (string)\n    r.key\n"
        "fun stash: (d: ref dict<string*kv>, r: kv) -> ()\n"
        "    d[r.key] := r\n"
        "fun probe: (d: ref dict<string*kv>, k: string) -> (boolean)\n"
        "    d[k] = None\n"
    )

    def test_constructor_builds_record(self):
        rec = call(self.SRC, "mk", "a", "1")
        assert isinstance(rec, Record)
        assert rec.key == "a" and rec.value == "1"

    def test_field_access(self):
        rec = Record("kv", {"key": "z", "value": "9"})
        assert call(self.SRC, "get_key", rec) == "z"

    def test_dict_side_effect_visible_to_caller(self):
        interp = interp_for(self.SRC)
        shared = {}
        rec = Record("kv", {"key": "a", "value": "1"})
        interp.call_function("stash", (shared, rec))
        assert shared["a"] is rec

    def test_dict_miss_is_none(self):
        interp = interp_for(self.SRC)
        assert interp.call_function("probe", ({}, "ghost")) is True
        assert interp.call_function(
            "probe", ({"k": Record("kv", {"key": "k", "value": "v"})}, "k")
        ) is False


class TestHigherOrder:
    SRC = (
        "fun add: (acc: integer, x: integer) -> (integer)\n    acc + x\n"
        "fun dbl: (x: integer) -> (integer)\n    x * 2\n"
        "fun even: (x: integer) -> (boolean)\n    x mod 2 = 0\n"
        "fun total: (l: list<integer>) -> (integer)\n    fold(add, 0, l)\n"
        "fun doubled: (l: list<integer>) -> (list<integer>)\n    map(dbl, l)\n"
        "fun evens: (l: list<integer>) -> (list<integer>)\n    filter(even, l)\n"
    )

    def test_fold(self):
        assert call(self.SRC, "total", [1, 2, 3, 4]) == 10

    def test_map(self):
        assert call(self.SRC, "doubled", [1, 2, 3]) == [2, 4, 6]

    def test_filter(self):
        assert call(self.SRC, "evens", [1, 2, 3, 4, 5, 6]) == [2, 4, 6]

    def test_fold_empty_list(self):
        assert call(self.SRC, "total", []) == 0


class TestChannelSends:
    SRC = (
        "type t: record\n    k : string\n"
        "fun route: ([-/t] outs, v: t) -> ()\n"
        "    let target = hash(v.k) mod len(outs)\n"
        "    v => outs[target]\n"
    )

    class FakeChannel:
        def __init__(self):
            self.sent = []

        def send(self, value):
            self.sent.append(value)

    def test_send_routes_by_hash(self):
        interp = interp_for(self.SRC)
        outs = [self.FakeChannel() for _ in range(4)]
        for k in ("a", "b", "c", "d", "e", "f"):
            interp.call_function(
                "route", (outs, Record("t", {"k": k}))
            )
        assert sum(len(c.sent) for c in outs) == 6
        # Same key always picks the same channel (deterministic hash).
        first = [len(c.sent) for c in outs]
        interp.call_function("route", (outs, Record("t", {"k": "a"})))
        second = [len(c.sent) for c in outs]
        assert sum(second) - sum(first) == 1

    def test_send_to_non_channel_rejected(self):
        interp = interp_for(self.SRC)
        with pytest.raises(RuntimeFlickError):
            interp.call_function(
                "route", ([42], Record("t", {"k": "a"}))
            )


class TestOpsAccounting:
    def test_ops_grow_with_work(self):
        interp = interp_for(
            "fun small: (x: integer) -> (integer)\n    x\n"
            "fun large: (x: integer) -> (integer)\n"
            "    let a = x * x + x\n"
            "    let b = a * a + a\n"
            "    a + b + x\n"
        )
        interp.reset_ops()
        interp.call_function("small", (1,))
        small_ops = interp.reset_ops()
        interp.call_function("large", (1,))
        large_ops = interp.reset_ops()
        assert large_ops > small_ops > 0

    def test_reset_returns_and_clears(self):
        interp = interp_for("fun f: (x: integer) -> (integer)\n    x\n")
        interp.call_function("f", (1,))
        assert interp.reset_ops() > 0
        assert interp.reset_ops() == 0
