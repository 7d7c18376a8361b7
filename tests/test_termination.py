"""Termination-check tests: recursion and higher-order rejection."""

import pytest

from repro.core.errors import TerminationError
from repro.lang.parser import parse
from repro.lang.termination import (
    _call_graph,
    _detect_cycle,
    check_termination,
)
from tests.test_parser import HADOOP, MEMCACHED_FULL, MEMCACHED_SHORT


def check(src):
    return check_termination(parse(src))


class TestAcceptance:
    def test_listings_terminate(self):
        for src in (MEMCACHED_SHORT, MEMCACHED_FULL, HADOOP):
            assert check(src) is None

    def test_call_graph_edges(self):
        program = parse(MEMCACHED_FULL)
        known = {f.name for f in program.funs}
        assert _call_graph(program, known)["proc:memcached"] == (
            "test_cache",
            "update_cache",
        )

    def test_fold_over_a_declared_function_is_accepted(self):
        src = (
            "fun add: (a: integer, b: integer) -> (integer)\n    a + b\n"
            "fun total: (l: list<integer>) -> (integer)\n"
            "    fold(add, 0, l)\n"
        )
        assert check(src) is None
        program = parse(src)
        known = {f.name for f in program.funs}
        # The iterated function is an edge, so recursion through fold
        # is seen as a cycle.
        assert _call_graph(program, known) == {"add": (), "total": ("add",)}

    def test_a_shared_callee_is_not_a_cycle(self):
        # A diamond visits ``leaf`` twice; the second visit meets a
        # finished node, not one on the current path.
        assert _detect_cycle(
            {"top": ("left", "right"), "left": ("leaf",),
             "right": ("leaf",), "leaf": ()}
        ) == []
        assert check(
            "fun leaf: (x: integer) -> (integer)\n    x + 1\n"
            "fun left: (x: integer) -> (integer)\n    leaf(x)\n"
            "fun right: (x: integer) -> (integer)\n    leaf(x) * 2\n"
            "fun top: (x: integer) -> (integer)\n    left(x) + right(x)\n"
        ) is None

    def test_a_cycle_is_reported_as_its_path(self):
        assert _detect_cycle(
            {"entry": ("a",), "a": ("b",), "b": ("a",)}
        ) == ["a", "b", "a"]


class TestRejection:
    def test_direct_recursion(self):
        with pytest.raises(TerminationError) as err:
            check(
                "fun loop: (x: integer) -> (integer)\n    loop(x)\n"
            )
        assert "loop" in str(err.value)

    def test_mutual_recursion(self):
        with pytest.raises(TerminationError) as err:
            check(
                "fun ping: (x: integer) -> (integer)\n    pong(x)\n"
                "fun pong: (x: integer) -> (integer)\n    ping(x)\n"
            )
        assert "->" in str(err.value)

    def test_three_cycle(self):
        with pytest.raises(TerminationError):
            check(
                "fun a1: (x: integer) -> (integer)\n    b1(x)\n"
                "fun b1: (x: integer) -> (integer)\n    c1(x)\n"
                "fun c1: (x: integer) -> (integer)\n    a1(x)\n"
            )

    def test_recursion_via_fold(self):
        with pytest.raises(TerminationError):
            check(
                "fun step: (acc: integer, l: list<integer>) -> (integer)\n"
                "    fold(step, acc, l)\n"
            )

    def test_fold_over_unknown_function(self):
        with pytest.raises(TerminationError) as err:
            check(
                "fun f: (l: list<integer>) -> (integer)\n"
                "    fold(ghost, 0, l)\n"
            )
        assert "ghost" in str(err.value)

    def test_fold_over_builtin_rejected(self):
        with pytest.raises(TerminationError):
            check(
                "fun f: (l: list<integer>) -> (integer)\n"
                "    fold(hash, 0, l)\n"
            )

    def test_map_requires_function_name_argument(self):
        with pytest.raises(TerminationError):
            check(
                "fun f: (l: list<integer>) -> (integer)\n"
                "    len(map(1, l))\n"
            )
