"""Built-in functions and values of the FLICK language.

The paper's listings use ``hash``, ``len``, ``empty_dict`` and
``all_ready``; section 4.3 adds the higher-order ``fold``/``map``/
``filter`` primitives (which compile to finite loops) and ``foldt``.
Each builtin carries both a typing rule and a runtime implementation so
the type checker and the executors (generated code, test-side oracle)
stay in sync by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.errors import FlickTypeError
from repro.core.ids import stable_hash
from repro.lang import types as ty


@dataclass(frozen=True)
class Builtin:
    """A built-in function: a name, a typing rule and an implementation.

    ``type_rule`` receives the argument types and returns the result type
    (raising :class:`FlickTypeError` on misuse).  ``impl`` receives the
    evaluated argument values.
    """

    name: str
    type_rule: Callable[[Sequence[ty.Type]], ty.Type]
    impl: Callable[..., object]
    min_args: int = 0
    max_args: Optional[int] = None


def _check_arity(name: str, args: Sequence, lo: int, hi: Optional[int]) -> None:
    if len(args) < lo or (hi is not None and len(args) > hi):
        expect = str(lo) if hi == lo else f"{lo}..{hi if hi is not None else 'n'}"
        raise FlickTypeError(
            f"builtin {name!r} expects {expect} argument(s), got {len(args)}"
        )


# -- typing rules ----------------------------------------------------------


def _hash_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("hash", args, 1, 1)
    arg = ty.strip_ref(args[0])
    if isinstance(arg, (ty.StringType, ty.IntType, ty.AnyType)):
        return ty.INTEGER
    raise FlickTypeError(f"hash expects a string or integer, got {arg}")


def _len_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("len", args, 1, 1)
    arg = ty.strip_ref(args[0])
    if isinstance(
        arg,
        (ty.StringType, ty.ListSeqType, ty.DictMapType, ty.AnyType),
    ):
        return ty.INTEGER
    if isinstance(arg, ty.ChannelEndType) and arg.is_array:
        return ty.INTEGER
    raise FlickTypeError(f"len expects a string, list, dict or channel array, got {arg}")


def _empty_dict_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("empty_dict", args, 0, 0)
    return ty.DictMapType(ty.ANY, ty.ANY)


def _all_ready_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("all_ready", args, 1, 1)
    arg = args[0]
    if isinstance(arg, ty.ChannelEndType) and arg.is_array and arg.readable:
        return ty.BOOLEAN
    raise FlickTypeError(f"all_ready expects a readable channel array, got {arg}")


def _str_concat_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("concat", args, 2, 2)
    for arg in args:
        if not isinstance(ty.strip_ref(arg), (ty.StringType, ty.AnyType)):
            raise FlickTypeError(f"concat expects strings, got {arg}")
    return ty.STRING


def _to_int_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("to_int", args, 1, 1)
    arg = ty.strip_ref(args[0])
    if isinstance(arg, (ty.StringType, ty.IntType, ty.AnyType)):
        return ty.INTEGER
    raise FlickTypeError(f"to_int expects a string or integer, got {arg}")


def _to_str_rule(args: Sequence[ty.Type]) -> ty.Type:
    _check_arity("to_str", args, 1, 1)
    return ty.STRING


def _min_max_rule(name: str):
    def rule(args: Sequence[ty.Type]) -> ty.Type:
        _check_arity(name, args, 2, 2)
        for arg in args:
            if not isinstance(ty.strip_ref(arg), (ty.IntType, ty.AnyType)):
                raise FlickTypeError(f"{name} expects integers, got {arg}")
        return ty.INTEGER

    return rule


# -- implementations ---------------------------------------------------------


def _hash_impl(value) -> int:
    return stable_hash(value)


def _len_impl(value) -> int:
    return len(value)


def _empty_dict_impl() -> dict:
    return {}


def _all_ready_impl(channel_array) -> bool:
    # ``channel_array`` is the runtime's channel-array view; the runtime
    # binds readiness to "every member channel has at least one value".
    return all(getattr(c, "ready", lambda: bool(c))() for c in channel_array)


def _concat_impl(a: str, b: str) -> str:
    return a + b


def _to_int_impl(value) -> int:
    return int(value)


def _to_str_impl(value) -> str:
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return str(value)


BUILTINS = {
    b.name: b
    for b in (
        Builtin("hash", _hash_rule, _hash_impl, 1, 1),
        Builtin("len", _len_rule, _len_impl, 1, 1),
        Builtin("empty_dict", _empty_dict_rule, _empty_dict_impl, 0, 0),
        Builtin("all_ready", _all_ready_rule, _all_ready_impl, 1, 1),
        Builtin("concat", _str_concat_rule, _concat_impl, 2, 2),
        Builtin("to_int", _to_int_rule, _to_int_impl, 1, 1),
        Builtin("to_str", _to_str_rule, _to_str_impl, 1, 1),
        Builtin("min", _min_max_rule("min"), min, 2, 2),
        Builtin("max", _min_max_rule("max"), max, 2, 2),
    )
}

# Zero-argument builtins that may be referenced without parentheses
# (Listing 1 writes ``global cache := empty_dict``).
VALUE_BUILTINS = frozenset({"empty_dict"})

# Higher-order primitives handled specially by the checker/code generator.
HIGHER_ORDER = frozenset({"fold", "map", "filter"})


def is_builtin(name: str) -> bool:
    return name in BUILTINS or name in HIGHER_ORDER
