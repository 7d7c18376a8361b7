"""The FLICK language front end: lexer, parser, checkers and compiler."""

from repro.lang.codegen import (
    CompiledExec,
    CompiledFoldTHandler,
    CompiledRuleHandler,
)
from repro.lang.compiler import (
    CompiledProgram,
    EndpointSpec,
    FoldTPlan,
    ProcSpec,
    RuleSpec,
    StageSpec,
    build_foldt_handler,
    build_rule_handler,
    compile_program,
    compile_source,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.termination import check_termination
from repro.lang.typecheck import CheckedProgram, check_program
from repro.lang.values import Record

__all__ = [
    "CompiledExec",
    "CompiledFoldTHandler",
    "CompiledProgram",
    "CompiledRuleHandler",
    "EndpointSpec",
    "FoldTPlan",
    "ProcSpec",
    "RuleSpec",
    "StageSpec",
    "build_foldt_handler",
    "build_rule_handler",
    "compile_program",
    "compile_source",
    "tokenize",
    "parse",
    "check_termination",
    "CheckedProgram",
    "check_program",
    "Record",
]
