"""Exception hierarchy shared across the FLICK reproduction.

Every layer of the system raises a subclass of :class:`FlickError` so that
callers can catch framework errors without accidentally swallowing Python
built-ins.  The language front end attaches source locations to its errors
so diagnostics point at the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class FlickError(Exception):
    """Base class for all errors raised by this package."""


@dataclass(frozen=True)
class SourceLocation:
    """A position in a FLICK source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<flick>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class FlickSyntaxError(FlickError):
    """Raised by the lexer or parser on malformed FLICK source."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class FlickTypeError(FlickError):
    """Raised by the static type checker."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class TerminationError(FlickError):
    """Raised when a program cannot be proven to terminate.

    FLICK only admits programs with bounded iteration (fold/map/filter over
    finite structures) and a recursion-free call graph; anything else is a
    static error, mirroring section 4.3 of the paper.
    """


class GrammarError(FlickError):
    """Raised on malformed message grammars or grammar DSL text."""


class ParseError(FlickError):
    """Raised by generated message parsers on malformed wire data."""


class SerializeError(FlickError):
    """Raised by generated serialisers when a value does not fit its field."""


class RuntimeFlickError(FlickError):
    """Raised by the task-graph runtime (scheduler, channels, dispatch)."""


class ChannelClosed(RuntimeFlickError):
    """Raised when writing to, or draining from, a closed channel."""


class ChannelFull(RuntimeFlickError):
    """Raised when a bounded channel cannot accept another item."""


class SimulationError(FlickError):
    """Raised by the discrete-event engine on misuse (e.g. past-time events)."""


class ConfigError(FlickError, ValueError):
    """Raised when a configuration object fails validation.

    Also a :class:`ValueError`: the testbeds and the scenario runner
    state each configuration rule once, and callers of either may catch
    it as the built-in.
    """
