"""The one string-keyed registry every pluggable axis instantiates.

FLICK's platform is one mechanism under swappable policies; so is the
lookup that selects them.  Scheduling policies, core allocators,
admission policies, routing policies, arrival processes and fault
injectors each keep one :class:`Registry` instance in their own module
and expose its bound methods under the historical verbs
(``register_policy``, ``make_arrival``, ``resolve_fault``, ...).  The
mechanism — name lookup, near-miss suggestions, the bad-parameters
error, name-or-instance resolution — is written here, once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Type


def closest_name(name: str, candidates: Iterable[str]) -> Optional[str]:
    """The candidate a typo most plausibly meant, or ``None``.

    Separator slips (``dead-line``, ``adaptive_timeslice``) are matched
    exactly after stripping ``-``/``_``; anything else falls back to a
    difflib closest-match so transpositions like ``roud_robin`` are
    caught too.
    """
    ordered = sorted(candidates)
    canon = name.lower().replace("-", "").replace("_", "")
    for candidate in ordered:
        if candidate.lower().replace("-", "").replace("_", "") == canon:
            return candidate
    # Imported here, not at module load: only a typo reaches this line.
    import difflib

    matches = difflib.get_close_matches(name, ordered, n=1)
    return matches[0] if matches else None


def _plural(noun: str) -> str:
    if noun.endswith("y"):
        return noun[:-1] + "ies"
    return noun + ("es" if noun.endswith("s") else "s")


def did_you_mean(
    noun: str,
    unknown: Sequence[str],
    candidates: Sequence[str],
    listed: str = "registered",
) -> str:
    """Error text for names that are not among ``candidates``: the
    valid names (in the order given) plus a near-miss suggestion for
    every typo that is recognisable."""
    many = len(unknown) > 1
    message = (
        f"unknown {_plural(noun) if many else noun} "
        f"{', '.join(map(repr, unknown))}; {listed}: {', '.join(candidates)}"
    )
    hints = [
        f"did you mean {suggestion!r}" + (f" for {name!r}?" if many else "?")
        for name in unknown
        for suggestion in [closest_name(name, candidates)]
        if suggestion is not None
    ]
    if hints:
        message += "; " + " ".join(hints)
    return message


class Registry:
    """Name → class table for one pluggable axis.

    ``noun`` names the axis in every error message, ``base`` is the
    class registered entries must extend (and ready instances must be),
    ``error`` the exception type raised, ``first`` the default name(s)
    :meth:`names` lists ahead of the sorted rest.  ``title``,
    ``decorator`` and ``consumed_by`` are the axis's entry in the
    generated ``docs/registries.md``.
    """

    def __init__(
        self,
        noun: str,
        base: type,
        error: Type[Exception],
        first: Tuple[str, ...] = (),
        title: str = "",
        decorator: str = "",
        consumed_by: str = "",
    ):
        self.noun = noun
        self.base = base
        self.error = error
        self.first = tuple(first)
        self.title = title
        self.decorator = decorator
        self.consumed_by = consumed_by
        self.classes: Dict[str, type] = {}

    @property
    def module(self) -> str:
        """Dotted name of the module that owns this registry."""
        return self.base.__module__

    def register(self, cls: type) -> type:
        """Class decorator adding ``cls`` under ``cls.name``."""
        if not cls.name or cls.name == "abstract":
            raise self.error(f"{self.noun} class {cls.__name__} needs a name")
        if cls.name in self.classes:
            raise self.error(f"{self.noun} {cls.name!r} registered twice")
        self.classes[cls.name] = cls
        return cls

    def names(self) -> Tuple[str, ...]:
        """All registered names: the defaults first, the rest sorted."""
        rest = sorted(name for name in self.classes if name not in self.first)
        return self.first + tuple(rest)

    def closest(self, name: str) -> Optional[str]:
        """The registered name a typo most plausibly meant, or ``None``."""
        return closest_name(name, self.classes)

    def unknown_message(self, *names: str) -> str:
        """Error text for unregistered ``names``, with near-misses."""
        return did_you_mean(self.noun, names, sorted(self.classes))

    def check(self, spec) -> None:
        """Raise unless :meth:`resolve` would accept ``spec`` — a
        registered name or a ready instance — without building anything."""
        if isinstance(spec, str):
            if spec not in self.classes:
                raise self.error(self.unknown_message(spec))
        elif not isinstance(spec, self.base):
            raise self.error(
                f"{self.noun} must be a name or {self.base.__name__}, "
                f"got {type(spec).__name__}"
            )

    def make(self, name: str, **params):
        """Instantiate the entry registered as ``name``."""
        try:
            cls = self.classes[name]
        except KeyError:
            raise self.error(self.unknown_message(name)) from None
        try:
            return cls(**params)
        except TypeError as exc:
            raise self.error(
                f"bad parameters for {self.noun} {name!r}: {exc}"
            ) from None

    def resolve(self, spec):
        """Accept a registered name or a ready instance; return an
        instance.  An instance is returned as is — it already carries
        its parameters — so there are none to pass here."""
        self.check(spec)
        return self.make(spec) if isinstance(spec, str) else spec
