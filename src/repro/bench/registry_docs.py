"""Generate ``docs/registries.md`` from the live policy registries.

Every pluggable axis (scheduling, allocation, admission, routing,
arrivals, faults) is one :class:`repro.core.registry.Registry` instance,
carrying its own title and "consumed by" text.  Their documentation is
*generated* from the live instances — every registered name, its class,
its constructor knobs and defaults — so the doc cannot drift from the
code: ``tests/test_docs.py`` diffs the committed ``docs/registries.md``
against :func:`render_markdown` and fails the build on any divergence.

Regenerate after adding or changing a registered policy::

    PYTHONPATH=src python -m repro.bench.registry_docs
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from repro.bench.testbeds import AXES


def _summary_of(cls) -> str:
    """First docstring line, flattened to one markdown-table-safe cell."""
    doc = inspect.getdoc(cls) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first.replace("|", "\\|").replace("``", "`")


def _knobs_of(cls) -> str:
    """``name=default`` cells for every constructor parameter."""
    try:
        signature = inspect.signature(cls.__init__)
    except (TypeError, ValueError):  # pragma: no cover - C-level init
        return "—"
    knobs = []
    for parameter in signature.parameters.values():
        if parameter.name == "self" or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            knobs.append(f"`{parameter.name}` (required)")
        else:
            default = repr(parameter.default)
            if len(default) > 40:
                default = default[:37] + "..."
            knobs.append(f"`{parameter.name}={default}`")
    return ", ".join(knobs) if knobs else "—"


def render_markdown() -> str:
    """The full ``docs/registries.md`` body, from the live registries."""
    lines = [
        "# Policy registries",
        "",
        "<!-- GENERATED FILE - do not edit by hand.",
        "     Regenerate: PYTHONPATH=src python -m repro.bench.registry_docs",
        "     CI (tests/test_docs.py) diffs this file against the live",
        "     registries and fails the build on drift. -->",
        "",
        "Every pluggable axis of the simulator is a string-keyed registry:",
        "one `repro.core.registry.Registry` instance per axis, mapping a",
        "stable name to a policy class and filled by the axis's",
        "`register_*` class decorator at import time.",
        "All of them share the same contract:",
        "",
        "- **Lookup by name.** `RuntimeConfig` and `Scenario` fields take",
        "  the registered string; `make_*(name, **params)` instantiates it and",
        "  `resolve_*(spec)` additionally accepts a ready instance.",
        "- **Near-miss errors.** An unknown name lists the registered",
        "  names and suggests the closest one (`did you mean ...?`) —",
        "  typos fail fast, before any simulation runs.",
        "- **No silent drops.** A registry-consuming field that the",
        "  selected configuration cannot honour (e.g. `fault_params`",
        "  without `faults`, `routing` without shards) is a config error,",
        "  never ignored.",
        "- **Determinism.** Registered policies draw randomness only from",
        "  seeded RNGs handed in by the harness, so one seed reproduces a",
        "  byte-identical run regardless of registration order or",
        "  parallelism.",
        "",
    ]
    for registry in AXES.values():
        lines.append(f"## {registry.title}")
        lines.append("")
        lines.append(
            f"Registry: `{registry.module}` (decorator "
            f"`@{registry.decorator}`). Consumed by: {registry.consumed_by}."
        )
        lines.append("")
        lines.append("| name | class | knobs | summary |")
        lines.append("| --- | --- | --- | --- |")
        for name, cls in sorted(registry.classes.items()):
            lines.append(
                f"| `{name}` | `{cls.__name__}` | {_knobs_of(cls)} "
                f"| {_summary_of(cls)} |"
            )
        lines.append("")
    return "\n".join(lines)


def default_output_path() -> Path:
    """``docs/registries.md`` relative to the repo root."""
    return Path(__file__).resolve().parents[3] / "docs" / "registries.md"


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.bench.registry_docs",
        description="Regenerate docs/registries.md from the live "
        "policy registries.",
    ).parse_args(argv)
    path = default_output_path()
    path.write_text(render_markdown() + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
