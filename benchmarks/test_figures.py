"""Each row of :data:`repro.bench.figures.FIGURES` at ``--quick`` size, swept once: its
text equals its block of ``golden/<target>_quick.txt`` (regenerated on purpose with
``python -m repro.bench <target> --quick``), and every claim holds on the same points."""

from functools import cache
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES


@cache
def _points(name):
    return FIGURES[name].run(quick=True)


def _golden(name):
    """A target prints its rows' blocks one blank line apart, each
    opening with its ``== title ==`` line, then a blank line."""
    target = FIGURES[name].target
    rows = [row for row, figure in FIGURES.items() if figure.target == target]
    text = (Path(__file__).parent / "golden" / f"{target}_quick.txt").read_text("utf-8")
    first, *rest = text.removesuffix("\n\n").split("\n\n== ")
    blocks = [first, *(f"== {block}" for block in rest)]
    assert len(blocks) == len(rows)
    return blocks[rows.index(name)]


@pytest.mark.parametrize("name", FIGURES)
def test_quick_figure_matches_its_golden(name):
    assert FIGURES[name].text(_points(name), quick=True) == _golden(name)


@pytest.mark.parametrize("name", FIGURES)
def test_every_claim_holds_at_quick_size(name):
    points = _points(name)
    claims = FIGURES[name].claims
    failed = [(c.name, c.ours(points), c.bound()) for c in claims if not c.holds(c.ours(points))]
    assert not failed
