"""Docs tests: generated registry inventory + intra-repo link integrity.

``docs/registries.md`` is generated from the live registries
(:mod:`repro.bench.registry_docs`); committing a stale copy would be
documentation drift of exactly the kind generated docs exist to
prevent, so the diff is a test.  The link checker keeps every relative
link in ``README.md`` and ``docs/*.md`` pointing at a real file — the
cheapest possible defence against renamed files orphaning the docs;
the citation check does the same for every ``*.md`` file the code
names.
"""

import re
from pathlib import Path

import pytest

from repro.bench import registry_docs
from repro.bench.registry_docs import default_output_path, render_markdown
from repro.bench.testbeds import AXES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A markdown file named in code, e.g. ``docs/scenarios.md``.
_MD_CITATION = re.compile(r"[\w./-]+\.md\b")


def _doc_files():
    return [REPO_ROOT / "README.md", *sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )]


class TestGeneratedRegistryDoc:
    def test_committed_doc_matches_live_registries(self):
        committed = default_output_path().read_text(encoding="utf-8")
        assert committed == render_markdown() + "\n", (
            "docs/registries.md is stale; regenerate with "
            "'PYTHONPATH=src python -m repro.bench.registry_docs'"
        )

    def test_all_six_registries_are_documented(self):
        assert len(AXES) == 6
        text = render_markdown()
        for registry in AXES.values():
            assert f"## {registry.title}\n" in text
            assert f"`{registry.module}`" in text
            assert f"`@{registry.decorator}`" in text

    def test_every_registered_name_appears(self):
        text = render_markdown()
        for registry in AXES.values():
            for name in registry.classes:
                assert f"| `{name}` |" in text, (
                    f"{registry.module} registers {name!r} but the "
                    "generated doc does not list it"
                )


    def test_main_regenerates_the_doc(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "registries.md"
        monkeypatch.setattr(registry_docs, "default_output_path", lambda: target)
        assert registry_docs.main([]) == 0
        assert target.read_text(encoding="utf-8") == render_markdown() + "\n"
        assert f"wrote {target}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["--check"], ["--output", "elsewhere"]], ids=["check", "output"]
    )
    def test_a_removed_flag_is_a_usage_error(
        self, tmp_path, monkeypatch, argv
    ):
        """A stale ``--check`` must not pass by rewriting the doc it was
        meant to compare; the tier-1 diff above is the check."""
        target = tmp_path / "registries.md"
        monkeypatch.setattr(registry_docs, "default_output_path", lambda: target)
        with pytest.raises(SystemExit) as excinfo:
            registry_docs.main(argv)
        assert excinfo.value.code == 2
        assert not target.exists()


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, (
            f"{doc.relative_to(REPO_ROOT)} has broken relative links: "
            f"{broken}"
        )

    def test_readme_links_to_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in ("architecture.md", "scenarios.md", "registries.md"):
            assert f"docs/{name}" in readme


class TestDocCitations:
    def test_every_cited_md_file_exists(self):
        """A ``*.md`` path cited in a ``.py`` file resolves against the
        repo root, ``docs/`` or the citing file's own directory."""
        broken = []
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                for target in _MD_CITATION.findall(text):
                    bases = (REPO_ROOT, REPO_ROOT / "docs", path.parent)
                    if not any((base / target).exists() for base in bases):
                        broken.append(f"{path.relative_to(REPO_ROOT)}: {target}")
        assert not broken, broken
