"""The docs tree stays true: experiments index matches the registry, docs are
linked from the README, and the public API surface carries docstrings.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


# -- docs/experiments.md is the registry, spelled out ------------------------------------


def test_docs_tree_exists():
    for name in ("architecture.md", "kernel.md", "invariance.md", "experiments.md", "observability.md"):
        assert (DOCS / name).is_file(), f"docs/{name} is missing"


def test_experiments_index_matches_registry():
    """Every registered experiment has a heading carrying its claim verbatim."""
    text = (DOCS / "experiments.md").read_text()
    for exp_id, experiment in EXPERIMENTS.items():
        heading = f"## {exp_id} — {experiment.claim}"
        assert heading in text, (
            f"docs/experiments.md lacks the heading for {exp_id} "
            f"(expected {heading!r}; the registry claim changed?)"
        )


def test_experiments_index_has_no_stale_entries():
    """No heading for an experiment the registry no longer knows."""
    text = (DOCS / "experiments.md").read_text()
    documented = set(re.findall(r"^## (E\d+) ", text, flags=re.MULTILINE))
    assert documented == set(EXPERIMENTS), (
        f"stale or missing entries: documented={sorted(documented)} "
        f"registry={sorted(EXPERIMENTS)}"
    )


def test_readme_links_every_doc():
    readme = (REPO / "README.md").read_text()
    for name in ("architecture.md", "kernel.md", "invariance.md", "experiments.md", "observability.md"):
        assert f"docs/{name}" in readme, f"README does not link docs/{name}"


# -- docstring presence on the public API ------------------------------------------------

#: Classes whose public methods form the extension surface; their methods need
#: docstrings too, not just the class itself.
_DEEP_SURFACE = [
    "Scenario",
    "ScenarioResult",
    "SweepRunner",
    "Executor",
    "OnlineMetricsSummary",
]


def _public_exports():
    for name in repro.__all__:
        if name == "__version__":
            continue
        yield name, getattr(repro, name)


def test_every_public_export_has_a_docstring():
    missing = [
        name
        for name, obj in _public_exports()
        if callable(obj) and not (inspect.getdoc(obj) or "").strip()
    ]
    assert not missing, f"public exports without docstrings: {missing}"


@pytest.mark.parametrize("name", _DEEP_SURFACE)
def test_extension_surface_methods_have_docstrings(name):
    cls = getattr(repro, name)
    undocumented = []
    for attr, member in vars(cls).items():
        if attr.startswith("_") or not callable(member):
            continue
        if not (inspect.getdoc(member) or "").strip():
            undocumented.append(f"{name}.{attr}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_public_modules_have_docstrings():
    import repro.sim.kernel
    import repro.sim.recorder
    import repro.sim.vectorized
    import repro.runner.core
    import repro.workloads.scenarios

    for mod in (
        repro,
        repro.sim.kernel,
        repro.sim.vectorized,
        repro.sim.recorder,
        repro.runner.core,
        repro.workloads.scenarios,
    ):
        assert (mod.__doc__ or "").strip(), f"{mod.__name__} lacks a module docstring"


# -- every cited file exists -------------------------------------------------------------

#: Repo-relative citations of a script, test, benchmark, doc page or bench record.
_CITATION = re.compile(
    r"(?<![\w/.-])(?:(?:scripts|tests|benchmarks)/[\w/.-]+?\.py|docs/[\w/.-]+?\.md|BENCH\w*\.json)\b"
)


def _citing_files():
    """Where citations are checked (CHANGES.md, ROADMAP.md and perfbench/ are history or out of scope)."""
    yield REPO / "README.md"
    yield REPO / ".claude" / "skills" / "verify" / "SKILL.md"
    yield REPO / ".github" / "workflows" / "ci.yml"
    yield from sorted(DOCS.glob("*.md"))
    yield from sorted((REPO / "benchmarks").glob("*.py"))
    yield from sorted((REPO / "src").rglob("*.py"))


def test_no_cited_file_is_missing():
    dangling = [
        f"{path.relative_to(REPO)} cites {cited}"
        for path in _citing_files()
        for cited in sorted(set(_CITATION.findall(path.read_text())))
        if not (REPO / cited).is_file()
    ]
    assert not dangling, dangling
