"""The documentation gates.

The drift this suite pins down:

* **Dead relative links** — every markdown link in ``README.md`` and
  ``docs/`` must resolve to a real file (and, for ``#fragment`` links, a
  real heading), so a rename can't silently orphan the docs tree.
* **Generated pages** — ``docs/analysis.md`` is generated from the rule
  registry by ``lucky-storage analyze --doc``; the committed file must
  match a fresh render byte-for-byte.  Hand-written pages that name the
  rule range (``RP01–RP09``) must name the registry's first and last rule,
  and every experiment id a page names (``E3``, ``S1–S8``) must be a key of
  the experiment registry, each of which ``docs/benchmarks.md`` must list.
* **CLI help text** — every ``--flag`` token a subcommand's help text
  mentions must actually be registered on that subcommand (catching
  ``--min-seconds`` vs ``--min_seconds`` style drift), and a rule range the
  help names (``RP01..RP10``) must be the registry's.
* **Ledger rows** — every row of the e2e ledger that ``docs/benchmarks.md``
  says prices a hot-path component must be a per-layer metric the e2e
  runner computes.
* **Retired names** — the names of retired mechanisms (the second timing
  command, the uvloop opt-in, two simulator knobs, the scenario annotation,
  the second crash schedule, the per-message trace log, the delay-model
  hierarchy, the manual network-fault mutators, analyzer rules RP02 and RP07
  and the event queue's second heap) appear nowhere in the sources, the CI
  workflow or the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.bench
from repro.analysis import all_rules
from repro.analysis.reporters import render_rules_doc
from repro.bench import experiments, harness, sweeps
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_PAGES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])
E2E_BENCH = REPO_ROOT / "benchmarks" / "e2e" / "e2ebench"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_RULE_RANGE = re.compile(r"\bRP\d+\s*(?:[-–]|\.\.)\s*RP\d+\b")
_EXPERIMENT_ID = re.compile(r"\b[EAS]\d+\b")
#: The codec micro-benchmark: named once, as retired, in docs/benchmarks.md.
_RETIRED_EXPERIMENT = "S6"
_LEDGER_SECTION = "## Hot-path components in the ledger"
_METRIC = re.compile(r"`([a-z]+\.[a-z0-9_]+)`")
#: The per-component timing command and its CI gate, the uvloop opt-in, the
#: simulator's per-byte line cost and timer-margin knobs, the
#: scenario-aware atomicity annotation with its disturbance windows, the
#: second crash schedule with its compat mapping, the per-message log, and
#: the delay-model hierarchy with its fallback timer, the manual gray-link
#: mutators and the delay-sampling rule's allow-list, the wire-registry and
#: slots rules with the analyzer's copy of the registry facts, the event
#: queue's timer heap and cancellation floor, and three definitions only
#: tests called.
_RETIRED_NAMES = (
    "hotpath",
    "uvloop",
    "byte_cost",
    "timer_margin",
    "under_scenario",
    "ScenarioCheckResult",
    "disturbance_windows",
    "CrashRecoverySchedule",
    "crash_times",
    "TraceEntry",
    "DelayModel",
    "UniformDelay",
    "LogNormalDelay",
    "PerLinkDelay",
    "SlowProcessDelay",
    "AsynchronousWindows",
    "unbounded_fallback",
    "set_gray",
    "clear_gray",
    "DELAY_SAMPLE_ALLOWED_SUFFIXES",
    "WireRegistryConsistency",
    "HotLoopSlots",
    "SLOTS_REQUIRED_SUFFIXES",
    "STRUCT_TAG_RANGE",
    "RESERVED_FRAME_TAGS",
    "_timer_heap",
    "_cancel_floor",
    "consecutive_read_workload",
    "run_workload_history",
    "correct_servers",
    "NaiveServer",
    "NaiveWriter",
    "client_busy",
    "busy_on",
    "resident_registers",
    "evicted_registers",
    "suggested_lease_duration",
)


def _github_slug(heading: str) -> str:
    """GitHub's heading → anchor slug (enough of it for our own docs)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(page: Path) -> set:
    in_fence = False
    anchors = set()
    for line in page.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence and line.startswith("#"):
            anchors.add(_github_slug(line.lstrip("#")))
    return anchors


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_relative_links_resolve(page: Path) -> None:
    dead = []
    for match in _LINK.finditer(page.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = page if not path_part else (page.parent / path_part)
        if not resolved.exists():
            dead.append(target)
        elif fragment and fragment not in _anchors(resolved):
            dead.append(f"{target} (missing anchor)")
    assert not dead, f"dead relative links in {page.name}: {dead}"


def test_analysis_doc_matches_generator() -> None:
    committed = (REPO_ROOT / "docs" / "analysis.md").read_text(encoding="utf-8")
    assert committed == render_rules_doc(all_rules()), (
        "docs/analysis.md is out of sync with the rule registry; regenerate "
        "with: lucky-storage analyze --doc > docs/analysis.md"
    )


def _stale_rule_ranges(text: str) -> list:
    """The rule ranges *text* names that are not the registry's first..last."""
    rule_ids = sorted(rule.rule_id for rule in all_rules())
    expected = (rule_ids[0], rule_ids[-1])
    return [
        found
        for found in _RULE_RANGE.findall(text)
        if tuple(re.findall(r"RP\d+", found)) != expected
    ]


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_rule_ranges_match_the_registry(page: Path) -> None:
    stale = _stale_rule_ranges(page.read_text(encoding="utf-8"))
    assert not stale, f"{page.name} names stale rule range(s) {stale}"


def _experiment_ids_named() -> dict:
    """Source name → the experiment ids (range endpoints included) it names."""
    texts = {page.name: page.read_text(encoding="utf-8") for page in DOC_PAGES}
    for module in (repro.bench, experiments, harness, sweeps):
        texts[module.__name__] = module.__doc__ or ""
    return {name: _EXPERIMENT_ID.findall(text) for name, text in texts.items()}


def test_experiment_ids_match_the_registry() -> None:
    named = _experiment_ids_named()
    unknown = {
        name: sorted(set(ids) - set(ALL_EXPERIMENTS) - {_RETIRED_EXPERIMENT})
        for name, ids in named.items()
    }
    assert not any(unknown.values()), f"ids that are not registry keys: {unknown}"
    listed = named["benchmarks.md"]
    missing = sorted(set(ALL_EXPERIMENTS) - set(listed))
    assert not missing, f"registry ids absent from docs/benchmarks.md: {missing}"
    retired = {page.name: named[page.name].count(_RETIRED_EXPERIMENT) for page in DOC_PAGES}
    assert {name: count for name, count in retired.items() if count} == {"benchmarks.md": 1}


def _subparsers():
    parser = _build_parser()
    actions = [
        action
        for action in parser._actions  # noqa: SLF001 - argparse has no public API for this
        if hasattr(action, "choices") and isinstance(action.choices, dict)
    ]
    return actions[0].choices


def test_help_text_references_registered_flags() -> None:
    """Every ``--flag`` a subcommand's help mentions must exist there."""
    drifted = []
    for name, sub in _subparsers().items():
        registered = {opt for action in sub._actions for opt in action.option_strings}
        texts = [sub.description or "", sub.epilog or ""]
        texts.extend(action.help or "" for action in sub._actions)
        for text in texts:
            for flag in _FLAG.findall(text):
                if flag not in registered:
                    drifted.append(f"{name}: help mentions unregistered {flag}")
    assert not drifted, drifted


def test_help_text_rule_range_matches_the_registry() -> None:
    """``lucky-storage --help`` names the registry's first and last rule."""
    text = _build_parser().format_help()
    assert _RULE_RANGE.search(text), "the help names no rule range"
    stale = _stale_rule_ranges(text)
    assert not stale, f"lucky-storage --help names stale rule range(s) {stale}"


def _ledger_table() -> list:
    """``(component, ledger cell)`` per row of docs/benchmarks.md's component table."""
    text = (REPO_ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    rows = []
    for line in text.split(_LEDGER_SECTION, 1)[1].splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    _header, _rule, *body = rows
    return [(cells[0], cells[1]) for cells in body]


LEDGER_ROWS = _ledger_table()


@pytest.mark.parametrize("component, cell", LEDGER_ROWS, ids=[row[0] for row in LEDGER_ROWS])
def test_ledger_rows_are_metrics_the_runner_computes(component: str, cell: str) -> None:
    named = _METRIC.findall(cell)
    assert named, f"{component}: the table names no ledger row"
    # The per-layer registry is a text table in metrics.py; read it as text so
    # the documentation gate does not import the benchmark package.
    metrics = (E2E_BENCH / "metrics.py").read_text(encoding="utf-8")
    registered = set(re.findall(r"^([a-z]+\.[a-z0-9_]+)\s+\|", metrics, re.MULTILINE))
    runner = (E2E_BENCH / "runner.py").read_text(encoding="utf-8")
    for name in named:
        assert name in registered, f"{component}: {name} is not a per-layer metric"
        assert f'"{name}"' in runner, f"{component}: the runner never computes {name}"


def _shipped_texts() -> dict:
    """Relative path → text of every source, workflow and documentation file."""
    paths = [
        *(REPO_ROOT / "src").rglob("*.py"),
        *(path for path in (REPO_ROOT / ".github").rglob("*") if path.is_file()),
        REPO_ROOT / "requirements-dev.txt",
        *DOC_PAGES,
    ]
    return {str(path.relative_to(REPO_ROOT)): path.read_text(encoding="utf-8") for path in paths}


@pytest.mark.parametrize("name", _RETIRED_NAMES)
def test_retired_name_appears_nowhere(name: str) -> None:
    hits = [
        f"{path}:{number}"
        for path, text in _shipped_texts().items()
        for number, line in enumerate(text.splitlines(), 1)
        if name in line
    ]
    assert not hits, f"retired {name!r} is named at {hits}"
