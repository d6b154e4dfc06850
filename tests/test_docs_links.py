"""Docs hygiene: every relative link, back-ticked repo path, dotted
name and ``Class.attr`` in README.md and docs/ resolves.

Runs the same script the CI lint job runs (``tools/check_links.py``)
so a broken link fails locally before it fails in CI.
"""

import ast
import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py")
    check_links = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_links)
    return check_links


def test_readme_and_docs_links_resolve():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_links.py")],
        capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stdout


def test_stale_repo_path_is_reported(tmp_path):
    """A doc that names a file the repo does not have fails the check;
    real paths, test ids and non-path spans pass."""
    check_links = _load_check_links()
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "real.py").touch()
    (tmp_path / "README.md").write_text(
        "See `tools/real.py`, `tools/real.py::main`, `tools/gone.py`, "
        "`python tools/run me` and `benchmarks/*.py`.\n")
    assert check_links.check(tmp_path) == ["README.md: `tools/gone.py`"]


def test_stale_dotted_name_is_reported(tmp_path):
    """A doc that names a moved module or a deleted function in dotted
    form fails the check; modules, packages, re-exports, top-level
    defs/classes/assignments and other packages' names pass."""
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.sub.mod import run\n")
    (package / "sub" / "__init__.py").touch()
    (package / "sub" / "mod.py").write_text(
        "LIMIT: int = 3\nFLAG = True\n\n"
        "class Plane:\n    def execute(self):\n        pass\n\n"
        "def run():\n    def inner():\n        pass\n")
    (tmp_path / "README.md").write_text(
        "`pkg`, `pkg.sub`, `pkg.sub.mod`, `pkg.run()`, "
        "`pkg.sub.mod.run()`, `pkg.sub.mod.Plane`, "
        "`pkg.sub.mod.Plane.execute()`, `pkg.sub.mod.LIMIT`, "
        "`pkg.sub.mod.FLAG`, `os.path.join`, `metrics.runtime`, "
        "`pkg.sub.gone`, `pkg.sub.mod.inner()`, `pkg.sub.mod.execute`, "
        "`pkg.moved.mod.run()`.\n")
    assert _load_check_links().check(tmp_path) == [
        "README.md: `pkg.sub.gone`",
        "README.md: `pkg.sub.mod.inner`",
        "README.md: `pkg.sub.mod.execute`",
        "README.md: `pkg.moved.mod.run`"]


def test_stale_class_attribute_is_reported(tmp_path):
    """A ``Class.attr`` in README.md or a top-level doc must name a
    class under ``src/`` that binds the attribute — in its body, its
    ``__slots__``, a ``self.`` assignment, a module-level ``Class.attr``
    assignment or a base class; the history log is exempt, and so is
    a capitalised file name."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    (package / "mod.py").write_text(
        "class Base:\n    LIMIT = 3\n\n"
        "class Plane(Base):\n    __slots__ = ('speed',)\n"
        "    mode: str = 'x'\n\n"
        "    def __init__(self):\n        self.name, self.seats = 1, 2\n\n"
        "    def fly(self):\n        pass\n\n"
        "Plane.GROUND = 0\n")
    (tmp_path / "docs").mkdir()
    refs = ("`Plane.fly()`, `Plane.speed`, `Plane.mode`, `Plane.name`, "
            "`Plane.seats`, `Plane.GROUND`, `Plane.LIMIT`, "
            "`BENCHMARK.json`, `Plane.land`, `Ship.fly`, `Base.fly`.\n")
    (tmp_path / "README.md").write_text(refs)
    (tmp_path / "docs" / "guide.md").write_text("`Plane.taxi`\n")
    (tmp_path / "docs" / "performance.md").write_text(refs)
    assert _load_check_links().check(tmp_path) == [
        "README.md: `Plane.land`",
        "README.md: `Ship.fly`",
        "README.md: `Base.fly`",
        "docs/guide.md: `Plane.taxi`"]


def test_stale_class_name_is_reported(tmp_path):
    """A bare capitalised name in README.md or a top-level doc must name
    a class under ``src/`` or a Python builtin; the history log is
    exempt, and so are an all-capitals constant and a doc below
    ``docs/``."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    (package / "mod.py").write_text("class Plane:\n    pass\n")
    (tmp_path / "docs" / "notes").mkdir(parents=True)
    refs = ("`Plane`, `Plane()`, `None`, `TypeError`, `MAX_SPEED`, "
            "`Ship`, `Hangar()`.\n")
    (tmp_path / "README.md").write_text(refs)
    (tmp_path / "docs" / "guide.md").write_text("`Glider`\n")
    (tmp_path / "docs" / "performance.md").write_text(refs)
    (tmp_path / "docs" / "notes" / "old.md").write_text(refs)
    assert _load_check_links().check(tmp_path) == [
        "README.md: `Ship`",
        "README.md: `Hangar`",
        "docs/guide.md: `Glider`"]


def test_docs_tree_present():
    # The operator documentation the README links out to.
    for name in ("architecture.md", "scenarios.md", "metrics.md"):
        assert (ROOT / "docs" / name).exists(), f"docs/{name} missing"


def _load_perf_table():
    spec = importlib.util.spec_from_file_location(
        "perf_table", ROOT / "tools" / "perf_table.py")
    perf_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_table)
    return perf_table


def test_performance_trajectory_is_the_generated_one():
    """The ``host_calls_per_tx`` table in docs/performance.md is what
    ``tools/perf_table.py`` renders from the committed history."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "perf_table.py"), "--check"],
        capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stdout


def test_perf_table_renders_one_row_per_pair(tmp_path):
    """A pair is one row, matched by PR and seed; an unchanged count
    reads without a percentage; a workload a side lacks is a dash."""
    perf_table = _load_perf_table()
    rows = [
        {"pr": 7, "side": "before", "seed": 3, "commit": "abc",
         "workloads": {"a": {"host_calls_per_tx": 200.0},
                       "b": {"host_calls_per_tx": 50.0}}},
        {"pr": 7, "side": "after", "seed": 3, "commit": "abc+7",
         "workloads": {"a": {"host_calls_per_tx": 150.0},
                       "b": {"host_calls_per_tx": 50.0}}},
        {"pr": 8, "side": "before", "seed": 3, "commit": "def",
         "workloads": {"a": {"host_calls_per_tx": 150.0}}},
        {"pr": 8, "side": "after", "seed": 3, "commit": "def+8",
         "workloads": {"a": {"host_calls_per_tx": 151.5}}},
    ]
    assert perf_table.render(rows).splitlines() == [
        "| PR | parent | seed | `a` | `b` |",
        "|---|---|---|---|---|",
        "| 7 | `abc` | 3 | 200.0 → 150.0 (−25.0 %) | 50.0 → 50.0 |",
        "| 8 | `def` | 3 | 150.0 → 151.5 (+1.0 %) | — |"]
    marker = perf_table.MARKER
    doc = f"intro\n{marker}\nstale\n{marker}\ntail\n"
    assert perf_table.splice(doc, "new") == (
        f"intro\n{marker}\nnew\n{marker}\ntail\n")
    with pytest.raises(ValueError):
        perf_table.render(rows[1:])  # an 'after' row without its pair


#: Each count the cost prose of docs/architecture.md quotes: the
#: sentence that quotes it (a regex over the whitespace-normalised
#: text; the count is its group), the test file and constant that pin
#: it, and the frames the constant counts beyond the quoted ones.
#: Only the call's budget profiles the 6 frames of the
#: ``env.run(until=…)`` wrapper (``run``, ``triggered``, ``ok`` twice,
#: ``value`` and the action's ``<lambda>``) beside the 7 of the call;
#: the tell's counts its ``env.run()`` as 1 frame, and the
#: transaction's 34 already include its wrapper.
QUOTED_COUNTS = [
    (r"A call to a method that never waits is three timeline entries "
     r"— delivery, CPU hold, reply — and (\d+) Python frames",
     "test_event_budgets.py", "MAX_FRAMES_PER_CALL", 6),
    (r"A `tell` has no reply.*? two timeline entries "
     r"— delivery, CPU hold — and (\d+) frames",
     "test_event_budgets.py", "MAX_FRAMES_PER_TELL", 1),
    (r"A cold activation is (\w+) Python frames",
     "test_event_budgets.py", "MAX_FRAMES_PER_ACTIVATION", 0),
    (r"a one-participant transaction (\d+) frames of `txn/` \+ `runtime/`",
     "test_event_budgets.py", "MAX_FRAMES_PER_TRANSACTION", 0),
    (r"statefun message costs at most (\d+) Python frames",
     "test_event_budgets.py", "MAX_FRAMES_PER_STATEFUN_MESSAGE", 0),
    (r"completes one page-out and starts the next is (\d+) Python calls",
     "test_working_set.py", "MAX_CALLS_PER_PAGE_OUT", 0),
]
NUMBER_WORDS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5}


def _pinned(test_file: str, name: str) -> int:
    """The value a module-level ``name = <int>`` assigns in a test."""
    tree = ast.parse((ROOT / "tests" / test_file).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{test_file} pins no {name}")


@pytest.mark.parametrize("pattern, test_file, name, offset", QUOTED_COUNTS,
                         ids=[row[2] for row in QUOTED_COUNTS])
def test_architecture_cost_counts_match_their_budgets(pattern, test_file,
                                                      name, offset):
    """A frame or call count the architecture doc quotes is the budget
    that pins it (less the frames the budget's harness adds), so a
    budget change that leaves the doc stale fails here."""
    text = " ".join((ROOT / "docs" / "architecture.md").read_text().split())
    found = re.findall(pattern, text)
    assert len(found) == 1, (pattern, found)
    quoted = NUMBER_WORDS.get(found[0]) or int(found[0])
    pinned = _pinned(test_file, name)
    assert quoted + offset == pinned, (
        f"docs/architecture.md quotes {quoted} where {test_file} pins "
        f"{name} = {pinned} (offset {offset})")
