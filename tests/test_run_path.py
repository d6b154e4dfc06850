"""One run path: every driver run is a ``Scenario`` through
``repro.control.run_scenario``.

Only ``Scenario.build_driver`` constructs a driver, and only the
facade builds an ``Environment`` — apart from the two examples that
script processes on a bare environment with no driver.  A second
assembly in ``src/``, ``benchmarks/`` or ``examples/`` fails here.
The perf ledger (``benchmarks/ledger/``) times each assembly step on
its own and is not scanned.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Callable name -> the files allowed to call it.
ALLOWED = {
    "BenchmarkDriver": {"src/repro/core/scenarios.py"},
    "OpenLoopDriver": {"src/repro/core/scenarios.py"},
    "Environment": {"src/repro/control/facade.py",
                    "examples/failure_recovery.py",
                    "examples/seller_dashboard.py"},
}


def assemblies(root: pathlib.Path) -> list[str]:
    """``path:line: Name(`` for every call outside its allowed files."""
    found = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if relative.startswith("benchmarks/ledger/"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name in ALLOWED and relative not in ALLOWED[name]:
                    found.append(f"{relative}:{node.lineno}: {name}(")
    return found


def test_only_the_run_path_assembles_a_run():
    assert assemblies(ROOT) == []


def test_a_second_assembly_is_reported(tmp_path):
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks" / "ledger").mkdir(parents=True)
    (tmp_path / "examples" / "mine.py").write_text(
        "env = runtime.Environment(seed=1)\n"
        "driver = BenchmarkDriver(env, app, workload, config)\n")
    (tmp_path / "benchmarks" / "ledger" / "cell.py").write_text(
        "env = Environment(seed=1)\n")
    assert assemblies(tmp_path) == [
        "examples/mine.py:1: Environment(",
        "examples/mine.py:2: BenchmarkDriver(",
    ]
