"""Docs hygiene: every relative link and back-ticked repo path in
README.md and docs/ resolves.

Runs the same script the CI lint job runs (``tools/check_links.py``)
so a broken link fails locally before it fails in CI.
"""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_and_docs_links_resolve():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_links.py")],
        capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stdout


def test_stale_repo_path_is_reported(tmp_path):
    """A doc that names a file the repo does not have fails the check;
    real paths, test ids and non-path spans pass."""
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py")
    check_links = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_links)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "real.py").touch()
    (tmp_path / "README.md").write_text(
        "See `tools/real.py`, `tools/real.py::main`, `tools/gone.py`, "
        "`python tools/run me` and `benchmarks/*.py`.\n")
    assert check_links.check(tmp_path) == ["README.md: `tools/gone.py`"]


def test_docs_tree_present():
    # The operator documentation the README links out to.
    for name in ("architecture.md", "scenarios.md", "metrics.md"):
        assert (ROOT / "docs" / name).exists(), f"docs/{name} missing"
