#!/usr/bin/env python3
"""Verify that links and repo paths in README.md and docs/ resolve.

Scans every markdown link/image target in ``README.md`` and
``docs/**/*.md``; a relative target that does not exist on disk fails
the check.  Skipped: absolute URLs (``scheme://``, ``mailto:``) and
targets that resolve outside the repository root (e.g. the CI badge's
``../../actions/...`` GitHub path, which only exists server-side).

A back-ticked path that starts at one of the repo's top-level
directories (`` `tests/test_matrix.py` ``, optionally with a
``::test_name`` suffix) must exist too, so deleting or renaming a file
cannot leave a stale reference behind.  So must a back-ticked dotted
name whose first component is a package under ``src/``
(`` `repro.control.actions.execute()` ``): the longest module prefix
has to be a file there and the next component, if any, a name bound at
that module's top level (read with ``ast``, nothing is imported).

Exit status: 0 when everything resolves, 1 otherwise (the offending
``file: target`` pairs are printed).  Run from anywhere::

    python tools/check_links.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

#: ``[text](target)`` / ``![alt](target)``; the target is captured up
#: to the first ``#`` (fragment), whitespace or closing parenthesis.
LINK = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)#\s>]+)[^)]*\)")
#: `` `dir/path` `` or `` `dir/path::name` `` where ``dir`` is a
#: top-level repo directory; spans with spaces, globs or placeholders
#: are prose or commands, not file references, and do not match.
REPO_PATH = re.compile(
    r"`((?:src|tests|benchmarks|tools|docs|examples|\.github)"
    r"/[\w./-]*)(?:::[^`\s]*)?`")
#: `` `pkg.mod.name` `` or `` `pkg.mod.name()` ``.
DOTTED = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\(\))?`")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _top_level_names(module: pathlib.Path) -> set[str]:
    """Names a module binds at top level: defs, classes, assignments
    and imports (a package re-exporting a name counts)."""
    names: set[str] = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
    return names


def dotted_name_resolves(src: pathlib.Path, dotted: str) -> bool:
    """Whether ``pkg.mod[.attr...]`` names something under ``src``:
    the longest module prefix is a file and the component after it (if
    any) is bound at that module's top level."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        base = src.joinpath(*parts[:cut])
        for module in (base.with_suffix(".py"), base / "__init__.py"):
            if module.is_file():
                return (cut == len(parts)
                        or parts[cut] in _top_level_names(module))
    return False


def check(root: pathlib.Path = ROOT) -> list[str]:
    """Return ``"file: target"`` for every broken relative link and
    every back-ticked repo path or dotted name that does not exist."""
    files = [root / "README.md",
             *sorted((root / "docs").glob("**/*.md"))]
    src = root / "src"
    broken = []
    for path in files:
        if not path.exists():
            continue
        text = path.read_text()
        broken += [f"{path.relative_to(root)}: `{match.group(1)}`"
                   for match in REPO_PATH.finditer(text)
                   if not (root / match.group(1)).exists()]
        broken += [f"{path.relative_to(root)}: `{match.group(1)}`"
                   for match in DOTTED.finditer(text)
                   if (src / match.group(1).split(".")[0]).is_dir()
                   and not dotted_name_resolves(src, match.group(1))]
        for match in LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            try:
                resolved.relative_to(root)
            except ValueError:
                continue  # escapes the repo (e.g. badge URL) — skip
            if not resolved.exists():
                broken.append(
                    f"{path.relative_to(root)}: {target}")
    return broken


def main() -> int:
    broken = check()
    if broken:
        print("broken relative links / missing repo paths or names:")
        for entry in broken:
            print(f"  {entry}")
        return 1
    print("all relative links, repo paths and dotted names in "
          "README.md and docs/ resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
