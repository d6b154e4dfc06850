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
cannot leave a stale reference behind.

Exit status: 0 when everything resolves, 1 otherwise (the offending
``file: target`` pairs are printed).  Run from anywhere::

    python tools/check_links.py
"""

from __future__ import annotations

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

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(root: pathlib.Path = ROOT) -> list[str]:
    """Return ``"file: target"`` for every broken relative link and
    every back-ticked repo path that does not exist."""
    files = [root / "README.md",
             *sorted((root / "docs").glob("**/*.md"))]
    broken = []
    for path in files:
        if not path.exists():
            continue
        text = path.read_text()
        broken += [f"{path.relative_to(root)}: `{match.group(1)}`"
                   for match in REPO_PATH.finditer(text)
                   if not (root / match.group(1)).exists()]
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
        print("broken relative links / missing repo paths:")
        for entry in broken:
            print(f"  {entry}")
        return 1
    print("all relative links and repo paths in README.md and docs/ "
          "resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
