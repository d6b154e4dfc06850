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
And a back-ticked ``Class.attr`` (`` `Transaction._settle` ``,
optionally with ``()``) in README.md or a top-level ``docs/*.md`` must
name a class defined under ``src/`` that binds ``attr`` in its body
(a def, a nested class or an assignment), its ``__slots__``, a
``self.attr`` assignment in one of its methods, a ``Class.attr = …``
at its module's top level, or a base class that does.  A back-ticked
bare capitalised name (`` `CostModel` ``) there must name a class
defined under ``src/`` or a Python builtin (`` `None` ``,
`` `TypeError` ``).  ``docs/performance.md`` is exempt from both: a
history log names what each round removed.

Exit status: 0 when everything resolves, 1 otherwise (the offending
``file: target`` pairs are printed).  Run from anywhere::

    python tools/check_links.py
"""

from __future__ import annotations

import ast
import builtins
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
#: `` `Class.attr` `` or `` `Class.attr()` ``: a capitalised class name
#: with a lower-case letter in it (`` `BENCHMARK.json` `` is a file).
CLASS_ATTR = re.compile(
    r"`([A-Z]\w*[a-z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")
#: `` `Class` `` or `` `Class()` ``, capitalised with a lower-case
#: letter in it (`` `PAGER_READ_LATENCY` `` is a constant).
CLASS_NAME = re.compile(r"`([A-Z]\w*[a-z]\w*)(?:\(\))?`")
#: History logs, exempt from the ``Class.attr`` and class-name checks.
HISTORY = {"docs/performance.md"}

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


def _bound_in_class(node: ast.ClassDef) -> set[str]:
    """Names a class binds: defs, nested classes and assignments in its
    body, its ``__slots__`` and ``self.name`` assignments anywhere in
    it."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = (item.targets if isinstance(item, ast.Assign)
                       else [item.target])
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                names.add(target.id)
                if (target.id == "__slots__"
                        and isinstance(item.value,
                                       (ast.Tuple, ast.List, ast.Set))):
                    names.update(element.value
                                 for element in item.value.elts
                                 if isinstance(element, ast.Constant))
    for item in ast.walk(node):
        if isinstance(item, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (item.targets if isinstance(item, ast.Assign)
                       else [item.target])
            names.update(
                attribute.attr for target in targets
                for attribute in ast.walk(target)
                if isinstance(attribute, ast.Attribute)
                and isinstance(attribute.value, ast.Name)
                and attribute.value.id == "self")
    return names


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Subscript):  # ``Generic[T]``
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def class_index(src: pathlib.Path) -> dict[str, list[tuple[set, list]]]:
    """Every class defined under ``src``: name -> [(names it binds,
    its base classes' names)], one entry per definition."""
    index: dict[str, list[tuple[set, list]]] = {}
    for module in sorted(src.rglob("*.py")):
        tree = ast.parse(module.read_text())
        defined = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined[node.name] = names = _bound_in_class(node)
                index.setdefault(node.name, []).append(
                    (names, [_base_name(base) for base in node.bases]))
        # ``Class.attr = ...`` at the module's top level binds it too.
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in defined):
                        defined[target.value.id].add(target.attr)
    return index


def class_attr_resolves(index: dict, cls: str, attr: str,
                        seen: frozenset = frozenset()) -> bool:
    """Whether a class named ``cls`` in ``index`` binds ``attr``, itself
    or through a base class defined there too."""
    for names, bases in index.get(cls, ()):
        if attr in names:
            return True
        if any(base not in seen and class_attr_resolves(
                index, base, attr, seen | {cls}) for base in bases):
            return True
    return False


def check(root: pathlib.Path = ROOT) -> list[str]:
    """Return ``"file: target"`` for every broken relative link and
    every back-ticked repo path, dotted name, ``Class.attr`` or class
    name that does not exist."""
    files = [root / "README.md",
             *sorted((root / "docs").glob("**/*.md"))]
    src = root / "src"
    index = class_index(src) if src.is_dir() else {}
    broken = []
    for path in files:
        if not path.exists():
            continue
        text = path.read_text()
        name = path.relative_to(root).as_posix()
        if (path.parent in (root, root / "docs")
                and name not in HISTORY):
            broken += [f"{name}: `{match.group(1)}.{match.group(2)}`"
                       for match in CLASS_ATTR.finditer(text)
                       if not class_attr_resolves(
                           index, match.group(1), match.group(2))]
            broken += [f"{name}: `{match.group(1)}`"
                       for match in CLASS_NAME.finditer(text)
                       if match.group(1) not in index
                       and match.group(1) not in vars(builtins)]
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
        print("broken relative links / missing repo paths, names, "
              "class attributes or classes:")
        for entry in broken:
            print(f"  {entry}")
        return 1
    print("all relative links, repo paths, dotted names, class "
          "attributes and class names in README.md and docs/ resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
