#!/usr/bin/env python3
"""Render the ``host_calls_per_tx`` trajectory into docs/performance.md.

``benchmarks/perf_history.jsonl`` holds one ledger before/after pair
per change that moved a host count.  This script turns it into one
markdown table — one row per pair, one column per ledger workload,
each cell ``before → after`` — and writes it between the two
``<!-- generated -->`` markers of ``docs/performance.md``, so the
trajectory in the docs is never typed by hand::

    python tools/perf_table.py           # rewrite the block in place
    python tools/perf_table.py --check   # exit 1 if it is out of date
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = ROOT / "benchmarks" / "perf_history.jsonl"
DOC = ROOT / "docs" / "performance.md"
MARKER = "<!-- generated -->"
METRIC = "host_calls_per_tx"


def _cell(before: dict, after: dict, workload: str) -> str:
    if workload not in before or workload not in after:
        return "—"
    old = before[workload][METRIC]
    new = after[workload][METRIC]
    change = (new - old) / old * 100
    if round(change, 1) == 0:
        return f"{old:.1f} → {new:.1f}"
    return f"{old:.1f} → {new:.1f} ({change:+.1f} %)".replace("-", "−")


def render(rows: list[dict]) -> str:
    """The markdown table of ``rows`` (perf-history lines, in order)."""
    before: dict[tuple, dict] = {}
    pairs = []
    workloads: list[str] = []
    for row in rows:
        for workload in row["workloads"]:
            if workload not in workloads:
                workloads.append(workload)
        key = (row["pr"], row["seed"])
        if row["side"] == "before":
            before[key] = row
        elif key not in before:
            raise ValueError(f"PR {row['pr']}: 'after' row without a "
                             f"'before' row at seed {row['seed']}")
        else:
            pairs.append((before.pop(key), row))
    if before:
        raise ValueError(f"unpaired 'before' rows: {sorted(before)}")
    lines = ["| PR | parent | seed | "
             + " | ".join(f"`{workload}`" for workload in workloads)
             + " |",
             "|---|---|---|" + "---|" * len(workloads)]
    for old, new in pairs:
        cells = [_cell(old["workloads"], new["workloads"], workload)
                 for workload in workloads]
        lines.append(f"| {new['pr']} | `{old['commit']}` | {old['seed']} | "
                     + " | ".join(cells) + " |")
    return "\n".join(lines)


def splice(doc: str, table: str) -> str:
    """``doc`` with the text between its two markers replaced by
    ``table``."""
    parts = doc.split(MARKER)
    if len(parts) != 3:
        raise ValueError(f"expected exactly two {MARKER!r} markers, "
                         f"found {len(parts) - 1}")
    return f"{parts[0]}{MARKER}\n{table}\n{MARKER}{parts[2]}"


def regenerate() -> str:
    """The text docs/performance.md should have, given the history."""
    rows = [json.loads(line) for line in
            HISTORY.read_text().splitlines() if line.strip()]
    return splice(DOC.read_text(), render(rows))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if the committed table is out of date")
    args = parser.parse_args(argv)
    text = regenerate()
    if args.check:
        if text != DOC.read_text():
            print(f"{DOC.relative_to(ROOT)}: the generated trajectory is "
                  f"out of date; run python tools/perf_table.py")
            return 1
        return 0
    DOC.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
