"""Cross-run merge and rendering of experiment-matrix results.

Takes the per-cell results of a :func:`repro.core.matrix.run_matrix`
run and folds them into the comparison surface the paper reports: one
table per scenario with a row per (app, rate-scale), aggregated over
the seed sweep — mean plus sample standard deviation (the error bars)
for throughput and checkout latency, an availability percentage for
fault scenarios, and the worst criteria score any seed produced.

Pure functions over plain data: cells come in as
:class:`repro.core.matrix.CellResult` (their ``payload`` dicts are
canonical, wall-clock-free simulated-time records), tables go out as
dict rows ready for :func:`format_table` (console) or JSON export.
"""

from __future__ import annotations

import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.matrix import CellResult, MatrixResult


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _stdev(values: list[float]) -> float:
    """Sample standard deviation (0.0 below two samples)."""
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((value - mean) ** 2 for value in values)
                     / (len(values) - 1))


def _checkout_ms(payload: dict, field: str) -> float:
    """Checkout latency column (ms) from a cell payload, 0.0 if the
    mix produced no checkouts."""
    for row in payload.get("ops", ()):
        if row.get("operation") == "checkout":
            return float(row.get(field, 0.0))
    return 0.0


def availability_pct(payload: dict) -> float:
    """Percentage of measured seconds the cell was available.

    100.0 for runs without (applied) faults; otherwise derived from
    the availability summary's unavailable-second count.
    """
    summary = payload.get("availability")
    duration = payload.get("duration") or 0.0
    if not summary or duration <= 0:
        return 100.0
    unavailable = summary.get("unavailable_seconds", 0)
    return max(0.0, 100.0 * (1.0 - unavailable / duration))


def _criteria_score(payload: dict) -> tuple[int, int]:
    criteria = payload.get("criteria", {})
    passed = sum(1 for entry in criteria.values() if entry["passed"])
    return passed, len(criteria)


def merge_cells(results: "typing.Sequence[CellResult]",
                ) -> dict[str, list[dict]]:
    """Fold cell results into per-scenario comparison tables.

    Returns ``{scenario: [row, ...]}``; each row aggregates one
    (app, rate-scale) group over its seed sweep.  ``*_sd`` columns are
    sample standard deviations across seeds — 0.0 for single-seed
    sweeps.  Failed/crashed cells are counted per group (``failed``)
    and excluded from the aggregates.
    """
    groups: dict[tuple[str, str, float], list[CellResult]] = {}
    order: list[tuple[str, str, float]] = []
    for result in results:
        key = (result.cell.scenario, result.cell.app,
               result.cell.rate_scale)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(result)

    tables: dict[str, list[dict]] = {}
    for key in order:
        scenario, app, rate_scale = key
        members = groups[key]
        payloads = [member.payload for member in members
                    if member.ok and member.payload is not None]
        tps = [payload["total_tps"] for payload in payloads]
        p50 = [_checkout_ms(payload, "p50_ms") for payload in payloads]
        p99 = [_checkout_ms(payload, "p99_ms") for payload in payloads]
        avail = [availability_pct(payload) for payload in payloads]
        scores = [_criteria_score(payload) for payload in payloads]
        worst = min(scores, default=(0, 0))
        row = {
            "app": app,
            "rate_scale": rate_scale,
            "seeds": len(payloads),
            "failed": len(members) - len(payloads),
            "tps": round(_mean(tps), 1),
            "tps_sd": round(_stdev(tps), 1),
            "checkout_p50_ms": round(_mean(p50), 2),
            "p50_sd": round(_stdev(p50), 2),
            "checkout_p99_ms": round(_mean(p99), 2),
            "p99_sd": round(_stdev(p99), 2),
            "avail_pct": round(_mean(avail), 1) if avail else 0.0,
            "criteria": f"{worst[0]}/{worst[1]}" if scores else "-",
        }
        tables.setdefault(scenario, []).append(row)
    return tables


def format_table(rows: list[dict],
                 columns: list[str] | None = None) -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       *(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines = [header, "-" * len(header)]
    lines.extend("  ".join(str(row.get(col, "")).ljust(widths[col])
                           for col in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _display_rows(rows: list[dict]) -> list[dict]:
    """Collapse mean/sd column pairs into ``mean ±sd`` console cells
    (the sd is omitted for single-seed sweeps, where it is 0 by
    construction)."""
    collapsed = []
    for row in rows:
        multi = row["seeds"] > 1
        collapsed.append({
            "app": row["app"],
            "rate": f"{row['rate_scale']:g}x",
            "seeds": row["seeds"],
            "tps": (f"{row['tps']} ±{row['tps_sd']}" if multi
                    else f"{row['tps']}"),
            "checkout p50 ms": (
                f"{row['checkout_p50_ms']} ±{row['p50_sd']}" if multi
                else f"{row['checkout_p50_ms']}"),
            "checkout p99 ms": (
                f"{row['checkout_p99_ms']} ±{row['p99_sd']}" if multi
                else f"{row['checkout_p99_ms']}"),
            "avail %": row["avail_pct"],
            "criteria": row["criteria"],
            "failed": row["failed"] or "",
        })
    return collapsed


def render_matrix_report(result: "MatrixResult") -> str:
    """The merged console report: header, one table per scenario
    (per-app throughput/latency/availability columns, seed-sweep error
    bars) and a failure list."""
    lines = [
        f"matrix: {len(result.cells)} cells  "
        f"workers: {result.workers}  "
        f"wall: {result.wall_s:.1f}s  "
        f"ok: {len(result.completed)}  "
        f"failed: {len(result.failures)}",
    ]
    tables = merge_cells(result.cells)
    for scenario, rows in tables.items():
        lines.append(f"\nscenario: {scenario}")
        lines.append(format_table(_display_rows(rows)).rstrip("\n"))
    if result.failures:
        lines.append("\nfailed cells:")
        for failure in result.failures:
            lines.append(f"  {failure.cell.cell_id:40s} "
                         f"{failure.status}: {failure.error}")
    return "\n".join(lines) + "\n"


def matrix_report_json(result: "MatrixResult") -> dict:
    """The full machine-readable export: per-cell records (status,
    wall time, canonical payload) plus the merged per-scenario
    tables."""
    return dict(result.as_dict(), tables=merge_cells(result.cells))
