"""Committed goldens: the payload bytes of every matrix cell.

``golden_payloads.json`` holds, for every ``scenario_names()`` ×
``ALL_APPS`` cell at seed 5, ``duration_scale`` 0.15, the blake2b-8 of
the canonical cell payload (``"payload"``) and of each of its top-level
keys (``"keys"``: ``availability``, ``criteria``, ``open_loop``, ``ops``
…).  Same seed, same bytes — in any process, under any
``PYTHONHASHSEED`` — so a payload that moves fails here naming the cell
and the keys that moved, to be reviewed like any other change.  After
an intended move, regenerate the file (this prints the same per-key
diff) with::

    PYTHONPATH=src python tests/test_golden_payloads.py
"""

import copy
import functools
import hashlib
import json
import pathlib

import pytest

from repro.apps import ALL_APPS
from repro.core.matrix import MatrixCell, run_cell
from repro.core.scenarios import scenario_names

GOLDEN = pathlib.Path(__file__).with_name("golden_payloads.json")

CELLS = [MatrixCell(scenario, app, seed=5, duration_scale=0.15)
         for scenario in scenario_names()
         for app in sorted(ALL_APPS)]


def _hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def payload_hashes(payload: dict) -> dict:
    """The golden entry of one cell: whole-payload and per-key hashes."""
    return {"payload": _hash(payload),
            "keys": {key: _hash(value)
                     for key, value in sorted(payload.items())}}


@functools.cache
def cell_payload(cell: MatrixCell) -> dict:
    result = run_cell(cell)
    assert result.ok, result.error
    return result.payload


def diff(golden: dict, current: dict) -> list[str]:
    """``cell: key, key`` for every cell whose hashes differ."""
    lines = []
    for cell_id in sorted(golden.keys() | current.keys()):
        old, new = golden.get(cell_id), current.get(cell_id)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{cell_id}: {'added' if old is None else 'removed'}")
            continue
        keys = sorted(key for key in old["keys"].keys() | new["keys"].keys()
                      if old["keys"].get(key) != new["keys"].get(key))
        lines.append(f"{cell_id}: {', '.join(keys) or 'payload'}")
    return lines


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.cell_id)
def test_payload_matches_golden(cell):
    golden = json.loads(GOLDEN.read_text())
    current = {cell.cell_id: payload_hashes(cell_payload(cell))}
    moved = diff({cell.cell_id: golden.get(cell.cell_id)}, current)
    assert not moved, (
        f"payload bytes moved ({'; '.join(moved)}); if that is intended, "
        "regenerate tests/golden_payloads.json (see this module's "
        "docstring)")


def test_golden_covers_exactly_the_matrix():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(cell.cell_id for cell in CELLS)


def test_diff_names_exactly_the_perturbed_cell_and_key():
    golden = json.loads(GOLDEN.read_text())
    cell = CELLS[0]
    payload = copy.deepcopy(cell_payload(cell))
    payload["open_loop"]["arrivals"] += 1
    perturbed = dict(golden, **{cell.cell_id: payload_hashes(payload)})
    assert diff(golden, perturbed) == [f"{cell.cell_id}: open_loop"]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {cell.cell_id: payload_hashes(cell_payload(cell))
           for cell in CELLS}
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    moved = diff(old, new)
    print("\n".join(moved) if moved else "no payload moved")
