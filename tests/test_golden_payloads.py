"""Committed goldens: the payload bytes of the current baseline.

``golden_payloads.json`` holds the blake2b-8 of the canonical cell
payload of ``baseline`` (a small, preloaded world) and ``million-keys``
(a large one, installed on first touch) on each of the four stacks at
seed 5, ``duration_scale`` 0.15.  Same seed, same bytes — in any
process, under any ``PYTHONHASHSEED`` — so a payload that moves shows
up as a diff of that file, to be reviewed like any other change.
After an intended move, regenerate it with::

    PYTHONPATH=src python tests/test_golden_payloads.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.apps import ALL_APPS
from repro.core.matrix import MatrixCell, run_cell

GOLDEN = pathlib.Path(__file__).with_name("golden_payloads.json")

CELLS = [MatrixCell(scenario, app, seed=5, duration_scale=0.15)
         for scenario in ("baseline", "million-keys")
         for app in sorted(ALL_APPS)]


def payload_hash(cell: MatrixCell) -> str:
    result = run_cell(cell)
    assert result.ok, result.error
    return hashlib.blake2b(result.canonical_json.encode(),
                           digest_size=8).hexdigest()


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.cell_id)
def test_payload_matches_golden(cell):
    golden = json.loads(GOLDEN.read_text())
    assert payload_hash(cell) == golden[cell.cell_id], (
        "payload bytes moved; if that is intended, regenerate "
        "tests/golden_payloads.json (see this module's docstring)")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {cell.cell_id: payload_hash(cell) for cell in CELLS},
        indent=1) + "\n")
