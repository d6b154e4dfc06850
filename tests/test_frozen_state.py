"""Frozen-state witness for the transactional stacks.

A transactional read hands out the participant's committed (or staged)
dict behind a read-only ``MappingProxyType``, and a write stages the
dict it is given by reference — nothing is copied.  The proxy refuses
top-level writes; everything below the top level is frozen by
contract only.  This witness enforces that contract on real runs: it
deep-snapshots every dict a participant hands out or stages and, at
the end of the cell, checks that none of them changed.
"""

import copy

import pytest

from repro.apps.grains_txn import TxnOrderGrain
from repro.control import run_scenario
from repro.runtime import Environment
from repro.txn.context import TransactionContext
from repro.txn.participant import TransactionParticipant


class Witness:
    """Every distinct state object handed out or staged, with a deep
    snapshot taken when it was first seen."""

    def __init__(self) -> None:
        self.seen: dict[int, tuple[object, dict]] = {}

    def record(self, state) -> None:
        # Holding ``state`` keeps its id from being reused.
        if id(state) not in self.seen:
            self.seen[id(state)] = (state, copy.deepcopy(dict(state)))

    def mutated(self) -> int:
        return sum(state != snapshot
                   for state, snapshot in self.seen.values())


@pytest.fixture
def witness(monkeypatch):
    witness = Witness()
    read = TransactionParticipant.read
    write = TransactionParticipant.write
    read_committed = TransactionParticipant.read_committed
    write_committed = TransactionParticipant.write_committed

    def recording_read(self, ctx):
        state = yield from read(self, ctx)
        witness.record(state)
        return state

    def recording_write(self, ctx, state):
        yield from write(self, ctx, state)
        witness.record(self._staged[ctx.txid])

    def recording_read_committed(self):
        state = read_committed(self)
        witness.record(state)
        return state

    def recording_write_committed(self, state):
        write_committed(self, state)
        witness.record(self.committed_state)

    monkeypatch.setattr(TransactionParticipant, "read", recording_read)
    monkeypatch.setattr(TransactionParticipant, "write", recording_write)
    monkeypatch.setattr(TransactionParticipant, "read_committed",
                        recording_read_committed)
    monkeypatch.setattr(TransactionParticipant, "write_committed",
                        recording_write_committed)
    return witness


def run_small_cell(app: str) -> None:
    run = run_scenario("baseline", app=app, seed=5, duration_scale=0.1)
    assert sum(op.ok for op in run.metrics.ops.values()) > 0


@pytest.mark.parametrize("app", ["orleans-transactions",
                                 "customized-orleans"])
def test_no_state_is_mutated_after_it_is_handed_out(witness, app):
    run_small_cell(app)
    assert len(witness.seen) > 1000
    assert witness.mutated() == 0


def test_a_nested_write_through_a_read_is_flagged(witness, monkeypatch):
    place_order = TxnOrderGrain.place_order

    def mutating_place_order(self, order_id, items, *args, **kwargs):
        state = yield from self.txn_read()
        for order in (state["orders"].values() if state else ()):
            order["mutated"] = True  # below the proxy: not refused
        return (yield from place_order(self, order_id, items, *args,
                                       **kwargs))

    monkeypatch.setattr(TxnOrderGrain, "place_order", mutating_place_order)
    run_small_cell("orleans-transactions")
    assert witness.mutated() > 0


def test_a_top_level_write_through_a_read_raises():
    env = Environment(seed=1)
    committed = {"balance": 10, "history": [1, 2]}
    participant = TransactionParticipant(
        env, ("T", "k"), log_write_latency=0.001,
        initial_state=copy.deepcopy(committed))
    ctx = TransactionContext(env.now)

    def txn():
        state = yield from participant.read(ctx)
        with pytest.raises(TypeError):
            state["balance"] = 0
        with pytest.raises(TypeError):
            del state["history"]

    env.run(until=env.process(txn()))
    assert participant.committed_state == committed
    with pytest.raises(TypeError):
        participant.read_committed()["balance"] = 0
    assert participant.committed_state == committed
