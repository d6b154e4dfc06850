"""Transaction contexts: identity, priority and participant tracking."""

from __future__ import annotations

import enum
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.participant import TransactionParticipant

_txn_sequence = itertools.count(1)


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionContext:
    """Identity and state of one distributed transaction attempt.

    ``priority`` orders transactions for wait-die: lower is older and
    wins conflicts.  A retried transaction keeps its original priority
    (pass ``inherit_priority``) so that it eventually acquires its locks
    instead of starving.
    """

    def __init__(self, start_time: float,
                 inherit_priority: tuple[float, int] | None = None,
                 locking: bool = True) -> None:
        self.txid = next(_txn_sequence)
        self.start_time = start_time
        #: False under the ``AppConfig.enable_locking`` ablation: every
        #: lock request is granted at once and prepare never vetoes.
        self.locking = locking
        self.priority = inherit_priority or (start_time, self.txid)
        self.status = TransactionStatus.ACTIVE
        self.participants: dict[object, "TransactionParticipant"] = {}
        self.attempt = 1

    def register(self, participant: "TransactionParticipant") -> None:
        """Enlist a participant (idempotent)."""
        self.participants.setdefault(participant.identity, participant)

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    def older_than(self, other: "TransactionContext") -> bool:
        return self.priority < other.priority

    def __repr__(self) -> str:
        return (f"<Txn {self.txid} {self.status.value} "
                f"participants={len(self.participants)}>")
