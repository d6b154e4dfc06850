"""Append-only audit log storage (Figure 1: "log storage to store
audit logging").

The customized stack records every completed business transaction to an
append-only log, asynchronously (audit writes must not sit on the
critical path).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment

_sequence = itertools.count(1)

#: Simulated latency of one audit-log append.
AUDIT_WRITE_LATENCY = 0.0003


@dataclasses.dataclass(frozen=True)
class AuditRecord:
    """One audited business transaction."""

    sequence: int
    time: float
    operation: str
    subject: str  # order id / product key / seller id
    payload: dict


class AuditLogStore:
    """Asynchronous append-only audit log with simulated write latency."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: The appended records, oldest first.
        self.records: list[AuditRecord] = []
        self.pending = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append_async(self, operation: str, subject: str,
                     payload: dict | None = None) -> None:
        """Fire-and-forget append (does not block the caller)."""
        self.pending += 1
        self.env.process(self._write(operation, subject, payload or {}),
                         name="audit-append")

    def _write(self, operation: str, subject: str, payload: dict):
        yield self.env.timeout(AUDIT_WRITE_LATENCY)
        self.records.append(AuditRecord(
            sequence=next(_sequence), time=self.env.now,
            operation=operation, subject=subject, payload=dict(payload)))
        self.pending -= 1

    def __len__(self) -> int:
        return len(self.records)
