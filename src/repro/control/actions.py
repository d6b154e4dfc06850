"""Typed control actions: the commands that change cluster shape.

Every membership change in a run — a scheduled fault
(:mod:`repro.control.faults`) or an autoscaler decision — is one of the
frozen commands below, dispatched by :func:`execute` into one audited
record format.

Each action names the verb it invokes on a *scaling host* — an actor
cluster (``add_silo``/``drain_silo``/``crash_silo``) or the dataflow
runtime (which exposes ``add_silo``/``drain_silo`` for stop-the-world
rescale, see :meth:`repro.dataflow.runtime.StatefunRuntime.add_silo`).
A record carries ``time``/``action``/``target``/``applied``/``detail``
plus a ``source`` field saying who issued the command (``"fault"`` or
``"autoscaler"``).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ControlAction:
    """Base class for typed membership commands.

    ``target`` is an optional silo name: the victim of a drain or
    crash, the name a joining silo takes.  ``None`` lets the host name
    the joiner and lets the control plane pick the drain victim (the
    newest live silo, resolved before dispatch).
    """

    target: str | None = None

    #: Name of the verb — also the method invoked on the scaling host.
    kind = "noop"


@dataclasses.dataclass(frozen=True)
class AddSilo(ControlAction):
    """Bring one silo (or dataflow partition worker) into the cluster."""

    kind = "add_silo"


@dataclasses.dataclass(frozen=True)
class DrainSilo(ControlAction):
    """Gracefully retire one silo, migrating its state first."""

    kind = "drain_silo"


@dataclasses.dataclass(frozen=True)
class CrashSilo(ControlAction):
    """Fail one silo without warning (fault injection)."""

    kind = "crash_silo"


def execute(host: object, action: ControlAction, now: float,
            source: str = "fault") -> dict:
    """Invoke ``action`` on ``host`` and return one audited record.

    A missing host or verb is recorded as skipped, an exception from the
    verb is recorded (not raised — a schedule may legitimately race a
    crash against a drain), and the verb's return value is captured as
    ``repr`` in ``detail`` (deterministic — silo and process reprs
    carry no ids or addresses).  Actor-cluster hosts resolve string
    targets to silos themselves.
    """
    record = {
        "time": now,
        "action": action.kind,
        "target": action.target,
        "applied": False,
        "detail": "",
        "source": source,
    }
    verb = getattr(host, action.kind, None) if host is not None else None
    if host is None or not callable(verb):
        record["detail"] = "target does not support this action"
        return record
    try:
        if action.target is None:
            result = verb()
        else:
            result = verb(action.target)
    except Exception as error:  # noqa: BLE001 - logged, not fatal
        record["detail"] = f"{type(error).__name__}: {error}"
        return record
    record["applied"] = True
    record["detail"] = repr(result)
    return record
