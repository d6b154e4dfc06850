"""Grain base class and grain references."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster
    from repro.actors.silo import Message, Silo
    from repro.runtime import Environment


class Grain:
    """Base class for virtual actors.

    Subclasses define *grain methods* as generator methods; inside a
    method, ``yield`` an event (for example another grain call) to wait
    for it.  A grain processes one message at a time unless the subclass
    sets ``reentrant = True``; a message first holds a silo core for
    the cluster's ``grain_cpu``.

    Class attributes
    ----------------
    reentrant:
        When True, messages may be processed concurrently (interleaving
        at yield points).
    """

    reentrant: bool = False
    #: The instance attribute captured by the working-set pager when
    #: the grain is deactivated under an activation budget, and
    #: restored on re-activation.  None means the grain is not
    #: pageable: evicting it would destroy state, so the working-set
    #: sweep leaves it resident.
    paged_attr: str | None = None

    # Set by the runtime at activation time.  Class defaults, not an
    # ``__init__``: activating a grain builds it without a Python frame.
    env: "Environment" = None  # type: ignore[assignment]
    cluster: "Cluster" = None  # type: ignore[assignment]
    silo: "Silo" = None  # type: ignore[assignment]
    key: str = ""
    current_txn = None  # transaction context, set per message

    # ------------------------------------------------------------------
    # working-set paging (under an activation budget)
    # ------------------------------------------------------------------
    def page_out(self) -> dict | None:
        """Capture volatile state for the working-set pager.

        Returns the attribute snapshot to persist, or None to refuse
        paging (the default for grains that declare no ``paged_attr``,
        and for grains whose state must not leave memory right now —
        e.g. a transactional grain holding locks).
        """
        attr = self.paged_attr
        if attr is None:
            return None
        return {attr: getattr(self, attr)}

    def page_in(self, paged: dict) -> None:
        """Restore the snapshot captured by :meth:`page_out`."""
        for attr, value in paged.items():
            setattr(self, attr, value)

    # ------------------------------------------------------------------
    # helpers available inside grain methods
    # ------------------------------------------------------------------
    def call(self, ref: "GrainRef", method: str, *args,
             **kwargs) -> "Message":
        """Call another grain, propagating the transaction context.

        Name the callee with ``self.cluster.grain_ref(type, key)``."""
        return self.cluster._route(ref, method, args, kwargs,
                                   self.current_txn, self.silo)

    def publish(self, topic: str, key: str, payload: object,
                causal_deps: typing.Iterable[int] = ()):
        """Publish an application event to the cluster's broker."""
        return self.cluster.broker.publish(topic, key, payload,
                                           causal_deps=causal_deps)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} key={self.key!r}>"


class GrainRef:
    """A location-transparent handle to a grain.

    Interned: ``Cluster.grain_ref`` builds one per (type, key) and
    cluster and hands the same object back on every later lookup.
    """

    __slots__ = ("cluster", "grain_type", "key", "type_name", "ident")

    def __init__(self, cluster: "Cluster", grain_type: type[Grain],
                 key: str) -> None:
        self.cluster = cluster
        self.grain_type = grain_type
        self.key = key
        self.type_name = type_name = grain_type.__name__
        #: Key of activation tables, grain directory and routing cache.
        self.ident = (type_name, key)

    def call(self, method: str, *args, txn=None, caller_silo=None,
             **kwargs) -> "Message":
        """Invoke ``method`` on the grain; returns the message, which is
        the caller's promise.

        It fires with the method's return value, or fails with the
        exception the method raised.
        """
        return self.cluster._route(self, method, args, kwargs, txn,
                                   caller_silo)

    def tell(self, method: str, *args, **kwargs) -> None:
        """Fire-and-forget invocation: no reply travels back, and a
        failure — the method raising, the message dropped, the silo
        crashing under the turn — is lost, never raised."""
        self.cluster._route(self, method, args, kwargs, None, None, True)

    def __repr__(self) -> str:
        return f"<GrainRef {self.type_name}/{self.key}>"
