"""Grain base class and grain references."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster
    from repro.actors.silo import Silo
    from repro.runtime import Environment, Event


class Grain:
    """Base class for virtual actors.

    Subclasses define *grain methods* as generator methods; inside a
    method, ``yield`` an event (for example another grain call) to wait
    for it.  A grain processes one message at a time unless the subclass
    sets ``reentrant = True``.

    Class attributes
    ----------------
    cpu_cost:
        Simulated CPU seconds charged on the hosting silo per invocation
        (before the method body runs).
    storage_name:
        When set, ``self.state`` is loaded from the cluster's storage
        provider of that name at activation, and :meth:`write_state`
        persists it.
    reentrant:
        When True, messages may be processed concurrently (interleaving
        at yield points).
    """

    cpu_cost: float = 0.0001
    storage_name: str | None = None
    reentrant: bool = False
    #: Instance attributes captured by the working-set pager when a
    #: volatile (non-storage-backed) grain is deactivated under an
    #: activation budget, and restored on re-activation.  Empty means
    #: the grain is not pageable: evicting it would destroy state, so
    #: the working-set sweep leaves it resident.  Storage-backed grains
    #: ignore this — their own storage provider already persists
    #: ``self.state``.
    paged_attrs: tuple[str, ...] = ()

    def __init__(self) -> None:
        # Filled in by the runtime at activation time.
        self.env: "Environment" = None  # type: ignore[assignment]
        self.cluster: "Cluster" = None  # type: ignore[assignment]
        self.silo: "Silo" = None  # type: ignore[assignment]
        self.key: str = ""
        self.state: dict[str, typing.Any] = {}
        self.current_txn = None  # transaction context, set per message
        self.activation = None  # set by the runtime

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_activate(self):
        """Override to run logic at activation (may be a generator)."""
        return None

    def on_deactivate(self):
        """Override to run logic at deactivation (may be a generator)."""
        return None

    # ------------------------------------------------------------------
    # working-set paging (volatile grains under an activation budget)
    # ------------------------------------------------------------------
    def page_out(self) -> dict | None:
        """Capture volatile state for the working-set pager.

        Returns the attribute snapshot to persist, or None to refuse
        paging (the default for grains that declare no ``paged_attrs``,
        and for grains whose state must not leave memory right now —
        e.g. a transactional grain holding locks).
        """
        if not self.paged_attrs:
            return None
        return {attr: getattr(self, attr) for attr in self.paged_attrs}

    def page_in(self, paged: dict) -> None:
        """Restore the snapshot captured by :meth:`page_out`."""
        for attr, value in paged.items():
            setattr(self, attr, value)

    # ------------------------------------------------------------------
    # helpers available inside grain methods
    # ------------------------------------------------------------------
    def grain_ref(self, grain_type: type["Grain"] | str,
                  key: str) -> "GrainRef":
        """Reference another grain by type and key."""
        return self.cluster.grain_ref(grain_type, key)

    def call(self, ref: "GrainRef", method: str, *args,
             **kwargs) -> "Event":
        """Call another grain, propagating the transaction context."""
        return ref.call(method, *args, txn=self.current_txn,
                        caller_silo=self.silo, **kwargs)

    def cpu(self, seconds: float):
        """Process helper: charge extra CPU on the hosting silo."""
        return self.silo.cpu.use(seconds)

    def register_timer(self, interval: float, method: str,
                       *args, **kwargs) -> None:
        """Invoke ``method`` on this grain every ``interval`` seconds
        (through the mailbox, like Orleans' RegisterTimer)."""
        self.activation.register_timer(interval, method, *args, **kwargs)

    def write_state(self):
        """Process helper: persist ``self.state``.

        The storage provider materialises the state into a frozen
        version (copy-on-write views persist only their changes).
        """
        storage = self.cluster.storage(self.storage_name)
        yield from storage.write(type(self).__name__, self.key,
                                 self.state)

    def clear_state(self):
        """Process helper: delete persisted state."""
        storage = self.cluster.storage(self.storage_name)
        yield from storage.clear(type(self).__name__, self.key)

    def publish(self, topic: str, key: str, payload: object,
                causal_deps: typing.Iterable[int] = ()):
        """Publish an application event to the cluster's broker."""
        return self.cluster.broker.publish(topic, key, payload,
                                           causal_deps=causal_deps)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} key={self.key!r}>"


class GrainRef:
    """A location-transparent handle to a grain."""

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
             **kwargs) -> "Event":
        """Invoke ``method`` on the grain; returns a promise event.

        The promise fires with the method's return value, or fails with
        the exception the method raised.
        """
        return self.cluster.dispatch(self, method, args, kwargs,
                                     txn=txn, caller_silo=caller_silo)

    def tell(self, method: str, *args, **kwargs) -> None:
        """Fire-and-forget invocation (failures are logged, not raised)."""
        promise = self.call(method, *args, **kwargs)
        self.cluster.track_oneway(promise)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrainRef):
            return NotImplemented
        return (self.grain_type is other.grain_type
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.grain_type, self.key))

    def __repr__(self) -> str:
        return f"<GrainRef {self.type_name}/{self.key}>"
