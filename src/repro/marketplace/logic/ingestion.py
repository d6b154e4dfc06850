"""External-order ingestion: the idempotent multi-platform front door.

Marketplaces ingest orders from external sales channels (Wildberries,
Ozon, ...).  Channels deliver at-least-once, so the same external order
arrives more than once — concurrently on retry storms.  The dedup
registry is keyed on ``(platform, shop_id, ext_order_no)``; a key is
registered exactly once and maps to the internal order id created for
it.  Registry partitions are sharded per ``(platform, shop_id)`` so a
single grain/function owns each key and can serialise duplicates.

Whether registration and order creation are atomic is a *platform*
property: the transactional stacks do both in one ACID transaction,
the eventual stack registers first and creates the order with
at-least-once retries — the gap is what the C6 exactly-once audit
measures (duplicate internal orders, orphaned registrations).
"""

from __future__ import annotations

from repro.cow import assoc_in, dissoc_in, peek, scan_items


def shard_key(platform: str, shop_id: int) -> str:
    """Registry partition key: one shard per sales channel + shop."""
    return f"{platform}/{shop_id}"


def dedup_key(platform: str, shop_id: int, ext_order_no: str) -> str:
    """The exactly-once identity of one external order submission."""
    return f"{platform}/{shop_id}/{ext_order_no}"


def new_registry(shard: str) -> dict:
    """State of one ingestion-registry partition."""
    return {"shard": shard, "entries": {}, "next_seq": 1}


def lookup(state: dict, key: str) -> str | None:
    """The internal order id registered for ``key``, if any."""
    return state["entries"].get(key)


def register(state: dict, key: str) -> tuple[dict, str, bool]:
    """Claim ``key``; returns (state, internal order id, created?).

    A fresh key mints a deterministic internal order id from the shard
    sequence; a known key returns the originally assigned id untouched
    — the idempotent path.
    """
    existing = state["entries"].get(key)
    if existing is not None:
        return state, existing, False
    sequence = state["next_seq"]
    order_id = f"x{state['shard'].replace('/', '.')}-{sequence:05d}"
    state = assoc_in(state, ("entries", key), order_id)
    return assoc_in(state, ("next_seq",), sequence + 1), order_id, True


def rebind(state: dict, key: str, order_id: str) -> dict:
    """Point an already registered ``key`` at another internal order."""
    return assoc_in(state, ("entries", key), order_id)


def release(state: dict, key: str) -> dict:
    """Drop ``key``'s registration (nothing was created for it), so a
    later submit can retry from scratch; no-op when absent."""
    if key not in state["entries"]:
        return state
    return dissoc_in(state, ("entries", key))


def registered_keys(state: dict) -> dict:
    """key -> internal order id mapping of one partition (a copy)."""
    return dict(scan_items(peek(state, "entries")))
