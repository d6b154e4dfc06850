"""Frozen-state helpers shared by every app stack.

The simulator's states are JSON-ish trees (dicts, lists, sets, tuples
and atoms).  Transactional state is a *frozen* dict: a participant
hands out its committed (or staged) dict behind a read-only
``types.MappingProxyType``, an updater returns a new dict, and a write
stages that dict by reference (:mod:`repro.txn.participant`).  An
update copies one dict per level of the path it touches, at C speed,
and never walks the state in Python.

``assoc_in(tree, path, value)`` / ``dissoc_in(tree, path)``
    The one way to change a key deep inside a state tree.  A plain
    dict (or read-only proxy) is path-copied with ``{**d}`` per level
    and never mutated, so untouched sub-trees stay shared with the
    input.  ``dict(x)`` plus an in-place write, the idiom they
    replace, is exactly the mutation a frozen tree forbids.

``materialize(value)``
    Rebuilds every plain container the caller could still reach, so
    the result is isolated from later mutations of the source.  It
    serves ``TransactionParticipant.write_committed`` — ingestion and
    event-driven replica updates, whose callers keep their dicts.

``clone(value)``
    A fully detached deep clone specialised for plain-data trees, at a
    fraction of ``copy.deepcopy``'s constant cost (no memo dict, no
    type dispatch tables).  Outside this module no ``src/`` path uses
    it: the grain pager keeps frozen snapshots by reference, and
    dataflow checkpoints isolate statefun state (a value below its top
    level) with a shallow ``dict(state)``.

``CowState`` / ``CowList``
    Lazy copy-on-write views over a frozen base, with a private
    overlay per view.  No ``src/`` path builds one any more; they stay
    only because the benchmark ledger profiles ``CowState.__init__``
    and ``materialize`` by name, and go with the ledger change that
    stops profiling them (ROADMAP, "delete the CoW view layer").

The frozen-state contract for state authors:

* A transactional read is read-only: the proxy refuses top-level
  writes, and containers below it are frozen by contract.  Build the
  new state with ``assoc_in`` / ``{**state, ...}`` and hand it to
  ``txn_write``.
* Never mutate a dict after ``txn_write``: commit installs it by
  reference and later versions share its sub-trees.
* Values must be plain data: dict/list/tuple/set/str/int/float/bool/
  bytes/None.  Unknown object types are treated as atoms and shared.

``tests/test_frozen_state.py`` checks the contract on both
transactional stacks.  The operator-facing version lives in
``docs/architecture.md`` ("The frozen-state contract").
"""

from __future__ import annotations

import typing
from collections.abc import MutableMapping, MutableSequence
from types import MappingProxyType

_DELETED = object()
"""Overlay marker: the key exists in the base but was deleted."""

_MISSING = object()
"""Internal sentinel distinguishing "absent" from a stored ``None``."""


def _tuple_aliases_mutable(value: tuple) -> bool:
    """True when a tuple (transitively) contains a mutable container.

    Such a tuple cannot be shared through a view: the caller could
    reach the base's dict/list/set through it and mutate committed
    state in place, so it must be copied like a set.
    """
    for item in value:
        kind = type(item)
        if kind is dict or kind is list or kind is set:
            return True
        if kind is tuple and _tuple_aliases_mutable(item):
            return True
    return False


def _wrap(value):
    """An isolated view (or copy) of a base value, or the atom itself."""
    kind = type(value)
    if kind is dict:
        return CowState(value)
    if kind is list:
        return CowList(value)
    if kind is set:
        # Sets cannot be proxied cheaply; hand out a copy.  Callers
        # treat the copy as part of their private view, so it must be
        # cached (and conservatively counted as a change) upstream.
        return set(value)
    if kind is tuple and _tuple_aliases_mutable(value):
        # A tuple holding mutable containers would alias the base;
        # clone it (and count it as a change, like a set) instead.
        return clone(value)
    return value


class CowState(MutableMapping):
    """A copy-on-write dict view over a frozen base mapping.

    Reads pass through to the base, wrapping nested containers in
    further views so that *any* mutation reachable from this view is
    recorded in an overlay instead of touching the base.  Creating a
    view is O(1); its memory footprint is O(keys actually touched).
    """

    __slots__ = ("_base", "_written", "_wrapped")

    def __init__(self, base: typing.Mapping | None = None) -> None:
        self._base: typing.Mapping = {} if base is None else base
        #: Explicit writes/deletes: key -> value or _DELETED.
        self._written: dict = {}
        #: Cached views of base values (keys not in _written).
        self._wrapped: dict = {}

    # -- reads ----------------------------------------------------------
    def __getitem__(self, key):
        written = self._written
        if written:
            value = written.get(key, _MISSING)
            if value is not _MISSING:
                if value is _DELETED:
                    raise KeyError(key)
                return value
        wrapped = self._wrapped
        if wrapped:
            value = wrapped.get(key, _MISSING)
            if value is not _MISSING:
                return value
        value = self._base[key]
        kind = type(value)
        if kind is dict:
            view = CowState(value)
            wrapped[key] = view
            return view
        if kind is list:
            view = CowList(value)
            wrapped[key] = view
            return view
        if kind is set:
            # A set copy cannot report whether it was mutated, so
            # record it as a (conservative) write.
            view = set(value)
            written[key] = view
            return view
        if kind is tuple and _tuple_aliases_mutable(value):
            # Same treatment for tuples holding mutable containers.
            view = clone(value)
            written[key] = view
            return view
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def items(self):
        """Iterate (key, value) pairs; nested containers come as views.

        Semantically identical to the inherited ``ItemsView`` but
        without the per-key hash lookups of ``for k in self: self[k]``.
        """
        written = self._written
        wrapped = self._wrapped
        for key, value in self._base.items():
            if key in written:
                value = written[key]
                if value is _DELETED:
                    continue
                yield key, value
            elif key in wrapped:
                yield key, wrapped[key]
            else:
                kind = type(value)
                if kind is dict:
                    value = wrapped[key] = CowState(value)
                elif kind is list:
                    value = wrapped[key] = CowList(value)
                elif kind is set:
                    value = written[key] = set(value)
                elif kind is tuple and _tuple_aliases_mutable(value):
                    value = written[key] = clone(value)
                yield key, value
        base = self._base
        for key, value in list(written.items()):
            if key not in base and value is not _DELETED:
                yield key, value

    def values(self):
        for _, value in self.items():
            yield value

    def keys(self):
        """Key view; C-level when no key was written or deleted.

        ``dict(view)`` / ``{**view}`` fetch ``keys()`` and then index
        each key, so handing back the frozen base's own key view (valid
        while the overlay holds no key changes) skips a Python-level
        generator resumption per key.
        """
        if not self._written:
            return self._base.keys()
        return super().keys()

    def __contains__(self, key) -> bool:
        if key in self._written:
            return self._written[key] is not _DELETED
        return key in self._base

    def __iter__(self):
        written = self._written
        base = self._base
        for key in base:
            if key in written and written[key] is _DELETED:
                continue
            yield key
        for key in written:
            if key not in base and written[key] is not _DELETED:
                yield key

    def __len__(self) -> int:
        count = len(self._base)
        for key, value in self._written.items():
            if value is _DELETED:
                count -= 1
            elif key not in self._base:
                count += 1
        return count

    def copy(self) -> dict:
        """A plain-dict shallow copy of the view (values still views)."""
        return dict(self)

    # -- writes ---------------------------------------------------------
    def __setitem__(self, key, value) -> None:
        written = self._written
        if written.get(key, _MISSING) is _DELETED:
            # Re-adding a deleted key appends it, exactly as in a dict:
            # forget its old position by dropping it from a private
            # copy of the base (rare; the frozen base stays untouched).
            base = dict(self._base)
            del base[key]
            self._base = base
            del written[key]
        written[key] = value
        self._wrapped.pop(key, None)

    def __delitem__(self, key) -> None:
        written = self._written
        if key in written:
            if written[key] is _DELETED:
                raise KeyError(key)
            if key in self._base:
                written[key] = _DELETED
            else:
                del written[key]
        elif key in self._base:
            written[key] = _DELETED
        else:
            raise KeyError(key)
        self._wrapped.pop(key, None)

    # -- engine internals ----------------------------------------------
    def _materialize(self):
        """Plain form of the view; the base itself when nothing changed.

        One walk over the *overlay* only: the untouched majority of the
        base is carried over by a C-level ``dict(base)`` (same key
        order), then touched keys are patched in place, deleted keys
        dropped and new keys appended in the order they were written.
        """
        base = self._base
        out = None
        for key, view in self._wrapped.items():
            value = view._materialize()
            if value is not base[key]:
                if out is None:
                    out = dict(base)
                out[key] = value
        written = self._written
        if written:
            if out is None:
                out = dict(base)
            for key, value in written.items():
                if value is _DELETED:
                    del out[key]
                else:
                    out[key] = materialize(value)
        return base if out is None else out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CowState({dict(self)!r})"


class CowList(MutableSequence):
    """A copy-on-write list view over a frozen base list.

    The base is copied ("thawed") into a private element list the
    first time a mutable element is read or any mutation happens;
    until then reads index straight into the base.
    """

    __slots__ = ("_base", "_items", "_mutated")

    def __init__(self, base: list | None = None) -> None:
        self._base: list = [] if base is None else base
        self._items: list | None = None
        self._mutated = False

    def _thaw(self) -> list:
        if self._items is None:
            items = []
            for value in self._base:
                view = _wrap(value)
                if view is not value and type(value) in (set, tuple):
                    self._mutated = True  # copies can't track mutation
                items.append(view)
            self._items = items
        return self._items

    # -- reads ----------------------------------------------------------
    def __getitem__(self, index):
        if self._items is not None:
            return self._items[index]
        if isinstance(index, slice):
            return list(self._thaw()[index])
        value = self._base[index]
        kind = type(value)
        if (kind is dict or kind is list or kind is set
                or (kind is tuple and _tuple_aliases_mutable(value))):
            return self._thaw()[index]
        return value

    def __len__(self) -> int:
        items = self._items
        return len(items if items is not None else self._base)

    def __iter__(self):
        """Iterate elements; avoids thawing all-atom bases.

        The inherited ``MutableSequence.__iter__`` indexes one element
        at a time through :meth:`__getitem__`; this walks the base (or
        the thawed element list) directly.
        """
        if self._items is None:
            base = self._base
            for value in base:
                kind = type(value)
                if (kind is dict or kind is list or kind is set
                        or (kind is tuple
                            and _tuple_aliases_mutable(value))):
                    break
            else:
                yield from base
                return
            self._thaw()
        yield from self._items

    def __eq__(self, other) -> bool:
        if isinstance(other, CowList):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def copy(self) -> list:
        """A plain-list shallow copy of the view (values still views)."""
        return list(self)

    # -- writes ---------------------------------------------------------
    def __setitem__(self, index, value) -> None:
        self._thaw()[index] = value
        self._mutated = True

    def __delitem__(self, index) -> None:
        del self._thaw()[index]
        self._mutated = True

    def insert(self, index, value) -> None:
        self._thaw().insert(index, value)
        self._mutated = True

    def sort(self, *, key=None, reverse: bool = False) -> None:
        self._thaw().sort(key=key, reverse=reverse)
        self._mutated = True

    # -- engine internals ----------------------------------------------
    def _materialize(self):
        items = self._items
        if items is None:
            return self._base
        if self._mutated:
            return [materialize(value) for value in items]
        # Not mutated: elements still sit at their base positions, so
        # only element views that changed need patching in.
        base = self._base
        out = None
        for index, value in enumerate(items):
            kind = type(value)
            if kind is CowState or kind is CowList:
                value = value._materialize()
                if value is not base[index]:
                    if out is None:
                        out = list(base)
                    out[index] = value
        return base if out is None else out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CowList({list(self)!r})"


def assoc_in(tree, path, value):
    """``tree`` with ``value`` stored under the key path ``path``.

    Mappings all the way down; the intermediate keys must exist.  On a
    :class:`CowState` the write is recorded in the overlay of the view
    that owns the last key and the same view is returned —
    O(len(path)), however large the collections on the way.  A plain
    dict is path-copied (``{**d}`` per level) and never mutated, so
    callers holding plain state keep pure-function semantics.  Key
    order is that of copy-then-replace on plain dicts either way.
    """
    key = path[0]
    if len(path) > 1:
        child = tree[key]
        value = assoc_in(child, path[1:], value)
        if value is child:  # a view, updated in place
            return tree
    if type(tree) is CowState:
        if value is _DELETED:
            del tree[key]
        else:
            tree[key] = value
        return tree
    out = {**tree}
    if value is _DELETED:
        del out[key]
    else:
        out[key] = value
    return out


def dissoc_in(tree, path):
    """``tree`` without the key at ``path`` (KeyError when absent).

    Same contract as :func:`assoc_in`: in place through a view, a
    path copy of a plain dict.
    """
    return assoc_in(tree, path, _DELETED)


def materialize(value):
    """Collapse ``value`` into plain containers, sharing clean bases.

    Views that were never mutated collapse to their (frozen) base by
    reference; every plain container is rebuilt, so the caller cannot
    reach any mutable part of the result through the source value.
    The output is safe to install as committed/persisted state.
    """
    kind = type(value)
    if kind is CowState or kind is CowList:
        return value._materialize()
    if kind is dict:
        return {key: materialize(item) for key, item in value.items()}
    if kind is list:
        return [materialize(item) for item in value]
    if kind is tuple:
        return tuple(materialize(item) for item in value)
    if kind is set:
        return set(value)
    return value


def clone(value):
    """A fully detached deep clone of a plain-data tree (or view).

    Unlike :func:`materialize` the result shares *nothing* mutable
    with its input — required where the source is mutated in place
    afterwards.  A read-only proxy of a transactional read clones to a
    plain dict.
    """
    kind = type(value)
    if kind is dict or kind is MappingProxyType:
        return {key: clone(item) for key, item in value.items()}
    if kind is list:
        return [clone(item) for item in value]
    if kind is CowState or kind is CowList:
        return clone(value._materialize())
    if kind is tuple:
        return tuple(clone(item) for item in value)
    if kind is set:
        return set(value)
    return value
