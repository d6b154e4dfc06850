"""Property-based tests for the state engine.

The copy-on-write views, ``materialize``, ``clone`` and the path
updates are exercised over randomly generated JSON-ish state trees and
random mutation programs.  At the transactional grain's level the
frozen-state contract is checked: a read is read-only at the top level
and never changes committed state, an aborted transaction's staging
vanishes, and a commit installs the staged dict by reference.
"""

import copy
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cow import (
    CowList,
    CowState,
    assoc_in,
    clone,
    dissoc_in,
    materialize,
)
from repro.runtime import Environment
from repro.txn.context import TransactionContext
from repro.txn.participant import (
    COMMIT_LOG_TAIL,
    TransactionalGrain,
    TransactionParticipant,
    collect_votes,
    install_staged,
    log_committed,
    log_prepared,
)

# ---------------------------------------------------------------------------
# strategies: plain-data state trees and mutation programs
# ---------------------------------------------------------------------------

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=12),
)

trees = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.sets(st.integers(min_value=0, max_value=50), max_size=4),
    ),
    max_leaves=20,
)

states = st.dictionaries(st.text(max_size=6), trees, max_size=5)

#: Trees without sets: reading a set through a view is conservatively
#: counted as a write (a set copy cannot report mutation), so only
#: set-free states satisfy the "clean reads share the base" property.
setless_trees = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)

setless_states = st.dictionaries(st.text(max_size=6), setless_trees,
                                 max_size=5)

#: A mutation step: (op, key, value).  Applied identically to the view
#: and to a deep-copied reference dict, then compared.
mutations = st.lists(
    st.tuples(st.sampled_from(["set", "del", "nest", "append"]),
              st.text(max_size=6), trees),
    max_size=6,
)


def apply_program(target, program):
    """Apply a mutation program to a mapping (view or plain dict).

    Values are deep-copied per application: the same program is applied
    to both a view and a reference dict, and a shared mutable value
    would couple the two runs (an append through one leaks into the
    other's input), producing false mismatches.
    """
    for op, key, value in program:
        value = copy.deepcopy(value)
        if op == "set":
            target[key] = value
        elif op == "del":
            target.pop(key, None)
        elif op == "nest":
            nested = target.get(key)
            if isinstance(nested, (dict, CowState)):
                nested["leaf"] = value
            else:
                target[key] = {"leaf": value}
        elif op == "append":
            nested = target.get(key)
            if isinstance(nested, (list, CowList)):
                nested.append(value)
            else:
                target[key] = [value]


# ---------------------------------------------------------------------------
# view isolation
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(states, mutations)
def test_view_mutation_never_leaks_into_base(base, program):
    frozen = copy.deepcopy(base)
    view = CowState(base)
    apply_program(view, program)
    assert base == frozen, "mutating a view must not touch its base"


@settings(max_examples=120, deadline=None)
@given(states, mutations)
def test_view_equals_plain_dict_after_same_mutations(base, program):
    reference = copy.deepcopy(base)
    view = CowState(base)
    apply_program(view, program)
    apply_program(reference, program)
    assert materialize(view) == reference


@settings(max_examples=120, deadline=None)
@given(states, mutations)
def test_materialize_isolates_result_from_further_view_mutations(
        base, program):
    view = CowState(base)
    apply_program(view, program)
    installed = materialize(view)
    snapshot = copy.deepcopy(installed)
    # Mutations applied after materialize must not reach the result.
    apply_program(view, [("set", key, "poison") for key in list(view)]
                  or [("set", "k", "poison")])
    view["fresh"] = ["poison"]
    assert installed == snapshot


@settings(max_examples=100, deadline=None)
@given(setless_states)
def test_clean_view_materializes_to_base_by_reference(base):
    view = CowState(base)
    # Reading (including nested reads) does not count as a change.
    for key in list(view):
        view[key]
    assert materialize(view) is base


@settings(max_examples=100, deadline=None)
@given(states)
def test_clone_is_fully_detached(base):
    frozen = copy.deepcopy(base)
    result = clone(CowState(base))
    assert result == base
    # Mutating the clone (including nested containers) leaves the
    # source untouched — required where the clone is edited in place.
    apply_program(result, [("set", "x", 1), ("nest", "y", 2)])
    for value in result.values():
        if isinstance(value, dict):
            value["poison"] = True
        elif isinstance(value, list):
            value.append("poison")
    assert base == frozen


# ---------------------------------------------------------------------------
# path updates: assoc_in / dissoc_in == copy-then-replace on plain dicts
# ---------------------------------------------------------------------------

#: A small key alphabet, so op sequences hit existing keys, delete them
#: and re-add them often.
path_keys = st.sampled_from("abcde")

leaves = st.one_of(atoms, st.lists(atoms, max_size=3))

nested_dicts = st.dictionaries(
    path_keys,
    st.recursive(leaves,
                 lambda children: st.dictionaries(path_keys, children,
                                                  max_size=4),
                 max_leaves=12),
    max_size=4)

#: (delete?, descent picks, last key, value to store)
path_ops = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.integers(min_value=0, max_value=7), max_size=3),
              path_keys,
              st.one_of(leaves, nested_dicts)),
    max_size=8)


def resolve_path(tree, picks, last):
    """A valid key path into ``tree``: descend through dict children
    chosen by ``picks``, then address ``last`` in the node reached."""
    path, node = [], tree
    for pick in picks:
        children = [key for key, value in node.items()
                    if isinstance(value, dict)]
        if not children:
            break
        key = children[pick % len(children)]
        path.append(key)
        node = node[key]
    return (*path, last), node


def copy_then_replace(tree, path, value, delete=False):
    """The reference semantics: rebuild every dict along the path."""
    out = dict(tree)
    if len(path) > 1:
        out[path[0]] = copy_then_replace(tree[path[0]], path[1:], value,
                                         delete)
    elif delete:
        del out[path[0]]
    else:
        out[path[0]] = value
    return out


def run_path_ops(target, reference, ops):
    """Apply ``ops`` to ``target`` (vocabulary) and ``reference`` (copy
    -then-replace); returns (target, reference, touched paths)."""
    touched = []
    for delete, picks, last, value in ops:
        path, node = resolve_path(reference, picks, last)
        if delete and last not in node:
            continue
        touched.append(path)
        if delete:
            target = dissoc_in(target, path)
        else:
            target = assoc_in(target, path, value)
        reference = copy_then_replace(reference, path, value, delete)
    return target, reference, touched


def ordered(tree):
    """``tree`` with every dict as a list of pairs: == compares order."""
    if isinstance(tree, dict):
        return [(key, ordered(value)) for key, value in tree.items()]
    if isinstance(tree, list):
        return [ordered(value) for value in tree]
    return tree


def assert_untouched_shared(base, result, touched, prefix=()):
    """Containers of ``base`` no op reached are in ``result`` by ``is``."""
    for key, value in base.items():
        path = (*prefix, key)
        if key not in result or not isinstance(value, (dict, list)):
            continue
        depth = len(path)
        if not any(op[:depth] == path or path[:len(op)] == op
                   for op in touched):
            assert result[key] is value, path
        elif isinstance(value, dict) and isinstance(result[key], dict):
            assert_untouched_shared(value, result[key], touched, path)


@settings(max_examples=200, deadline=None)
@given(nested_dicts, path_ops)
def test_path_updates_through_view_equal_copy_then_replace(base, ops):
    frozen = copy.deepcopy(base)
    view = CowState(base)
    result, reference, touched = run_path_ops(view, base, ops)
    assert result is view, "a view is updated in place and handed back"
    installed = materialize(view)
    assert ordered(installed) == ordered(reference)
    assert ordered(base) == ordered(frozen), "the frozen base was mutated"
    assert_untouched_shared(base, installed, touched)


@settings(max_examples=200, deadline=None)
@given(nested_dicts, path_ops)
def test_path_updates_on_plain_dict_are_pure(base, ops):
    frozen = copy.deepcopy(base)
    result, reference, touched = run_path_ops(base, base, ops)
    assert ordered(result) == ordered(reference)
    assert ordered(base) == ordered(frozen), "plain input was mutated"
    if touched:
        assert result is not base
    assert_untouched_shared(base, result, touched)


def test_delete_then_re_add_moves_the_key_to_the_end():
    base = {"a": 1, "b": {"x": 1, "y": 2}, "c": 3}
    view = CowState(base)
    dissoc_in(view, ("a",))
    assoc_in(view, ("a",), 9)
    dissoc_in(view, ("b", "x"))
    assoc_in(view, ("b", "x"), 8)
    assert list(view) == ["b", "c", "a"]
    assert ordered(materialize(view)) == [
        ("b", [("y", 2), ("x", 8)]), ("c", 3), ("a", 9)]
    assert base == {"a": 1, "b": {"x": 1, "y": 2}, "c": 3}
    # ... and deleting the re-added key again must not resurrect it.
    dissoc_in(view, ("b", "x"))
    assert materialize(view)["b"] == {"y": 2}


# ---------------------------------------------------------------------------
# participant-level isolation (read / write / commit / abort)
# ---------------------------------------------------------------------------

def make_participant(initial):
    env = Environment(seed=1)
    participant = TransactionParticipant(
        env, ("T", "k"), initial_state=initial)
    return env, participant


def make_ctx(env):
    return TransactionContext(env.now)


def make_grain(participant, ctx):
    """A detached transactional grain over ``participant``, inside
    ``ctx`` (as a silo sets it up for a turn)."""
    grain = TransactionalGrain()
    grain._participant = participant
    grain.current_txn = ctx
    return grain


def commit(participant, ctx):
    """One participant's 2PC steps, in the coordinator's order."""
    assert collect_votes([participant], ctx) == [participant]
    log_prepared([participant], ctx)
    install_staged([participant], ctx)
    log_committed([participant], ctx)


def run_process(env, generator):
    process = env.process(generator)
    env.run(until=process)
    return process.value


@settings(max_examples=60, deadline=None)
@given(states, mutations)
def test_read_is_read_only_and_never_changes_committed(initial, program):
    env, participant = make_participant(copy.deepcopy(initial))
    grain = make_grain(participant, make_ctx(env))

    def txn():
        state = yield from grain.txn_read()
        assert type(state) is MappingProxyType
        for op, key, value in program:
            with pytest.raises(TypeError):
                if op == "del":
                    del state[key]
                else:
                    state[key] = value
        return state

    state = run_process(env, txn())
    assert state == participant.committed_state == initial


@settings(max_examples=60, deadline=None)
@given(states, mutations)
def test_abort_discards_staging(initial, program):
    env, participant = make_participant(copy.deepcopy(initial))
    ctx = make_ctx(env)
    grain = make_grain(participant, ctx)

    def txn():
        state = clone((yield from grain.txn_read()))
        apply_program(state, program)
        yield from grain.txn_write(state)

    run_process(env, txn())
    participant.abort(ctx)
    assert participant.committed_state == initial
    assert not participant._staged


@settings(max_examples=60, deadline=None)
@given(states, mutations)
def test_commit_installs_exactly_the_staged_version(initial, program):
    env, participant = make_participant(copy.deepcopy(initial))
    ctx = make_ctx(env)
    grain = make_grain(participant, ctx)

    def txn():
        state = clone((yield from grain.txn_read()))
        apply_program(state, program)
        yield from grain.txn_write(state)
        assert participant._staged[ctx.txid] is state
        # A read after the write sees the staged dict.
        assert (yield from grain.txn_read()) == state
        commit(participant, ctx)
        return state

    staged = run_process(env, txn())
    reference = copy.deepcopy(initial)
    apply_program(reference, program)
    assert participant.committed_state is staged
    assert participant.committed_state == reference


def test_commit_log_is_bounded_but_counters_are_not():
    env, participant = make_participant({})
    last_txid = None
    for _ in range(3 * COMMIT_LOG_TAIL):
        ctx = make_ctx(env)
        last_txid = ctx.txid

        def txn(ctx=ctx, grain=make_grain(participant, ctx)):
            state = yield from grain.txn_read()
            yield from grain.txn_write({**state, "n": ctx.txid})
            commit(participant, ctx)

        run_process(env, txn())
    assert len(participant.commit_log) == COMMIT_LOG_TAIL
    assert participant.commits == 3 * COMMIT_LOG_TAIL
    assert participant.prepares == 3 * COMMIT_LOG_TAIL
    assert participant.aborts == 0
    # The tail keeps the most recent outcomes.
    assert participant.commit_log[-1][1] == last_txid
