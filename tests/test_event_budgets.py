"""Exact kernel-event budgets, timing equivalence and crash points of
the callback-driven hot paths.

A grain turn, a 2PC round and a statefun delivery and worker run as
timeline entries — pooled ``call_after`` entries, or the message
itself — not as processes.  Four things pin that restructuring here,
all as exact counts or exact float times read from the kernel
(``env.events_processed``, ``env.now``):

* the *budget*: a call to a method that never waits costs 3 events
  and at most 14 Python frames of ``repro.actors`` + ``repro.runtime``,
  a ``tell`` 2 events and at most 8 frames, a turn queued behind a
  busy core at most 11 more frames, a cold activation at most 3
  Python frames of any ``repro`` module and building a grain none
  (``ShipmentGrain`` aside), a four-member ``all_of``
  fan-out over processes at most 38 frames of ``repro.runtime``,
  a committed transaction's 2PC 8 events whatever the participant
  count, a one-participant transaction at most 34 frames of
  ``repro.txn`` + ``repro.runtime`` and six participants as many
  (their writes aside), a statefun message at most 5 frames of
  ``repro.dataflow`` + ``repro.runtime``;
* the *equivalence*: every participant and the coordinator observe the
  very times the retired one-process-per-participant model produced
  (that model is kept below as the reference);
* the *crash matrix*: a silo dying under a turn at each of its three
  states yields exactly one outcome per caller and never resumes the
  abandoned body; the message is its own turn, so the same object is
  followed from a dying silo's mailbox to its new owner;
* the *order*: a scripted mix of calls and tells on two one-core
  silos dispatches its steps in the very ``(time, sequence)`` order it
  had when every entry went through the kernel's scheduling helpers,
  and so do a scripted mix of overlapping transactions and a scripted
  fan-out of statefun requests across a checkpoint.
"""

import collections
import cProfile
import dataclasses
import gc
import inspect

import pytest

from repro.actors import Cluster, Grain, SiloUnavailable
from repro.actors.silo import SiloState
from repro.apps import customized, grains_eventual, grains_txn
from repro.apps.grains_eventual import ProductGrain, ShipmentGrain
from repro.apps.grains_txn import TxnProductGrain
from repro.config import AppConfig
from repro.costs import CostModel
from repro.dataflow import StatefulFunction, StatefunRuntime
from repro.runtime import Environment, SimulationError, Timeout
from repro.runtime.process import Process
from repro.txn import (
    TransactionAborted,
    TransactionalGrain,
    TransactionParticipant,
    TransactionRunner,
)
from repro.txn.participant import COMMIT_LOG_TAIL


# ---------------------------------------------------------------------------
# (a) event budgets
# ---------------------------------------------------------------------------
class Plain(Grain):
    """Non-reentrant; one plain method, one generator that never yields."""

    def plain(self):
        return self.key

    def generator(self):
        return self.key
        yield  # pragma: no cover - generator marker

    def waits(self, seconds):
        yield self.env.timeout(seconds)
        return self.key


class Reentrant(Plain):
    reentrant = True


def events_for(env, promise):
    before = env.events_processed
    env.run(until=promise)
    return env.events_processed - before


@pytest.mark.parametrize("grain_type", [Plain, Reentrant])
@pytest.mark.parametrize("method", ["plain", "generator"])
def test_call_to_a_method_that_never_waits_costs_three_events(
        grain_type, method, monkeypatch):
    spawned = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    env = Environment(seed=1)
    cluster = Cluster(env)
    ref = cluster.grain_ref(grain_type, "k")
    # Delivery, CPU hold, the reply carrying the promise — on a cold
    # activation (nothing to read, no hook: ready at construction) and
    # on the warm one alike.
    assert events_for(env, ref.call(method)) == 3
    assert events_for(env, ref.call(method)) == 3
    assert not spawned


def test_a_waiting_method_adds_exactly_its_own_events():
    env = Environment(seed=1)
    cluster = Cluster(env)
    ref = cluster.grain_ref(Reentrant, "k")
    assert events_for(env, ref.call("waits", 0.001)) == 3 + 1


#: Python frames (cProfile, builtins off) of ``repro.actors`` and
#: ``repro.runtime`` code per warm ``env.run(until=ref.call("plain"))``.
#: Measured 13: 7 for the call — ref.call, the message's ``__init__``,
#: _route, _deliver, _charge, _run, _reply — and 6 for the
#: ``run(until=…)`` wrapper.  It was 16 while the hop, the CPU hold and
#: the reply went through call_after, ``Resource.hold`` (and its
#: ``held`` closure) and trigger_after, 21 while the promise was an
#: event beside the message, and 37 while a call was a message, a turn
#: and two closures.  ``<=`` because interpreters differ in what they
#: inline.  (docs/architecture.md quotes the call's 7;
#: ``tests/test_docs_links.py`` holds it to this budget less the
#: wrapper's 6.)
MAX_FRAMES_PER_CALL = 13
#: Pure reads of kernel state: attribute loads, never frames.
READ_ONLY_FRAMES = {"now", "type_name", "alive", "_account"}
#: The fused path itself: exactly one frame of each per call.
FUSED_PATH = ("_route", "_deliver", "_charge", "_run", "_reply")
#: Frames a warm call no longer costs: the retired dispatch hop, the
#: activation's enqueue, the routing helper, the tell's failure
#: swallowing, the grain-side reference lookup, and the scheduling
#: helpers the message now inlines — the hop's call_after, the CPU
#: hold (``Resource.hold`` and its ``held`` closure) and the reply's
#: trigger_after.
RETIRED_FRAMES = {"dispatch", "enqueue", "_target_for", "track_oneway",
                  "swallow", "grain_ref", "call_after", "hold", "held",
                  "trigger_after"}
#: Frames of a ``tell`` plus the ``env.run()`` that delivers it.
#: Measured 8: tell, the message's ``__init__``, _route, _deliver,
#: _charge, _run, _reply — no reply travels back — and ``run``.  It
#: was 10 while the hop and the CPU hold went through call_after and
#: ``Resource.hold``, and 20 while a tell was a call with a reply whose
#: callback swallowed failures.
MAX_FRAMES_PER_TELL = 8


def profiled_frames(action, repeats):
    """``{frame name: calls}`` of ``repro.actors`` and ``repro.runtime``
    code over ``repeats`` runs of ``action``."""
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    for _ in range(repeats):
        action()
    profiler.disable()
    frames = {}
    for entry in profiler.getstats():
        filename = entry.code.co_filename.replace("\\", "/")
        if "repro/actors/" in filename or "repro/runtime/" in filename:
            name = entry.code.co_name
            frames[name] = frames.get(name, 0) + entry.callcount
    return frames


def test_call_to_a_method_that_never_waits_stays_in_its_frame_budget():
    env = Environment(seed=1)
    cluster = Cluster(env)
    ref = cluster.grain_ref(Plain, "k")
    for _ in range(10):
        env.run(until=ref.call("plain"))
    calls = 1000
    frames = profiled_frames(lambda: env.run(until=ref.call("plain")),
                             calls)
    assert not READ_ONLY_FRAMES & set(frames), frames
    assert not RETIRED_FRAMES & set(frames), frames
    per_call = sum(frames.values()) / calls
    assert per_call <= MAX_FRAMES_PER_CALL, (per_call, frames)
    assert ({name: frames[name] for name in FUSED_PATH}
            == dict.fromkeys(FUSED_PATH, calls))


@pytest.mark.parametrize("grain_type", [Plain, Reentrant])
def test_tell_costs_two_events_and_stays_in_its_frame_budget(grain_type):
    env = Environment(seed=1)
    cluster = Cluster(env)
    ref = cluster.grain_ref(grain_type, "k")
    for _ in range(10):
        ref.tell("plain")
        env.run()
    # Delivery and CPU hold: no reply travels back.
    before = env.events_processed
    ref.tell("plain")
    env.run()
    assert env.events_processed - before == 2
    assert cluster.activation_of(ref).processed == 11

    def tell():
        ref.tell("plain")
        env.run()

    tells = 1000
    frames = profiled_frames(tell, tells)
    assert not RETIRED_FRAMES & set(frames), frames
    per_tell = sum(frames.values()) / tells
    assert per_tell <= MAX_FRAMES_PER_TELL, (per_tell, frames)
    assert "trigger_after" not in frames, frames


#: Frames of ``repro.actors`` and ``repro.runtime`` code a turn that
#: queues behind a busy core adds: two calls sent in one tick to two
#: grains of a one-core silo, ``env.run(until=second)``, less one warm
#: call.  Measured 10: call, the message's ``__init__``, _route,
#: _deliver, _charge (the core is busy: the turn joins the silo's
#: ``waiting`` queue), the finishing turn's call_after that hands the
#: core over, _granted, its call_after, _run and _reply.  It was 16
#: while the silo's cores were a kernel ``Resource`` (``request``, the
#: request event's two ``__init__``, _release_slot, _grant, _account,
#: succeed and the grant's lambda).  Bound: measured + 1.
MAX_FRAMES_PER_QUEUED_TURN = 11
#: The retired ``Resource`` bookkeeping.
RETIRED_CORE_FRAMES = {"request", "_grant", "_release_slot", "_account"}


def test_a_turn_queued_behind_a_busy_core_stays_in_its_frame_budget():
    env = Environment(seed=1)
    # No jitter: the first call always reaches the only core first.
    cluster = Cluster(env, AppConfig(silos=1, cores_per_silo=1,
                                     costs=CostModel(remote_jitter=0.0)))
    first, second = (cluster.grain_ref(Plain, key) for key in "ab")

    def pair():
        first.call("plain")
        env.run(until=second.call("plain"))

    def single():
        env.run(until=first.call("plain"))

    for _ in range(10):
        pair()
        single()
    (silo,) = cluster.silos
    assert silo.busy == 0 and not silo.waiting
    repeats = 1000
    pairs = profiled_frames(pair, repeats)
    singles = profiled_frames(single, repeats)
    assert not RETIRED_CORE_FRAMES & set(pairs), pairs
    assert pairs["_granted"] == repeats, pairs
    per_queued_turn = (sum(pairs.values()) - sum(singles.values())) / repeats
    assert per_queued_turn <= MAX_FRAMES_PER_QUEUED_TURN, (
        per_queued_turn, pairs, singles)


#: Python frames, of any module, of a cold ``Silo.activation_for``:
#: itself, ``Activation.__init__`` and the filing step ``Silo._file``
#: (the silo's tables and LRU order, the working-set counters, the
#: directory entry).  The grain is built in C: its runtime fields are
#: class-level defaults.  It was 5 for a plain ``Grain`` subclass and
#: 6 for a ``_StateGrain`` while ``Grain``, ``_StateGrain`` and
#: ``TransactionalGrain`` had ``__init__`` methods and filing went
#: through ``Cluster.note_activation`` and ``GrainDirectory.register``.
MAX_FRAMES_PER_ACTIVATION = 3
#: The retired activation bookkeeping, and the ring's hash helper,
#: which ``ConsistentHashPlacement.place`` inlines.
RETIRED_ACTIVATION_FRAMES = {"note_activation", "register", "unregister",
                             "_hash", "<dictcomp>"}


def all_frames(action, repeats):
    """``{code object: calls}`` of every Python frame of ``repro`` over
    ``repeats`` runs of ``action(index)``.  Garbage is collected first
    and not during the runs: an earlier test's dropped generator must
    not finalise inside the profile."""
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    try:
        for index in range(repeats):
            action(index)
    finally:
        profiler.disable()
        gc.enable()
    return {entry.code: entry.callcount for entry in profiler.getstats()
            if not isinstance(entry.code, str)
            and "/repro/" in entry.code.co_filename.replace("\\", "/")}


@pytest.mark.parametrize("grain_type", [Plain, ProductGrain,
                                        TxnProductGrain],
                         ids=lambda grain_type: grain_type.__name__)
def test_a_cold_activation_stays_in_its_frame_budget(grain_type):
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(silos=1))
    (silo,) = cluster.silos
    activations = 1000
    frames = all_frames(
        lambda index: silo.activation_for(cluster, grain_type, f"k{index}"),
        activations)
    names = {code.co_name for code in frames}
    assert not RETIRED_ACTIVATION_FRAMES & names, names
    per_activation = sum(frames.values()) / activations
    assert per_activation <= MAX_FRAMES_PER_ACTIVATION, (
        per_activation, names)
    assert len(silo.activations) == cluster.working_set.activations \
        == cluster.working_set.peak_resident == activations
    assert all(cluster.directory.hosts[ident] is silo
               for ident in silo.activations)


def test_a_first_touch_call_files_its_grain_in_one_step():
    """A call to a grain without an activation is placed by the ring
    (its hash inline), activates the grain and files it in one step."""
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(silos=2))
    calls = 200
    frames = {}
    for code, count in all_frames(lambda index: env.run(
            until=cluster.grain_ref(Plain, f"k{index}").call("plain")),
            calls).items():
        frames[code.co_name] = frames.get(code.co_name, 0) + count
    assert not RETIRED_ACTIVATION_FRAMES & set(frames), frames
    assert frames["_file"] == frames["place"] == calls, frames
    assert cluster.total_activations == calls


def test_building_a_grain_runs_no_python_frame():
    """Every grain class of the three actor stacks is built in C — no
    ``__init__`` of its own or of a base — except ``ShipmentGrain``,
    which creates its shipment table eagerly."""
    grain_types = [value for module in (grains_eventual, grains_txn,
                                        customized)
                   for value in vars(module).values()
                   if isinstance(value, type) and issubclass(value, Grain)
                   and value.__module__ == module.__name__]
    assert len(grain_types) == 22  # ten per stack, _StateGrain, causal cart
    for grain_type in grain_types:
        frames = all_frames(lambda _index: grain_type(), 1)
        inits = {code for code in frames if code.co_name == "__init__"}
        if grain_type is ShipmentGrain:
            assert inits == {ShipmentGrain.__init__.__code__}, frames
        else:
            assert not frames, (grain_type, frames)


#: Frames of ``repro.runtime`` code per four-member fan-out: ``all_of``
#: over four processes that each wait on one timeout, driven by
#: ``env.run()``.  Measured 37: per member process, ``Process
#: .__init__``, call_after, _resume twice, timeout, ``Timeout
#: .__init__`` and _check; all_of, ``AllOf.__init__``, the value
#: dict's comprehension, succeed and run.  It was 66 while a process
#: and an ``AllOf`` ran ``Event.__init__``, ``AllOf`` read the state
#: properties and a finished process called ``schedule``.  Bound:
#: measured + 1.
MAX_FRAMES_PER_FAN_OUT = 38
#: Event plumbing a fan-out reads as attributes: the state properties
#: and the zero-delay ``schedule`` of a finished process.
FAN_OUT_READS = {"triggered", "processed", "ok", "value", "schedule"}


def test_fan_out_stays_in_its_frame_budget():
    env = Environment(seed=1)

    def member(index):
        yield env.timeout(0.001)
        return index

    def fan_out():
        done = env.all_of([env.process(member(index))
                           for index in range(4)])
        env.run()
        return done

    for _ in range(10):
        fan_out()
    fan_outs = 1000
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    for _ in range(fan_outs):
        done = fan_out()
    profiler.disable()
    assert list(done.value.values()) == [0, 1, 2, 3]
    frames = {}
    for entry in profiler.getstats():
        if "repro/runtime/" in entry.code.co_filename.replace("\\", "/"):
            name = entry.code.co_name
            frames[name] = frames.get(name, 0) + entry.callcount
    assert not FAN_OUT_READS & set(frames), frames
    per_fan_out = sum(frames.values()) / fan_outs
    assert per_fan_out <= MAX_FRAMES_PER_FAN_OUT, (per_fan_out, frames)


#: A dataflow whose functions cost no CPU (the envelope tax stays).
FREE_FUNCTIONS = CostModel(function_cpu=0.0)


def test_statefun_message_costs_one_delivery_event():
    class Sink(StatefulFunction):
        def invoke(self, context, payload):
            context.state["seen"] = payload

    env = Environment(seed=1)
    runtime = StatefunRuntime(env, AppConfig(
        silos=1, checkpoint_interval=0, costs=FREE_FUNCTIONS))
    runtime.register("sink", Sink())
    env.run()  # worker parked on its empty queue
    before = env.events_processed
    runtime.send_ingress("sink", "a", 1)
    env.run()
    assert runtime.state_of("sink", "a") == {"seen": 1}
    # Delivery, the worker's wake-up, its CPU charge: the message is
    # its own delivery entry (it was a three-event process).
    assert env.events_processed - before == 3


class Relay(StatefulFunction):
    """Records the hops left and passes the rest down the chain."""

    def invoke(self, context, payload):
        chain, hops = payload
        context.state["hops"] = hops
        if hops:
            context.send("relay", f"{chain}/{hops - 1}", (chain, hops - 1))


#: Python frames (cProfile, builtins off) of ``repro.dataflow`` and
#: ``repro.runtime`` code per statefun message on a relay over four
#: partitions.  Measured 4.2: the send (Context.send and the message's
#: ``__init__``, the push inline; from ingress send_ingress,
#: ``__init__``, _deliver_ingress, trigger_after), the arrival
#: (_arrive, the wake-up of an idle worker inline) and the turn
#: (_step, which runs the function and pushes the next charge inline).
#: It was 8.0 while the send went through ``send_internal`` and
#: ``trigger_after`` and the worker's wake-up and charge through
#: ``call_after`` into ``_next`` and ``_run``, 12.9 while the delivery
#: was a closure on a pooled event and the CPU charge a
#: ``Resource.hold``, and 23.8 while a worker was a process.  ``<=``
#: because interpreters differ in what they inline.
MAX_FRAMES_PER_STATEFUN_MESSAGE = 5
#: Frames of the retired worker process, its ``address()`` method, the
#: per-delivery checks, the delivery closure, ``Worker.enqueue``, the
#: one-slot CPU resource, the runtime's send helper, the two worker
#: callbacks ``_step`` replaced and the pooled push it inlines, none of
#: which a message may cost any more.
RETIRED_STATEFUN_FRAMES = {"address", "isgenerator", "triggered", "_loop",
                           "_process", "use", "timeout", "hold", "held",
                           "arrive", "enqueue", "send_internal", "_next",
                           "_run", "call_after"}


def test_statefun_message_stays_in_its_frame_budget():
    env = Environment(seed=1)
    runtime = StatefunRuntime(env, AppConfig(
        silos=4, checkpoint_interval=0, costs=FREE_FUNCTIONS))
    runtime.register("relay", Relay())
    chains, hops = 100, 9

    def relay_all():
        for chain in range(chains):
            runtime.send_ingress("relay", f"{chain}/{hops}", (chain, hops))
        env.run()

    relay_all()  # warm: every address routed once, the event pool full
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    relay_all()
    profiler.disable()
    messages = chains * (hops + 1)
    assert runtime.messages_processed == 2 * messages
    frames = {}
    for entry in profiler.getstats():
        filename = entry.code.co_filename.replace("\\", "/")
        if "repro/dataflow/" in filename or "repro/runtime/" in filename:
            name = entry.code.co_name
            frames[name] = frames.get(name, 0) + entry.callcount
    assert not RETIRED_STATEFUN_FRAMES & set(frames), frames
    per_message = sum(frames.values()) / messages
    assert per_message <= MAX_FRAMES_PER_STATEFUN_MESSAGE, (
        per_message, frames)


class Faulty(StatefulFunction):
    """Fails in each way a function body can: by raising, or by being
    written as a generator, whose body the runtime never runs."""

    def invoke(self, context, payload):
        env = context.worker.env
        if payload == "raises":
            raise ValueError(payload)
        if payload == "raises-after-a-wait":
            return self.wait_then_raise(env)
        return self.yield_junk()

    @staticmethod
    def wait_then_raise(env):
        yield env.timeout(0.001)
        raise ValueError("raises-after-a-wait")

    @staticmethod
    def yield_junk():
        yield 42


@pytest.mark.parametrize("payload", [
    "raises", "raises-after-a-wait", "yields-a-non-event"])
def test_statefun_function_failure_surfaces_as_simulation_error(payload):
    env = Environment(seed=1)
    runtime = StatefunRuntime(env, AppConfig(
        silos=1, checkpoint_interval=0, costs=FREE_FUNCTIONS))
    runtime.register("faulty", Faulty())
    runtime.send_ingress("faulty", "k", payload)
    with pytest.raises(SimulationError) as excinfo:
        env.run()
    cause = excinfo.value.__cause__
    if payload == "raises":
        assert isinstance(cause, ValueError) and str(cause) == payload
    else:
        assert cause is None
        assert "returned <generator" in str(excinfo.value)
    assert runtime.messages_processed == 0


#: Events of one ``runner.run`` around its 2PC: the body's own event.
#: No process starts or completes: the transaction is an event that
#: kernel callbacks advance (3 while ``run`` was a generator driven
#: by a process).
RUN_OVERHEAD = 1
HOP, LOG, COORDINATOR_LOG = 0.0003, 0.0005, 0.0005


def make_runner(log=LOG, **config_kwargs):
    """A runner whose participants force their log for ``log``."""
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(costs=CostModel(
        control_latency=HOP, participant_log_latency=log,
        coordinator_log_latency=COORDINATOR_LOG), **config_kwargs))
    runner = TransactionRunner(cluster)
    return env, runner


class ReportingLog(collections.deque):
    """A participant's commit log that reports each ``(time, txid,
    outcome)`` record to ``report`` as the 2PC steps append it."""

    def __init__(self, report):
        super().__init__(maxlen=COMMIT_LOG_TAIL)
        self.report = report

    def append(self, entry):
        self.report(entry)
        super().append(entry)


class GrainedParticipant(TransactionParticipant):
    """A participant with a transactional grain of its own, outside any
    cluster, through which ``enlist`` writes."""

    def __init__(self, env, identity):
        super().__init__(env, identity)
        self.grain = TransactionalGrain()
        self.grain._participant = self


def make_participants(env, count):
    return [GrainedParticipant(env, ("P", str(index)))
            for index in range(count)]


def enlist(ctx, participant, value):
    """Stage a write (X-lock + enlistment) through the participant's
    grain, in ``ctx`` as a silo would set it for a turn; uncontended,
    so the generator finishes without ever yielding."""
    grain = participant.grain
    grain.current_txn = ctx
    for _ in grain.txn_write({"value": value}):
        raise AssertionError("uncontended write must not wait")


def run_transaction(env, runner, participants, start=0.0123):
    """One transaction writing every participant; returns (events the
    whole ``runner.run`` cost, time the 2PC started, time it ended)."""
    env.run(until=start)

    def body(ctx):
        for index, participant in enumerate(participants):
            enlist(ctx, participant, index)
        return env.timeout(0.0)

    before = env.events_processed
    env.run(until=runner.run(body))
    return env.events_processed - before, start, env.now


@pytest.mark.parametrize("count", [1, 4, 16])
def test_two_phase_commit_costs_eight_events_for_any_participant_count(
        count):
    env, runner = make_runner()
    participants = make_participants(env, count)
    events, start, end = run_transaction(env, runner, participants)
    # Prepare: hop out, log force, hop back, round event.  Coordinator
    # log.  Commit: hop out, log force, round event.
    assert events - RUN_OVERHEAD == 8
    assert runner.stats.committed == 1
    assert all(p.commits == 1 and p.committed_state["value"] == index
               for index, p in enumerate(participants))
    # Every participant and the coordinator see the times of the
    # retired one-process-per-participant model.
    prepared, committed, reference_end = reference_times(start, count)
    for index, participant in enumerate(participants):
        log = {outcome: time
               for time, _txid, outcome in participant.commit_log}
        assert log["prepared"] == prepared[index] == (start + HOP) + LOG
        assert log["committed"] == committed[index]
    assert end == reference_end == max(committed.values())


def test_one_shot_commit_ablation_reuses_the_commit_round():
    env, runner = make_runner(enable_two_phase_commit=False)
    participants = make_participants(env, 4)
    events, start, end = run_transaction(env, runner, participants)
    assert events - RUN_OVERHEAD == 3  # hop out, log force, round event
    assert end == (start + HOP) + LOG
    assert all(p.commits == 1 and p.prepares == 0 for p in participants)


@pytest.mark.usefixtures("no_txn_retries")
def test_veto_skips_the_log_force():
    env, runner = make_runner()
    (participant,) = make_participants(env, 1)
    env.run(until=0.0123)

    def body(ctx):
        ctx.register(participant)  # enlisted, but holds no lock: vetoes
        return env.timeout(0.0)

    before = env.events_processed
    transaction = runner.run(body)
    with pytest.raises(TransactionAborted) as excinfo:
        env.run(until=transaction)
    assert excinfo.value.reason == "veto"
    # Hop out, hop back, round event: nothing was made durable.
    assert env.events_processed - before - RUN_OVERHEAD == 3
    assert env.now == (0.0123 + HOP) + HOP
    assert participant.prepares == 0
    assert [entry[2] for entry in participant.commit_log] == ["aborted"]


@pytest.mark.usefixtures("no_txn_retries")
def test_yes_voters_still_force_their_log_beside_a_veto():
    env, runner = make_runner(log=0.001)
    voter, vetoer = make_participants(env, 2)

    def body(ctx):
        enlist(ctx, voter, 1)
        ctx.register(vetoer)
        return env.timeout(0.0)

    transaction = runner.run(body)
    with pytest.raises(TransactionAborted):
        env.run(until=transaction)
    # The coordinator waited for the slowest reply before aborting.
    assert env.now == ((0.0 + HOP) + 0.001) + HOP
    assert [entry[2] for entry in voter.commit_log] == [
        "prepared", "aborted"]
    assert voter.commit_log[0][0] == (0.0 + HOP) + 0.001
    assert voter.committed_state == {} and not voter.lock.holders()


@pytest.mark.usefixtures("no_txn_retries")
@pytest.mark.parametrize("outcome", ["veto", "body-fails", "body-raises"])
def test_a_failed_transaction_nobody_awaits_surfaces_as_simulation_error(
        outcome):
    env, runner = make_runner()
    (participant,) = make_participants(env, 1)

    def body(ctx):
        if outcome == "body-raises":  # settles before run() returns
            raise ValueError(outcome)
        if outcome == "body-fails":
            return env.event().fail(ValueError(outcome))
        ctx.register(participant)  # enlisted, but holds no lock: vetoes
        return env.timeout(0.0)

    runner.run(body)
    with pytest.raises(SimulationError) as excinfo:
        env.run()
    cause = excinfo.value.__cause__
    if outcome == "veto":
        assert isinstance(cause, TransactionAborted)
        assert cause.reason == "veto"
    else:
        assert isinstance(cause, ValueError) and str(cause) == outcome
    assert runner.stats.aborted == 1


def test_a_body_returning_a_processed_event_resumes_one_step_later():
    env, runner = make_runner()
    (participant,) = make_participants(env, 1)
    done = env.timeout(0.0, "result")
    env.run()
    assert done.processed

    def body(ctx):
        enlist(ctx, participant, 1)
        return done

    before = env.events_processed
    assert env.run(until=runner.run(body)) == "result"
    # The pooled proxy a process would use, then the 2PC.
    assert env.events_processed - before == 1 + 8
    assert participant.committed_state == {"value": 1}


def test_the_caller_resumes_inside_the_commit_rounds_last_entry():
    env, runner = make_runner()
    participants = make_participants(env, 2)
    env.run(until=0.0123)
    trail = []
    call_after = env.call_after

    def traced_call_after(delay, callback):
        def step(event):
            trail.append(("enter", callback))
            callback(event)
            trail.append(("exit", callback))

        call_after(delay, step)

    env.call_after = traced_call_after

    def body(ctx):
        for index, participant in enumerate(participants):
            enlist(ctx, participant, index)
        return env.timeout(0.0, "result")

    def caller():
        trail.append(("resumed", (yield runner.run(body))))

    before = env.events_processed
    env.run(until=env.process(caller()))
    # The process's bootstrap and completion around the transaction:
    # as many events as the retired ``yield from runner.run(...)``.
    assert env.events_processed - before == 2 + RUN_OVERHEAD + 8
    resumed = trail.index(("resumed", "result"))
    (enter, step), (exit_, same_step) = trail[resumed - 1], trail[resumed + 1]
    # Inside the zero-delay entry that closes the commit round, not in
    # a timeline entry of its own.
    assert (enter, exit_) == ("enter", "exit") and same_step is step
    assert step.__name__ == "_committed" and trail[resumed + 2:] == []


#: Python frames (cProfile, builtins off) of ``repro.txn`` and
#: ``repro.runtime`` code per one-participant, uncontended write
#: transaction, ``env.run(until=runner.run(body))``, its body included.
#: Measured 34: run, the transaction's ``__init__``, _attempt, the
#: context's ``__init__``, the grain's txn_write and the body's
#: ``Timeout``; _executed; _prepare_arrived, collect_votes,
#: _prepare_forced, log_prepared, _prepare_replied, _prepared;
#: _decided, _commit_arrived, install_staged, _commit_forced,
#: log_committed, _committed, _settle; eight call_after; and 6 for the
#: ``run(until=…)`` wrapper.  ``<=`` because interpreters differ in
#: what they inline.
MAX_FRAMES_PER_TRANSACTION = 34
#: Frames a transaction no longer costs: the coordinator generators
#: (``_commit``, ``_abort_all``), the lock manager's ``acquire`` and
#: ``release`` of an uncontended lock, the round event (``event``,
#: ``succeed``), the yielded ``timeout`` of the log force, the generic
#: round (``_round`` and its ``arrived``, ``forced`` and ``finished``
#: closures) and the per-participant steps ``mark_prepared`` and
#: ``mark_committed``.  ``run`` as a generator is caught by the
#: generator check below.
RETIRED_TXN_FRAMES = {"_commit", "_abort_all", "acquire", "release",
                      "event", "succeed", "timeout", "_round", "arrived",
                      "forced", "finished", "mark_prepared",
                      "mark_committed"}


def transaction_frames(count, transactions=1000):
    """Frames and generator names of ``repro.txn`` + ``repro.runtime``
    per uncontended transaction writing ``count`` participants."""
    env, runner = make_runner()
    participants = make_participants(env, count)

    def body(ctx):
        for participant in participants:
            enlist(ctx, participant, ctx.txid)
        return Timeout(env, 0.0)

    for _ in range(10):
        env.run(until=runner.run(body))
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    for _ in range(transactions):
        env.run(until=runner.run(body))
    profiler.disable()
    frames, generators = {}, set()
    for entry in profiler.getstats():
        filename = entry.code.co_filename.replace("\\", "/")
        if "repro/txn/" in filename or "repro/runtime/" in filename:
            name = entry.code.co_name
            frames[name] = frames.get(name, 0) + entry.callcount
            if entry.code.co_flags & inspect.CO_GENERATOR:
                generators.add(name)
    assert runner.stats.committed == 10 + transactions
    return {name: calls / transactions for name, calls in frames.items()}, \
        generators


def test_an_uncontended_transaction_stays_in_its_frame_budget():
    frames, generators = transaction_frames(1)
    assert not RETIRED_TXN_FRAMES & set(frames), frames
    # The grain's write is the only generator left on the path.
    assert generators == {"txn_write"}, generators
    per_transaction = sum(frames.values())
    assert per_transaction <= MAX_FRAMES_PER_TRANSACTION, (
        per_transaction, frames)


def test_a_round_costs_the_same_frames_for_any_participant_count():
    """Each 2PC step visits every participant from one frame: six
    participants cost the frames of one, their writes in the body
    aside (one ``txn_write`` each)."""
    one, _ = transaction_frames(1)
    six, _ = transaction_frames(6)
    assert six.pop("txn_write") == 6 * one.pop("txn_write") == 6
    assert six == one


# ---------------------------------------------------------------------------
# (b) timing equivalence with the per-participant process model
# ---------------------------------------------------------------------------
def reference_times(start, count, log=LOG):
    """The retired model: one process per participant and phase, joined
    by ``all_of``, each participant forcing its log for ``log``.
    Returns (prepared times, committed times, end)."""
    env = Environment(seed=1)
    env.run(until=start)
    prepared, committed = {}, {}

    def prepare_one(index):
        yield env.timeout(HOP)
        yield env.timeout(log)
        prepared[index] = env.now
        yield env.timeout(HOP)

    def commit_one(index):
        yield env.timeout(HOP)
        yield env.timeout(log)
        committed[index] = env.now

    def coordinator():
        yield env.all_of([env.process(prepare_one(index))
                          for index in range(count)])
        yield env.timeout(COORDINATOR_LOG)
        yield env.all_of([env.process(commit_one(index))
                          for index in range(count)])

    env.run(until=env.process(coordinator()))
    return prepared, committed, env.now


def test_mixed_log_latencies_keep_every_per_participant_time():
    # Participant log forces unlike the coordinator's: swapping the
    # two, or charging either twice, moves every time below.
    for log in (0.001, 0.002, 0.00075):
        env, runner = make_runner(log=log)
        participants = make_participants(env, 6)
        _, start, end = run_transaction(env, runner, participants)
        prepared, committed, reference_end = reference_times(start, 6, log)
        for index, participant in enumerate(participants):
            times = {outcome: time
                     for time, _txid, outcome in participant.commit_log}
            assert times["prepared"] == prepared[index]
            assert times["prepared"] == (start + HOP) + log
            assert times["committed"] == committed[index]
        # The coordinator resumes when the last participant is done.
        assert end == reference_end == max(committed.values())


def test_participants_are_visited_in_enlistment_order():
    env, runner = make_runner()
    participants = make_participants(env, 4)
    visits = []

    def spy(key):
        def report(entry):
            if entry[2] == "committed":
                visits.append((entry[0], key))
        return report

    for participant in participants:
        participant.commit_log = ReportingLog(spy(participant.identity[1]))
    _, start, _ = run_transaction(env, runner, participants)
    # One log force for all, then each in enlistment order.
    committed = (((start + HOP) + LOG + HOP) + COORDINATOR_LOG + HOP) + LOG
    assert visits == [(committed, key) for key in "0123"]


# ---------------------------------------------------------------------------
# (c) crash matrix for the message that is its own turn
# ---------------------------------------------------------------------------
class Witness(Grain):
    """Records how far each body got; class-level so that it survives
    the activation."""

    reentrant = True
    trail: list = []

    def quick(self):
        self.trail.append(("ran", self.key, self.env.now))
        return self.key

    def fails(self):
        self.trail.append(("ran", self.key, self.env.now))
        raise ValueError(self.key)

    def nested(self, target_key, method="quick"):
        self.trail.append(("before", self.key))
        result = yield self.call(self.cluster.grain_ref(Witness, target_key),
                                 method)
        self.trail.append(("after", self.key))
        return result


#: Every turn keeps its core for 10 ms.
SLOW_TURNS = CostModel(grain_cpu=0.01)


def crash_cluster():
    """Two one-core silos, slow turns; run under
    ``instant_failure_detection`` so a crash evicts at once."""
    Witness.trail = []
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(silos=2, cores_per_silo=1,
                                     costs=SLOW_TURNS))
    keys = {silo: [key for key in (f"w{i}" for i in range(40))
                   if cluster.placement.place("Witness", key) is silo]
            for silo in cluster.silos}
    return env, cluster, keys


def outcomes_of(promise):
    """Every firing of ``promise`` (there must be exactly one)."""
    seen = []

    def record(event):
        if not event.ok:
            event.defuse()
        seen.append(event.value)

    promise.callbacks.append(record)
    return seen


@pytest.mark.usefixtures("instant_failure_detection")
def test_crash_while_a_turn_waits_for_a_core():
    env, cluster, keys = crash_cluster()
    victim = cluster.silos[0]
    first, second = keys[victim][:2]
    running = outcomes_of(cluster.grain_ref(Witness, first).call("quick"))
    queued = outcomes_of(cluster.grain_ref(Witness, second).call("quick"))
    env.run(until=0.005)
    # One core: the first turn holds it, the second queues for it.
    assert victim.busy == 1 and len(victim.waiting) == 1
    cluster.crash_silo(victim)
    env.run()
    for seen in (running, queued):
        assert len(seen) == 1 and isinstance(seen[0], SiloUnavailable)
    assert Witness.trail == []  # neither body ever ran
    assert victim.busy == 0 and not victim.waiting
    assert cluster.membership.unavailable_failures == 2


@pytest.mark.usefixtures("instant_failure_detection")
def test_crash_while_a_turn_is_suspended_in_a_nested_call():
    env, cluster, keys = crash_cluster()
    victim, survivor = cluster.silos
    outer, inner = keys[victim][0], keys[survivor][0]
    seen = outcomes_of(
        cluster.grain_ref(Witness, outer).call("nested", inner))
    env.run(until=0.015)  # outer ran and is parked on the nested call
    assert Witness.trail == [("before", outer)]
    cluster.crash_silo(victim)
    env.run()
    assert len(seen) == 1 and isinstance(seen[0], SiloUnavailable)
    # The nested call completed on the surviving silo and its reply
    # came back; the abandoned body was closed, never resumed.
    assert [step[0] for step in Witness.trail] == ["before", "ran"]
    assert ("after", outer) not in Witness.trail


@pytest.mark.usefixtures("instant_failure_detection")
def test_failure_arriving_for_an_abandoned_turn_is_absorbed():
    env, cluster, keys = crash_cluster()
    victim, survivor = cluster.silos
    outer, inner = keys[victim][0], keys[survivor][0]
    seen = outcomes_of(
        cluster.grain_ref(Witness, outer).call("nested", inner, "fails"))
    env.run(until=0.015)
    cluster.crash_silo(victim)
    env.run()  # the nested failure must not surface as unhandled
    assert len(seen) == 1 and isinstance(seen[0], SiloUnavailable)
    assert [step[0] for step in Witness.trail] == ["before", "ran"]


@pytest.mark.usefixtures("instant_failure_detection")
def test_crash_after_the_reply_left_delivers_the_result_once():
    env, cluster, keys = crash_cluster()
    victim = cluster.silos[0]
    key = keys[victim][0]
    promise = cluster.grain_ref(Witness, key).call("quick")
    seen = outcomes_of(promise)
    while not Witness.trail:
        # Far finer than the reply's wire latency (>= 0.4 ms remote).
        env.run(until=env.now + 1e-5)
    # The body just ran: the reply is on the wire (remote caller), the
    # promise already carries its outcome but has not fired.
    assert promise.triggered and not promise.processed
    cluster.crash_silo(victim)
    env.run()
    assert seen == [key]
    assert cluster.membership.unavailable_failures == 0


class Slow(Grain):
    """Non-reentrant; on a ``SLOW_TURNS`` cluster it keeps its core for
    10 ms a call."""

    served: list = []

    def serve(self, tag):
        self.served.append((tag, self.silo.name, self.env.now))
        return tag


@pytest.mark.usefixtures("instant_failure_detection")
def test_message_queued_on_a_crashing_silo_is_replaced_as_the_same_object():
    Slow.served = []
    env, cluster, _ = crash_cluster()
    ref = cluster.grain_ref(Slow, "s")
    victim = cluster.placement.place("Slow", "s")
    (survivor,) = [silo for silo in cluster.silos if silo is not victim]
    outcomes = {tag: outcomes_of(ref.call("serve", tag))
                for tag in ("x", "y")}
    env.run(until=0.005)
    old = victim.activations[ref.ident]
    # Whichever arrived first (the wire jitters) holds the grain's only
    # turn; the other waits in the mailbox, not yet anyone's turn.
    (running,), (queued,) = old.inflight, old.mailbox
    assert running.activation is old and queued.activation is None
    cluster.crash_silo(victim)
    env.run()
    new = survivor.activations[ref.ident]
    (failure,) = outcomes[running.args[0]]
    assert isinstance(failure, SiloUnavailable)
    assert outcomes[queued.args[0]] == [queued.args[0]]
    # The very object that sat in the dead mailbox ran, once, on the
    # new owner; the one caught mid-turn never ran anywhere.
    assert queued.activation is new and queued.attempts == 2
    assert running.activation is old
    assert [(tag, silo) for tag, silo, _ in Slow.served] == [
        (queued.args[0], survivor.name)]
    assert new.processed == 1 and not new.inflight and not new.mailbox
    assert cluster.membership.reroutes == 1


#: ``state`` -> (``alive``, ``accepting_activations``), for every
#: state of the diagram in ``repro/actors/silo.py``.
FLAGS = {SiloState.RUNNING: (True, True),
         SiloState.DRAINING: (True, False),
         SiloState.STOPPED: (False, False),
         SiloState.CRASHED: (False, False)}


def flags_of(silo):
    return silo.alive, silo.accepting_activations


@pytest.mark.usefixtures("instant_failure_detection")
def test_liveness_flags_move_with_state_on_every_transition():
    env, cluster, keys = crash_cluster()
    drained, crashed = cluster.silos
    assert drained.state == crashed.state == SiloState.RUNNING
    assert flags_of(drained) == FLAGS[SiloState.RUNNING]
    # running -> draining -> stopped, with work still queued on it.
    busy = cluster.grain_ref(Witness, keys[drained][0]).call("quick")
    env.run(until=0.001)
    drain = cluster.drain_silo(drained)
    assert drained.state == SiloState.DRAINING
    assert flags_of(drained) == FLAGS[SiloState.DRAINING]
    assert cluster.live_silos == [drained, crashed]
    assert cluster.drain_candidate() == crashed.name
    env.run(until=drain)
    assert busy.ok and drained.state == SiloState.STOPPED
    assert flags_of(drained) == FLAGS[SiloState.STOPPED]
    # running -> crashed.
    cluster.crash_silo(crashed)
    assert crashed.state == SiloState.CRASHED
    assert flags_of(crashed) == FLAGS[SiloState.CRASHED]
    assert cluster.live_silos == [] and cluster.drain_candidate() is None
    # Any writer goes through the setter; there is no way to set the
    # state without the flags following.
    for state, flags in FLAGS.items():
        drained.state = state
        assert flags_of(drained) == flags


def test_non_reentrant_grain_stays_fifo_when_messages_arrive_mid_turn():
    Slow.served = []
    env = Environment(seed=1)
    # No jitter: the wire keeps send order, so arrival order is known.
    cluster = Cluster(env, AppConfig(
        silos=1, cores_per_silo=4,
        costs=dataclasses.replace(SLOW_TURNS, remote_jitter=0.0)))
    ref = cluster.grain_ref(Slow, "s")
    activation = cluster.activation_of(ref)
    replies = []

    def send(tag):
        ref.call("serve", tag).callbacks.append(
            lambda event: replies.append(event.value))

    # Three at once, then one that lands while the first turn holds
    # its core and one while the second does: free cores never let a
    # later message overtake a queued one.
    for tag in "abc":
        send(tag)
    env.run(until=0.005)
    assert len(activation.inflight) == 1 and len(activation.mailbox) == 2
    send("d")
    env.run(until=0.015)
    send("e")
    assert [message.args[0] for message in activation.mailbox] == ["c", "d"]
    env.run()
    assert [tag for tag, _, _ in Slow.served] == list("abcde")
    assert replies == list("abcde")
    # Only the first found the grain idle and started in ``_deliver``;
    # each later turn was started by the one finishing before it.
    times = [time for _, _, time in Slow.served]
    assert times == sorted(times) and len(set(times)) == 5
    assert activation.processed == 5 and not activation.mailbox


# ---------------------------------------------------------------------------
# (d) same-tick order on the actor path
# ---------------------------------------------------------------------------
class Sequenced(Grain):
    """Non-reentrant; logs every step of its turns to ``timeline``."""

    timeline: list = []

    def plain(self, label):
        self.timeline.append((self.env.now, f"{label} ran"))
        return label

    def generator(self, label, target):
        self.timeline.append((self.env.now, f"{label} before"))
        reply = yield self.call(target, "plain", f"{label}/nested")
        self.timeline.append((self.env.now, f"{label} after {reply}"))
        return label

    def sleeps(self, label, seconds):
        yield self.env.timeout(seconds)
        self.timeline.append((self.env.now, f"{label} woke"))
        return label


class FreeCpuView:
    """``cluster`` seen through a cost model that charges no grain CPU;
    everything else is the cluster's own."""

    def __init__(self, cluster):
        self._cluster = cluster
        self.costs = dataclasses.replace(cluster.costs, grain_cpu=0.0)

    def __getattr__(self, name):
        return getattr(self._cluster, name)


class Instant(Sequenced):
    """Costs no CPU: its turn holds the core for zero time, so its body
    runs in the tick its message arrives.  A cluster charges every
    grain the same ``grain_cpu``, so an instant grain sees its cluster
    through a :class:`FreeCpuView`."""

    @property
    def cluster(self):
        return self._cluster

    @cluster.setter
    def cluster(self, cluster):
        self._cluster = cluster and FreeCpuView(cluster)


class SequencedReentrant(Sequenced):
    reentrant = True


#: The timelines' wire has no jitter, and a turn holds its core 1 ms.
TIMELINE_COSTS = CostModel(remote_jitter=0.0, grain_cpu=0.001)


def actor_timeline():
    """Run a fixed script of calls and tells on two one-core silos with
    a jitter-free wire, so that many entries share a tick.  Returns the
    ``(env.now, label)`` steps in dispatch order and the kernel events
    processed."""
    Sequenced.timeline = timeline = []
    env = Environment(seed=3)
    cluster = Cluster(env, AppConfig(silos=2, cores_per_silo=1,
                                     costs=TIMELINE_COSTS))

    def refs(grain_type, silo, count):
        keys = (f"k{i}" for i in range(100))
        return [cluster.grain_ref(grain_type, key) for key in keys
                if cluster.placement.place(grain_type.__name__, key)
                is silo][:count]

    left, right = cluster.silos
    a0, a1, a2 = refs(Sequenced, left, 3)
    b0, b1 = refs(Sequenced, right, 2)
    (i0, i1), (j0,) = refs(Instant, left, 2), refs(Instant, right, 1)
    (shared,) = refs(SequencedReentrant, left, 1)

    def call(ref, method, label, *args):
        promise = ref.call(method, label, *args)
        promise.callbacks.append(
            lambda _event: timeline.append((env.now, f"{label} replied")))

    def script():
        # One tick: three turns for the left silo's only core (the
        # second message to a0 waits in its mailbox, a1 for the core),
        # a turn that sleeps for exactly the wire latency,
        # nested calls across silos, two interleaving turns on a
        # reentrant grain, zero-cost turns and a tell.
        call(a0, "plain", "p1")
        # Wakes in the tick p1's reply arrives, one entry after it.
        call(b0, "sleeps", "w1", 0.0004)
        call(b0, "generator", "g1", a2)
        call(a0, "plain", "p2")
        call(a1, "plain", "p3")
        call(i0, "plain", "i1")
        call(j0, "generator", "j1", i1)
        call(shared, "generator", "r1", b1)
        call(shared, "generator", "r2", j0)
        a1.tell("plain", "t1")
        call(i0, "generator", "i2", j0)
        # A second wave lands while the first still queues.  Only a2, b1
        # and i1 serve nested calls, and none of them nests: no turn
        # waits on a grain that waits on it.
        yield env.timeout(0.0016)
        call(a2, "generator", "g2", b1)
        b1.tell("plain", "t2")
        call(a0, "plain", "p4")
        call(j0, "generator", "j2", i1)
        call(i1, "plain", "i3")

    env.process(script())
    env.run()
    return timeline, env.events_processed


#: ``actor_timeline()`` recorded before the grain message scheduled its
#: own hop, core hold and reply (each step took the same sequence
#: number through ``call_after``, ``Resource.hold`` and
#: ``trigger_after``).  A reply sent one bucket step late swaps
#: "p1 replied" and "w1 woke" and costs one event more per reply.
ACTOR_TIMELINE = [
    (0.0014, "p1 ran"),
    (0.0014, "j1 before"),
    (0.0018, "p1 replied"),
    (0.0018, "w1 woke"),
    (0.0022, "w1 replied"),
    (0.0024000000000000002, "p3 ran"),
    (0.0024000000000000002, "i1 ran"),
    (0.0028, "g1 before"),
    (0.0028000000000000004, "p3 replied"),
    (0.0028000000000000004, "i1 replied"),
    (0.0034000000000000002, "r1 before"),
    (0.0038, "t2 ran"),
    (0.0044, "r2 before"),
    (0.0048000000000000004, "r1/nested ran"),
    (0.005200000000000001, "r1 after r1/nested"),
    (0.0054, "p2 ran"),
    (0.0054, "j1/nested ran"),
    (0.005600000000000001, "r1 replied"),
    (0.0058000000000000005, "p2 replied"),
    (0.0058000000000000005, "j1 after j1/nested"),
    (0.0058000000000000005, "j2 before"),
    (0.006200000000000001, "j1 replied"),
    (0.0064, "g2 before"),
    (0.0074, "t1 ran"),
    (0.0074, "i2 before"),
    (0.0078000000000000005, "g2/nested ran"),
    (0.0082, "g2 after g2/nested"),
    (0.008400000000000001, "p4 ran"),
    (0.008400000000000001, "i3 ran"),
    (0.0086, "g2 replied"),
    (0.0088, "p4 replied"),
    (0.0088, "i3 replied"),
    (0.009400000000000002, "g1/nested ran"),
    (0.009400000000000002, "j2/nested ran"),
    (0.009800000000000001, "g1 after g1/nested"),
    (0.009800000000000001, "j2 after j2/nested"),
    (0.009800000000000001, "r2/nested ran"),
    (0.009800000000000001, "i2/nested ran"),
    (0.0102, "g1 replied"),
    (0.0102, "j2 replied"),
    (0.0102, "r2 after r2/nested"),
    (0.0102, "i2 after i2/nested"),
    (0.0106, "r2 replied"),
    (0.0106, "i2 replied"),
]
ACTOR_TIMELINE_EVENTS = 86


def test_same_tick_order_on_the_actor_path_is_pinned():
    """The goldens hash payloads, and a payload rarely depends on which
    of two entries due in one tick runs first; this pins that order on
    the grain-call path step by step."""
    timeline, events = actor_timeline()
    assert timeline == ACTOR_TIMELINE
    assert events == ACTOR_TIMELINE_EVENTS


# ---------------------------------------------------------------------------
# (e) same-tick order on the 2PC path
# ---------------------------------------------------------------------------
class LoggedParticipant(TransactionParticipant):
    """Logs its 2PC outcomes to ``Ledger.timeline`` as its commit log
    records them."""

    def __init__(self, env, identity):
        super().__init__(env, identity)
        self.commit_log = ReportingLog(self._log)

    def _log(self, entry):
        time, txid, outcome = entry
        Ledger.timeline.append(
            (time, f"{Ledger.names[txid]} {outcome} {self.identity[1]}"))


class Ledger(TransactionalGrain):
    """Logs every step of its turns; ``names`` maps a transaction id
    to its script label."""

    timeline: list = []
    names: dict = {}

    @property
    def participant(self):
        if self._participant is None:
            self._participant = LoggedParticipant(
                self.env, (type(self).__name__, self.key))
        return self._participant

    def _log(self, step):
        self.timeline.append(
            (self.env.now,
             f"{self.names[self.current_txn.txid]} {step} {self.key}"))

    def add(self, amount, hold=0.0, veto=False):
        self._log("writes")
        if veto and self.current_txn.attempt == 1:
            # Enlisted, but holds no lock: the prepare round vetoes.
            self.current_txn.register(self.participant)
            return
        state = yield from self.txn_read()
        yield from self.txn_write({"total": state.get("total", 0) + amount})
        self._log("wrote")
        if hold:
            yield self.env.timeout(hold)

    def peek(self):
        self._log("reads")
        state = yield from self.txn_read()
        self._log("read")
        return state.get("total", 0)


class Forwarder(Grain):
    """Not transactional: forwards a call, and its transaction, on."""

    reentrant = True

    def forward(self, target, method):
        return (yield self.call(target, method))


def txn_timeline():
    """Run a fixed script of overlapping transactions on two one-core
    silos with a jitter-free wire.  Returns the ``(env.now, label)``
    steps in dispatch order and the kernel events processed.

    At 0: ``u1`` writes a left and a right grain;
    ``o1`` and ``o2`` read ``c`` through a relay on the right silo; ``y``
    (younger than both) writes ``c`` first and keeps its turn, and so
    its lock, for 3 ms, so both readers queue for ``c`` and are granted
    in one wake-up when ``y`` commits.  At 0.5 ms ``v`` vetoes its
    first prepare round and commits on its retry; at 1 ms ``z``
    (youngest) dies by wait-die on ``c`` until the lock is free."""
    Ledger.timeline = timeline = []
    Ledger.names = names = {}
    env = Environment(seed=3)
    cluster = Cluster(env, AppConfig(silos=2, cores_per_silo=1,
                                     costs=TIMELINE_COSTS))
    runner = TransactionRunner(cluster)
    left, right = cluster.silos

    def ref(grain_type, silo, skip=0):
        keys = (f"{grain_type.__name__[0].lower()}{i}" for i in range(100))
        return [cluster.grain_ref(grain_type, key) for key in keys
                if cluster.placement.place(grain_type.__name__, key)
                is silo][skip]

    a, c, e = ref(Ledger, left), ref(Ledger, left, 1), ref(Ledger, left, 2)
    b, relay = ref(Ledger, right), ref(Forwarder, right)

    def run(label, *calls):
        def body(ctx):
            names[ctx.txid] = label
            timeline.append((env.now, f"{label} attempt {ctx.attempt}"))
            return env.all_of([target.call(method, *args, txn=ctx)
                               for target, method, *args in calls])

        transaction = runner.run(body)
        transaction.callbacks.append(lambda event: timeline.append(
            (env.now, f"{label} {'settled' if event.ok else 'failed'}")))
        return transaction

    def script():
        u1 = run("u1", (a, "add", 1), (b, "add", 2))
        run("o1", (relay, "forward", c, "peek"))
        run("o2", (relay, "forward", c, "peek"))
        run("y", (c, "add", 10, 0.003))
        yield env.timeout(0.0005)
        run("v", (e, "add", 5, 0.0, True))
        yield env.timeout(0.0005)
        run("z", (c, "add", 100))
        # Two waiters on one transaction: the log callback came first.
        yield u1
        timeline.append((env.now, "u1 resumed its caller"))

    env.process(script())
    env.run()
    assert runner.stats.committed == 6 and runner.stats.aborted == 0
    return timeline, env.events_processed


#: ``txn_timeline()`` as a round that forced its logs once per distinct
#: participant latency produced it (and as one that forces every
#: yes-voter's log in one entry reproduces it).  The goldens
#: hash payloads, and a payload rarely depends on which of two entries
#: due in one tick runs first: a lock manager that wakes its waiters
#: LIFO swaps "o1 read" and "o2 read" at 0.0082, and a transaction that
#: runs its waiters in reverse swaps "u1 settled" and "u1 resumed its
#: caller".
TXN_TIMELINE = [
    (0.0, 'u1 attempt 1'),
    (0.0, 'o1 attempt 1'),
    (0.0, 'o2 attempt 1'),
    (0.0, 'y attempt 1'),
    (0.0005, 'v attempt 1'),
    (0.001, 'z attempt 1'),
    (0.0014, 'u1 writes l2'),
    (0.0014, 'u1 wrote l2'),
    (0.0014, 'u1 writes l0'),
    (0.0014, 'u1 wrote l0'),
    (0.0024000000000000002, 'y writes l4'),
    (0.0024000000000000002, 'y wrote l4'),
    (0.0026, 'u1 prepared l2'),
    (0.0026, 'u1 prepared l0'),
    (0.0034000000000000002, 'v writes l6'),
    (0.0042, 'u1 committed l2'),
    (0.0042, 'u1 committed l0'),
    (0.0042, 'u1 settled'),
    (0.0042, 'u1 resumed its caller'),
    (0.0044, 'z writes l4'),
    (0.0044, 'v aborted l6'),
    (0.0054, 'o1 reads l4'),
    (0.0064, 'o2 reads l4'),
    (0.0066, 'y prepared l4'),
    (0.006657162647448991, 'v attempt 2'),
    (0.00731232506731078, 'z attempt 2'),
    (0.00805716264744899, 'v writes l6'),
    (0.00805716264744899, 'v wrote l6'),
    (0.0082, 'y committed l4'),
    (0.0082, 'o1 read l4'),
    (0.0082, 'o2 read l4'),
    (0.0082, 'y settled'),
    (0.00905716264744899, 'z writes l4'),
    (0.00925716264744899, 'v prepared l6'),
    (0.00945716264744899, 'z aborted l4'),
    (0.0098, 'o1 prepared l4'),
    (0.0098, 'o2 prepared l4'),
    (0.01085716264744899, 'v committed l6'),
    (0.01085716264744899, 'v settled'),
    (0.0114, 'o1 committed l4'),
    (0.0114, 'o2 committed l4'),
    (0.0114, 'o1 settled'),
    (0.0114, 'o2 settled'),
    (0.014271255380719647, 'z attempt 3'),
    (0.015671255380719645, 'z writes l4'),
    (0.015671255380719645, 'z wrote l4'),
    (0.01687125538071965, 'z prepared l4'),
    (0.018471255380719653, 'z committed l4'),
    (0.018471255380719653, 'z settled'),
]
TXN_TIMELINE_EVENTS = 114


def test_same_tick_order_on_the_2pc_path_is_pinned():
    timeline, events = txn_timeline()
    assert timeline == TXN_TIMELINE
    assert events == TXN_TIMELINE_EVENTS


# ---------------------------------------------------------------------------
# (f) same-tick order on the statefun path
# ---------------------------------------------------------------------------
#: A binary fraction of a second, so that sums of costs are exact and
#: entries of different kinds land on one tick.
UNIT = 2 ** -10
#: A hop costs one unit of delivery and one of CPU, and one more of
#: each when it crosses partitions; a checkpoint syncs for two units.
STATEFUN_TIMELINE_COSTS = CostModel(
    delivery_latency=UNIT, cross_partition_latency=UNIT,
    function_cpu=UNIT / 2, envelope_cpu=UNIT / 2,
    cross_partition_cpu=UNIT, checkpoint_sync=2 * UNIT)


class Hop(StatefulFunction):
    """Logs its run to ``timeline``, then fans out to ``fan`` keys for
    ``hops`` more hops, or egresses at the end of its chain."""

    timeline: list = []

    def invoke(self, context, payload):
        label, hops, fan = payload
        now = context.worker.env.now
        crossed = " crossed" if context.message.cross_partition else ""
        self.timeline.append((now, f"{label} ran{crossed}"))
        if not hops:
            self.timeline.append((now, f"{label} egress"))
            context.egress("done", label,
                           effect_id=f"{context.request_id}:{label}")
            return
        for branch in range(fan):
            context.send("hop", f"k{(hops + branch) % 5}",
                         (f"{label}.{branch}", hops - 1, 1))


def statefun_timeline():
    """Run a fixed script of fanning-out requests on three partitions,
    with a checkpoint taken while messages are on the wire and two
    workers are in a CPU charge.  Returns the ``(env.now, label)``
    steps in dispatch order and the kernel events processed."""
    Hop.timeline = timeline = []
    env = Environment(seed=3)
    runtime = StatefunRuntime(env, AppConfig(
        silos=3, checkpoint_interval=0, costs=STATEFUN_TIMELINE_COSTS))
    runtime.register("hop", Hop())

    def request(label, key, hops, fan):
        waiter = runtime.request("hop", key, (label, hops, fan), label)
        waiter.callbacks.append(
            lambda _event: timeline.append((env.now, f"{label} replied")))

    def script():
        request("a", "k0", 3, 3)
        request("b", "k1", 4, 1)
        request("c", "k0", 2, 2)  # queues behind "a"
        yield env.timeout(5 * UNIT)
        timeline.append((env.now, "checkpoint"))
        request("d", "k2", 2, 2)  # on the wire into the pause
        yield from runtime.take_checkpoint()
        timeline.append((env.now, "resumed"))
        request("e", "k3", 1, 2)

    env.process(script())
    env.run()
    assert runtime.checkpoints_taken == 1
    return timeline, env.events_processed


#: ``statefun_timeline()`` recorded while a function's send went
#: through ``StatefunRuntime.send_internal`` and ``trigger_after``, and
#: a worker's wake-up and CPU charge through ``env.call_after``.  A
#: charge pushed before the function's own sends, or a wake-up pushed
#: one bucket step late, reorders entries that share a tick.
STATEFUN_TIMELINE = [
    (0.001953125, 'a ran'),
    (0.001953125, 'b ran'),
    (0.0029296875, 'c ran'),
    (0.00390625, 'a.0 ran'),
    (0.00390625, 'b.0 ran'),
    (0.0048828125, 'checkpoint'),
    (0.0048828125, 'a.2 ran'),
    (0.005859375, 'a.1 ran crossed'),
    (0.005859375, 'c.0 ran'),
    (0.009765625, 'resumed'),
    (0.0107421875, 'c.1 ran'),
    (0.01171875, 'c.0.0 ran crossed'),
    (0.01171875, 'c.0.0 egress'),
    (0.01171875, 'a.0.0 ran'),
    (0.01171875, 'c replied'),
    (0.013671875, 'b.0.0 ran crossed'),
    (0.0146484375, 'c.1.0 ran crossed'),
    (0.0146484375, 'c.1.0 egress'),
    (0.0146484375, 'd ran'),
    (0.015625, 'a.2.0 ran'),
    (0.0166015625, 'a.0.0.0 ran crossed'),
    (0.0166015625, 'a.0.0.0 egress'),
    (0.0166015625, 'a replied'),
    (0.017578125, 'a.1.0 ran crossed'),
    (0.0185546875, 'e ran'),
    (0.01953125, 'a.2.0.0 ran crossed'),
    (0.01953125, 'a.2.0.0 egress'),
    (0.01953125, 'b.0.0.0 ran'),
    (0.0205078125, 'd.0 ran'),
    (0.021484375, 'a.1.0.0 ran crossed'),
    (0.021484375, 'a.1.0.0 egress'),
    (0.021484375, 'd.1 ran'),
    (0.0224609375, 'e.1 ran'),
    (0.0224609375, 'e.1 egress'),
    (0.0224609375, 'e replied'),
    (0.0234375, 'e.0 ran crossed'),
    (0.0234375, 'e.0 egress'),
    (0.025390625, 'b.0.0.0.0 ran crossed'),
    (0.025390625, 'b.0.0.0.0 egress'),
    (0.025390625, 'b replied'),
    (0.02734375, 'd.0.0 ran crossed'),
    (0.02734375, 'd.0.0 egress'),
    (0.02734375, 'd replied'),
    (0.029296875, 'd.1.0 ran crossed'),
    (0.029296875, 'd.1.0 egress'),
]
STATEFUN_TIMELINE_EVENTS = 78


def test_same_tick_order_on_the_statefun_path_is_pinned():
    """The dataflow twin of the actor and 2PC timelines: same-partition
    and crossing hops, fan-outs, a queue behind a busy worker, and a
    checkpoint's pause, sync and resume all share ticks."""
    timeline, events = statefun_timeline()
    assert timeline == STATEFUN_TIMELINE
    assert events == STATEFUN_TIMELINE_EVENTS
