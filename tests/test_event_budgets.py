"""Exact kernel-event budgets, timing equivalence and crash points of
the callback-driven hot paths.

A grain turn, a 2PC round and a statefun delivery and worker run as
pooled ``call_after`` timeline entries, not as processes.  Three things pin
that restructuring here, all as exact counts or exact float times read
from the kernel (``env.events_processed``, ``env.now``):

* the *budget*: a call to a method that never waits costs 3 events
  and at most 24 Python frames of ``repro.actors`` + ``repro.runtime``,
  a committed transaction's 2PC 8 events whatever the participant
  count, a statefun message at most 16 frames of ``repro.dataflow`` +
  ``repro.runtime``;
* the *equivalence*: every participant and the coordinator observe the
  very times the retired one-process-per-participant model produced
  (that model is kept below as the reference);
* the *crash matrix*: a silo dying under a turn at each of its three
  states yields exactly one outcome per caller and never resumes the
  abandoned body; the message is its own turn, so the same object is
  followed from a dying silo's mailbox to its new owner.
"""

import cProfile

import pytest

from repro.actors import Cluster, ClusterConfig, Grain, SiloUnavailable
from repro.actors.silo import SiloState
from repro.dataflow import StatefulFunction, StatefunConfig, StatefunRuntime
from repro.runtime import Environment, SimulationError
from repro.runtime.process import Process
from repro.txn import (
    TransactionAborted,
    TransactionParticipant,
    TransactionRunner,
    TxnConfig,
)


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
    cluster = Cluster(env, ClusterConfig())
    ref = cluster.grain_ref(grain_type, "k")
    # Delivery, CPU hold, the reply carrying the promise — on a cold
    # activation (nothing to read, no hook: ready at construction) and
    # on the warm one alike.
    assert events_for(env, ref.call(method)) == 3
    assert events_for(env, ref.call(method)) == 3
    assert not spawned


def test_a_waiting_method_adds_exactly_its_own_events():
    env = Environment(seed=1)
    cluster = Cluster(env, ClusterConfig())
    ref = cluster.grain_ref(Reentrant, "k")
    assert events_for(env, ref.call("waits", 0.001)) == 3 + 1


#: Python frames (cProfile, builtins off) of ``repro.actors`` and
#: ``repro.runtime`` code per warm ``env.run(until=ref.call("plain"))``.
#: Measured 21: 15 for the call — ref.call, dispatch, the promise's and
#: the message's ``__init__``, _route, _target_for, call_after,
#: _deliver, enqueue, hold, call_after, held, _run, _reply,
#: trigger_after — and 6 for the ``run(until=…)`` wrapper.  It was 37
#: while a call was a message, a turn and two closures.  ``<=`` because
#: interpreters differ in what they inline.
MAX_FRAMES_PER_CALL = 24
#: Pure reads of kernel state: attribute loads, never frames.
READ_ONLY_FRAMES = {"now", "type_name", "alive", "_account"}
#: The fused path itself: exactly one frame of each per call.
FUSED_PATH = ("dispatch", "_route", "_deliver", "enqueue", "hold", "held",
              "_run", "_reply")


def test_call_to_a_method_that_never_waits_stays_in_its_frame_budget():
    env = Environment(seed=1)
    cluster = Cluster(env, ClusterConfig())
    ref = cluster.grain_ref(Plain, "k")
    for _ in range(10):
        env.run(until=ref.call("plain"))
    calls = 1000
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    for _ in range(calls):
        env.run(until=ref.call("plain"))
    profiler.disable()
    frames = {}
    for entry in profiler.getstats():
        filename = entry.code.co_filename.replace("\\", "/")
        if "repro/actors/" in filename or "repro/runtime/" in filename:
            name = entry.code.co_name
            frames[name] = frames.get(name, 0) + entry.callcount
    assert not READ_ONLY_FRAMES & set(frames), frames
    per_call = sum(frames.values()) / calls
    assert per_call <= MAX_FRAMES_PER_CALL, (per_call, frames)
    assert ({name: frames[name] for name in FUSED_PATH}
            == dict.fromkeys(FUSED_PATH, calls))


def test_statefun_message_costs_one_delivery_event():
    class Sink(StatefulFunction):
        cpu_cost = 0.0

        def invoke(self, context, payload):
            context.state["seen"] = payload

    env = Environment(seed=1)
    runtime = StatefunRuntime(env, StatefunConfig(
        partitions=1, checkpoint_interval=0))
    runtime.register("sink", Sink())
    env.run()  # worker parked on its empty queue
    before = env.events_processed
    runtime.send_ingress("sink", "a", 1)
    env.run()
    assert runtime.state_of("sink", "a") == {"seen": 1}
    # Delivery, the worker's wake-up, its CPU hold: the wire itself is
    # one pooled entry (it was a three-event process).
    assert env.events_processed - before == 3


class Relay(StatefulFunction):
    """Records the hops left and passes the rest down the chain."""

    cpu_cost = 0.0

    def invoke(self, context, payload):
        chain, hops = payload
        context.state["hops"] = hops
        if hops:
            context.send("relay", f"{chain}/{hops - 1}", (chain, hops - 1))


#: Python frames (cProfile, builtins off) of ``repro.dataflow`` and
#: ``repro.runtime`` code per statefun message on a relay over four
#: partitions.  Measured 13.9: the send (Context.send, send_internal,
#: the message's ``__init__``, _deliver, call_after; one frame less
#: from ingress), the arrival (arrive, enqueue; a call_after more when
#: it wakes an idle worker) and the turn (_next, hold, call_after,
#: held, _run, state_for, Context's ``__init__``).  It was 23.8 while
#: a worker was a process.  ``<=`` because interpreters differ in what
#: they inline.
MAX_FRAMES_PER_STATEFUN_MESSAGE = 16
#: Frames of the retired worker process, its ``address()`` method and
#: the per-delivery checks, none of which a message may cost any more.
RETIRED_STATEFUN_FRAMES = {"address", "isgenerator", "triggered", "_loop",
                           "_process", "use", "timeout"}


def test_statefun_message_stays_in_its_frame_budget():
    env = Environment(seed=1)
    runtime = StatefunRuntime(env, StatefunConfig(
        partitions=4, checkpoint_interval=0))
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

    cpu_cost = 0.0

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
    runtime = StatefunRuntime(env, StatefunConfig(
        partitions=1, checkpoint_interval=0))
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


#: Events of one ``runner.run`` around its 2PC: the driving process's
#: bootstrap, the body's own event, the process's completion.
RUN_OVERHEAD = 3
HOP, COORDINATOR_LOG = 0.0003, 0.0005


def make_runner(**txn_kwargs):
    env = Environment(seed=1)
    cluster = Cluster(env, ClusterConfig())
    runner = TransactionRunner(cluster, TxnConfig(
        control_latency=HOP, coordinator_log_latency=COORDINATOR_LOG,
        **txn_kwargs))
    return env, runner


def make_participants(env, log_latencies):
    return [TransactionParticipant(env, ("P", str(index)), latency)
            for index, latency in enumerate(log_latencies)]


def enlist(ctx, participant, value):
    """Stage a write (X-lock + enlistment); uncontended, so the process
    helper finishes without ever yielding."""
    for _ in participant.write(ctx, {"value": value}):
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
    process = env.process(runner.run(body))
    env.run(until=process)
    return env.events_processed - before, start, env.now


@pytest.mark.parametrize("count", [1, 4, 16])
def test_two_phase_commit_costs_eight_events_for_any_participant_count(
        count):
    env, runner = make_runner()
    participants = make_participants(env, [0.0005] * count)
    events, _, _ = run_transaction(env, runner, participants)
    # Prepare: hop out, log force, hop back, round event.  Coordinator
    # log.  Commit: hop out, log force, round event.
    assert events - RUN_OVERHEAD == 8
    assert runner.stats.committed == 1
    assert all(p.commits == 1 and p.committed_state["value"] == index
               for index, p in enumerate(participants))


@pytest.mark.parametrize("count", [4, 16])
def test_each_distinct_log_latency_adds_a_fixed_three_events(count):
    costs = []
    for groups in (1, 2, 3):
        env, runner = make_runner()
        latencies = [0.0005 * (1 + index % groups)
                     for index in range(count)]
        events, _, _ = run_transaction(
            env, runner, make_participants(env, latencies))
        costs.append(events - RUN_OVERHEAD)
    # One more prepare log force, hop back and commit log force.
    assert costs == [8, 11, 14]


def test_one_shot_commit_ablation_reuses_the_commit_round():
    env, runner = make_runner(enable_two_phase_commit=False)
    participants = make_participants(env, [0.0005] * 4)
    events, start, end = run_transaction(env, runner, participants)
    assert events - RUN_OVERHEAD == 3  # hop out, log force, round event
    assert end == (start + HOP) + 0.0005
    assert all(p.commits == 1 and p.prepares == 0 for p in participants)


def test_veto_skips_the_log_force():
    env, runner = make_runner(max_retries=0)
    (participant,) = make_participants(env, [0.0005])
    env.run(until=0.0123)

    def body(ctx):
        ctx.register(participant)  # enlisted, but holds no lock: vetoes
        return env.timeout(0.0)

    before = env.events_processed
    process = env.process(runner.run(body))
    with pytest.raises(TransactionAborted) as excinfo:
        env.run(until=process)
    assert excinfo.value.reason == "veto"
    # Hop out, hop back, round event: nothing was made durable.
    assert env.events_processed - before - RUN_OVERHEAD == 3
    assert env.now == (0.0123 + HOP) + HOP
    assert participant.prepares == 0
    assert [entry[2] for entry in participant.commit_log] == ["aborted"]


def test_yes_voters_still_force_their_log_beside_a_veto():
    env, runner = make_runner(max_retries=0)
    voter, vetoer = make_participants(env, [0.001, 0.0005])

    def body(ctx):
        enlist(ctx, voter, 1)
        ctx.register(vetoer)
        return env.timeout(0.0)

    process = env.process(runner.run(body))
    with pytest.raises(TransactionAborted):
        env.run(until=process)
    # The coordinator waited for the slowest reply before aborting.
    assert env.now == ((0.0 + HOP) + 0.001) + HOP
    assert [entry[2] for entry in voter.commit_log] == [
        "prepared", "aborted"]
    assert voter.commit_log[0][0] == (0.0 + HOP) + 0.001
    assert voter.committed_state == {} and not voter.lock.holders()


# ---------------------------------------------------------------------------
# (b) timing equivalence with the per-participant process model
# ---------------------------------------------------------------------------
def reference_times(start, log_latencies):
    """The retired model: one process per participant and phase, joined
    by ``all_of``.  Returns (prepared times, committed times, end)."""
    env = Environment(seed=1)
    env.run(until=start)
    prepared, committed = {}, {}

    def prepare_one(index, log):
        yield env.timeout(HOP)
        yield env.timeout(log)
        prepared[index] = env.now
        yield env.timeout(HOP)

    def commit_one(index, log):
        yield env.timeout(HOP)
        yield env.timeout(log)
        committed[index] = env.now

    def coordinator():
        yield env.all_of([env.process(prepare_one(index, log))
                          for index, log in enumerate(log_latencies)])
        yield env.timeout(COORDINATOR_LOG)
        yield env.all_of([env.process(commit_one(index, log))
                          for index, log in enumerate(log_latencies)])

    env.run(until=env.process(coordinator()))
    return prepared, committed, env.now


def test_mixed_log_latencies_keep_every_per_participant_time():
    latencies = [0.001, 0.0005, 0.002, 0.001, 0.0005, 0.00075]
    env, runner = make_runner()
    participants = make_participants(env, latencies)
    _, start, end = run_transaction(env, runner, participants)
    prepared, committed, reference_end = reference_times(start, latencies)
    for index, participant in enumerate(participants):
        log = {outcome: time
               for time, _txid, outcome in participant.commit_log}
        assert log["prepared"] == prepared[index]
        assert log["prepared"] == (start + HOP) + latencies[index]
        assert log["committed"] == committed[index]
    # The coordinator resumes when the slowest participant is done.
    assert end == reference_end == max(committed.values())


def test_participants_are_visited_in_enlistment_order():
    env, runner = make_runner()
    participants = make_participants(env, [0.001, 0.0005, 0.001, 0.0005])
    visits = []
    for participant in participants:
        original = participant.mark_committed

        def spy(ctx, participant=participant, original=original):
            visits.append((env.now, participant.identity[1]))
            original(ctx)

        participant.mark_committed = spy
    run_transaction(env, runner, participants)
    # By time first; enlistment order among equals.
    assert [key for _, key in visits] == ["1", "3", "0", "2"]
    assert visits == sorted(visits, key=lambda visit: visit[0])


# ---------------------------------------------------------------------------
# (c) crash matrix for the message that is its own turn
# ---------------------------------------------------------------------------
class Witness(Grain):
    """Records how far each body got; class-level so that it survives
    the activation."""

    reentrant = True
    cpu_cost = 0.01
    trail: list = []

    def quick(self):
        self.trail.append(("ran", self.key, self.env.now))
        return self.key

    def fails(self):
        self.trail.append(("ran", self.key, self.env.now))
        raise ValueError(self.key)

    def nested(self, target_key, method="quick"):
        self.trail.append(("before", self.key))
        result = yield self.call(self.grain_ref(Witness, target_key),
                                 method)
        self.trail.append(("after", self.key))
        return result


def crash_cluster():
    Witness.trail = []
    env = Environment(seed=1)
    cluster = Cluster(env, ClusterConfig(
        silos=2, cores_per_silo=1, failure_detection_delay=0.0))
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


def test_crash_while_a_turn_waits_for_a_core():
    env, cluster, keys = crash_cluster()
    victim = cluster.silos[0]
    first, second = keys[victim][:2]
    running = outcomes_of(cluster.grain_ref(Witness, first).call("quick"))
    queued = outcomes_of(cluster.grain_ref(Witness, second).call("quick"))
    env.run(until=0.005)
    # One core: the first turn holds it, the second queues for it.
    assert victim.cpu.in_use == 1 and victim.cpu.queue_length == 1
    cluster.crash_silo(victim)
    env.run()
    for seen in (running, queued):
        assert len(seen) == 1 and isinstance(seen[0], SiloUnavailable)
    assert Witness.trail == []  # neither body ever ran
    assert victim.cpu.in_use == 0 and victim.cpu.queue_length == 0
    assert cluster.membership.unavailable_failures == 2


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
    """Non-reentrant; keeps its core for 10 ms a call."""

    cpu_cost = 0.01
    served: list = []

    def serve(self, tag):
        self.served.append((tag, self.silo.name, self.env.now))
        return tag


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
    cluster = Cluster(env, ClusterConfig(silos=1, cores_per_silo=4,
                                         remote_jitter=0.0))
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
    # Only the first found the grain idle and started in ``enqueue``;
    # each later turn was started by the one finishing before it.
    times = [time for _, _, time in Slow.served]
    assert times == sorted(times) and len(set(times)) == 5
    assert activation.processed == 5 and not activation.mailbox
