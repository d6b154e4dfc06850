"""Every settable simulated cost: one frozen :class:`CostModel`, the
``costs`` field of the one deployment config
(:class:`repro.config.AppConfig`), which each layer that charges a cost
reads from there, so a sweep changes one object.  Values are simulated
seconds; costs with one value in use are module constants beside their
code (pager, KV, audit, SQL), as are the deployment values no caller
varies.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Latencies, CPU charges and pauses of the simulated platforms
    (``docs/architecture.md`` tabulates who charges each)."""

    # Network, one way.  A grain call on its own silo, or across silos
    # plus up to ``remote_jitter``; it pays its hop twice.
    local_latency: float = 0.00005
    remote_latency: float = 0.0004
    remote_jitter: float = 0.0002
    #: Coordinator <-> participant 2PC control message.
    control_latency: float = 0.0003
    #: Function-to-function (and ingress) delivery in the dataflow, and
    #: the extra shuffle of a message that crosses partitions: (P-1)/P
    #: of uniformly routed messages pay it and ``cross_partition_cpu``,
    #: the mechanical source of the dataflow's sub-linear scaling.
    delivery_latency: float = 0.0002
    cross_partition_latency: float = 0.0004
    #: Replica propagation: the eventual stack's broker delivery (plus
    #: up to three times it as jitter) and the customized KV replicas.
    replication_lag: float = 0.0005
    # Durability: the 2PC log forces of every participant's prepare
    # and commit record, and of the coordinator's commit decision.
    participant_log_latency: float = 0.0005
    coordinator_log_latency: float = 0.0005
    # CPU, charged before the code it models runs: a grain turn on a
    # silo core; a function invocation on its partition, plus the
    # envelope tax (the dataflow's overhead over a grain call), plus
    # the shuffle's serialisation when the message crossed partitions.
    grain_cpu: float = 0.0001
    function_cpu: float = 0.0001
    envelope_cpu: float = 0.00006
    cross_partition_cpu: float = 0.00008
    # Pauses: the dataflow's stop-the-world aligned checkpoint, restore
    # after a failure, and rescale (savepoint and restore under the new
    # parallelism: well above a checkpoint, well below a recovery).
    checkpoint_sync: float = 0.02
    recovery_pause: float = 0.25
    rescale_pause: float = 0.08

    def __post_init__(self) -> None:
        # Checked once, here: no layer looks again, a negative cost
        # would schedule into the past, and NaN fails ``>=``.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not value >= 0:
                raise ValueError(f"{field.name} must be >= 0, got {value}")
