"""Virtual-actor runtime in the style of Microsoft Orleans.

Grains are single-threaded virtual actors addressed by (type, key);
they are activated on demand on one of the cluster's silos and process
one message at a time (turn-based concurrency).  Their state lives in
memory: under an activation budget the working-set pager moves quiet
grains' state out and back.  The runtime models network latency between
silos and CPU service time on each silo's cores, which is what produces
realistic saturation behaviour in the benchmark results.

Cluster membership is dynamic: silos can join (``Cluster.add_silo``),
retire gracefully (``Cluster.drain_silo``) or fail-stop
(``Cluster.crash_silo``) at runtime, with grain activations migrating
to the surviving owners and routing re-placing in-flight messages.
"""

from repro.actors.cluster import Cluster, MembershipStats
from repro.actors.errors import (
    GrainCallError,
    GrainError,
    NoLiveSilos,
    SiloUnavailable,
)
from repro.actors.grain import Grain, GrainRef
from repro.actors.placement import ConsistentHashPlacement, GrainDirectory
from repro.actors.silo import Silo, SiloState

__all__ = [
    "Cluster",
    "ConsistentHashPlacement",
    "Grain",
    "GrainCallError",
    "GrainDirectory",
    "GrainError",
    "GrainRef",
    "MembershipStats",
    "NoLiveSilos",
    "Silo",
    "SiloState",
    "SiloUnavailable",
]
