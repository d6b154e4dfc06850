"""Stateful-function dataflow runtime (Apache Flink Statefun analogue).

Functions are addressed by (type, key); each worker partition processes
its messages sequentially, giving single-writer access to per-key state.
Exactly-once processing is provided the way Flink provides it: aligned
global checkpoints (stop-the-world in this simulation), rollback of all
state and queues to the last checkpoint on failure, replay of ingress
messages from the checkpoint offset, and deduplicated egress.
"""

from repro.dataflow.function import Context, StatefulFunction
from repro.dataflow.messages import FunctionMessage
from repro.dataflow.runtime import StatefunRuntime

__all__ = [
    "Context",
    "FunctionMessage",
    "StatefulFunction",
    "StatefunRuntime",
]
