"""Deterministic discrete-event simulation (DES) kernel.

Everything in this repository — the actor runtime, the transactional
layer, the dataflow runtime, the stores and the workload driver — runs on
this kernel.  It provides a virtual clock, an event queue, generator-based
processes (in the style of SimPy) and seeded random-number streams, so
that every simulation run is reproducible bit-for-bit.  Capacity lives
with the layer that models it: a silo owns its cores
(``repro.actors.silo``).
"""

from repro.runtime.environment import Environment, SimulationError
from repro.runtime.events import AllOf, Event, Timeout
from repro.runtime.process import Process
from repro.runtime.rng import RngStream, SeedSequenceFactory

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "RngStream",
    "SeedSequenceFactory",
    "SimulationError",
    "Timeout",
]
