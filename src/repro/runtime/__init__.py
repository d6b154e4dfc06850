"""Deterministic discrete-event simulation (DES) kernel.

Everything in this repository — the actor runtime, the transactional
layer, the dataflow runtime, the stores and the workload driver — runs on
this kernel.  It provides a virtual clock, an event queue, generator-based
processes (in the style of SimPy), capacity-limited resources for
modelling CPU cores, and seeded random-number streams so that every
simulation run is reproducible bit-for-bit.
"""

from repro.runtime.environment import Environment, Interrupt, SimulationError
from repro.runtime.events import AllOf, AnyOf, Event, Timeout
from repro.runtime.process import Process
from repro.runtime.resources import Resource, ResourceRequest
from repro.runtime.rng import RngStream, SeedSequenceFactory

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "ResourceRequest",
    "RngStream",
    "SeedSequenceFactory",
    "SimulationError",
    "Timeout",
]
