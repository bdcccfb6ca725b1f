"""Discrete-event simulation kernel.

This package is the Python stand-in for the slice of gem5's core that the
paper's PCI-Express model depends on: a tick-based event queue
(:mod:`repro.sim.eventq`), a named simulation-object hierarchy and
simulator root (:mod:`repro.sim.simobject`), time-unit helpers
(:mod:`repro.sim.ticks`), a statistics framework (:mod:`repro.sim.stats`) and generator-based
processes for modelling software (:mod:`repro.sim.process`).

The kernel is deterministic: events scheduled for the same tick fire in
(priority, insertion-order) order, so repeated runs of the same
configuration produce identical results.
"""

from repro.sim.eventq import Event, EventQueue, CallbackEvent, ReferenceEventQueue
from repro.sim.simobject import SimObject, Simulator
from repro.sim.checkpoint import (
    CheckpointError,
    capture,
    restore,
    checkpoint_digest,
    read_checkpoint,
    write_checkpoint,
)
from repro.sim.process import Process, Signal, Delay, WaitFor
from repro.sim import ticks
from repro.sim.stats import (
    Stat,
    Scalar,
    Average,
    Distribution,
    Formula,
    StatGroup,
)

__all__ = [
    "Event",
    "EventQueue",
    "ReferenceEventQueue",
    "CallbackEvent",
    "SimObject",
    "Simulator",
    "Process",
    "Signal",
    "Delay",
    "WaitFor",
    "ticks",
    "Stat",
    "Scalar",
    "Average",
    "Distribution",
    "Formula",
    "StatGroup",
    "CheckpointError",
    "capture",
    "restore",
    "checkpoint_digest",
    "read_checkpoint",
    "write_checkpoint",
]
