"""repro-pcie: a standalone PCI-Express interconnect simulator.

A pure-Python reproduction of *Simulating PCI-Express Interconnect for
Future System Exploration* (Alian, Srinivasan, Kim — IISWC 2018): a
discrete-event model of PCI-Express links (data-link-layer ACK/NAK
protocol with replay buffers and timers), root complexes, switches and
the configuration-space machinery that lets modelled device drivers
enumerate and configure devices, all running over a gem5-style memory
substrate.

Start with :mod:`repro.system` (topology specs and the builder) or the
examples:

>>> from repro.system import build_system, validation_spec
>>> system = build_system(validation_spec())
>>> print(system.kernel.enumerator.tree_text())

See README.md for the tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "mem",
    "pci",
    "pcie",
    "devices",
    "drivers",
    "kernel",
    "workloads",
    "platform",
    "system",
    "validation",
    "analysis",
]
