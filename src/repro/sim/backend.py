"""What is left of the simulation-engine registry.

There is one engine, :class:`~repro.sim.eventq.EventQueue`.  These two
names survive only because ``benchmarks/perf/layers.py`` imports them:
no alternative engine is registered, so its per-engine wall ratios
read 0.
"""

from typing import List


def backend_names() -> List[str]:
    """Names of the alternative engines: none."""
    return []


def default_backend_name() -> str:
    """The one engine's name."""
    return "heap"
