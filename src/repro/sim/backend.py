"""The simulation-engine registry (``Simulator(backend=...)``).

Two engines drive the same component models:

* ``reference`` — the original pure-binary-heap scheduler
  (:class:`~repro.sim.eventq.ReferenceEventQueue`).  Smallest, and the
  executable specification of dispatch order that the default must
  match.
* ``hybrid`` — the PR-4 bucket/heap calendar queue
  (:class:`~repro.sim.eventq.EventQueue`).  The default engine.

This module makes that choice a named object instead of an ad-hoc
constructor argument:

* :func:`register` adds a :class:`Backend` under a unique name;
* :func:`resolve` maps a name (or None) to a Backend, consulting the
  ``REPRO_BACKEND`` environment variable for the process-wide default —
  exactly how ``REPRO_CHECK`` selects the invariant checker;
* :class:`~repro.sim.simobject.Simulator` accepts ``backend=`` and
  builds its event queue through the registry.

Every backend must produce byte-identical simulation *results* (stats,
traces, figure payloads, checkpoint fork continuations); only wall
clock and internal event accounting may differ.  The golden traces,
figure sweeps, stress campaign and the ``backend-identity`` CI job
enforce that contract.
"""

import os
from typing import Callable, Dict, List, Optional

from repro.sim.eventq import EventQueue, ReferenceEventQueue

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "Backend",
    "backend_names",
    "default_backend_name",
    "register",
    "resolve",
]

#: Environment variable consulted when ``Simulator(backend=None)``: set
#: to a registered backend name to select the engine process-wide (how
#: the CI ``backend-identity`` job runs everything under each name).
BACKEND_ENV = "REPRO_BACKEND"

#: Backend used when neither the constructor nor the environment picks.
DEFAULT_BACKEND = "hybrid"

#: The registry itself: name -> Backend.
_REGISTRY: Dict[str, "Backend"] = {}


class Backend:
    """One named simulation engine.

    Args:
        name: registry key (also what ``REPRO_BACKEND`` matches).
        description: one line for ``--list`` style output.
        make_eventq: factory producing the engine's event queue given
            the queue name.
    """

    __slots__ = ("name", "description", "make_eventq")

    def __init__(self, name: str, description: str,
                 make_eventq: Callable[[str], object]):
        self.name = name
        self.description = description
        self.make_eventq = make_eventq

    def __repr__(self) -> str:
        return f"<Backend {self.name!r}>"


def register(backend: Backend) -> Backend:
    """Add ``backend`` to the registry; duplicate names are an error."""
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def default_backend_name() -> str:
    """The process-wide default: ``REPRO_BACKEND`` else ``hybrid``."""
    return os.environ.get(BACKEND_ENV, "").strip() or DEFAULT_BACKEND


def resolve(name: Optional[str] = None) -> Backend:
    """Map a backend name (or None) to its :class:`Backend`.

    None consults :func:`default_backend_name`; unknown names raise a
    ValueError listing the registered choices, so a typo in
    ``--backend`` or ``REPRO_BACKEND`` fails loudly instead of silently
    simulating on the wrong engine.
    """
    chosen = name if name is not None else default_backend_name()
    backend = _REGISTRY.get(chosen)
    if backend is None:
        known = ", ".join(backend_names())
        raise ValueError(
            f"unknown simulation backend {chosen!r} (known: {known})")
    return backend


register(Backend(
    "reference",
    "pure binary-heap scheduler; the executable dispatch-order spec",
    lambda name: ReferenceEventQueue(name),
))
register(Backend(
    "hybrid",
    "bucket/heap calendar queue (PR 4); the default engine",
    lambda name: EventQueue(name),
))
