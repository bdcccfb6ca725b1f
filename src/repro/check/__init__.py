"""Runtime protocol-invariant checking.

The paper's simplified data-link layer — replay buffers, ACK/NAK
coalescing, timeout recovery — is stateful protocol code where silent
divergence hides.  This package machine-checks the protocol rules at
runtime so refactors and performance work are guarded by invariants,
not only by golden traces:

* :mod:`repro.check.checker` — the :class:`InvariantChecker` hooked
  into the event queue, the timing-port protocol, and the PCIe link
  layer (zero overhead while disabled);
* :mod:`repro.check.violation` — the structured
  :class:`InvariantViolation` error carrying component path, tick, and
  the most recent event dispatches.

Enable per simulator (``Simulator(check=True)``), per process
(``REPRO_CHECK=on``), per harness run (``--check``), or ad hoc
(``sim.checker.enable()``).
"""

from repro.check.checker import InvariantChecker
from repro.check.violation import InvariantViolation

__all__ = ["InvariantChecker", "InvariantViolation"]
