"""The legacy-interrupt controller.

The paper disables MSI and MSI-X in every capability structure so "the
device driver is forced to register a legacy interrupt handler".  This
controller models that path: a device asserts its line, and after a
dispatch latency (GIC + trap entry) the registered handler runs as a
kernel process.  Re-assertions while a handler for the same line is
still pending coalesce, like a level-triggered INTx wire.
"""

from typing import Callable, Dict, Optional, Set, Tuple

from repro.platform.addrmap import VEXPRESS_GEM5_V1
from repro.sim import ticks
from repro.sim.eventq import strong_callback, weak_callback
from repro.sim.process import Process
from repro.sim.simobject import SimObject, Simulator


class InterruptController(SimObject):
    """Dispatches interrupt lines to driver handler processes."""

    #: Ticks from assertion to handler entry (GIC + trap entry).
    DISPATCH_LATENCY = ticks.from_ns(500)

    def __init__(
        self,
        sim: Simulator,
        name: str = "intc",
        parent: Optional[SimObject] = None,
    ):
        super().__init__(sim, name, parent)
        # line -> generator factory (each dispatch builds a fresh one)
        # as a weak_callback pair: the kernel owns the drivers.
        self._handlers: Dict[int, Tuple] = {}
        self._pending: Set[int] = set()  # lines awaiting dispatch
        self._counter = 0

        self.raised = self.stats.scalar("raised", "interrupt assertions")
        self.dispatched = self.stats.scalar("dispatched", "handler invocations")
        self.spurious = self.stats.scalar("spurious", "assertions with no handler")
        self.coalesced = self.stats.scalar(
            "coalesced", "assertions merged into an already-pending dispatch"
        )

    def register(self, line: int, handler_factory: Callable) -> None:
        """Register ``handler_factory() -> generator`` for a line."""
        if line in self._handlers:
            raise ValueError(f"interrupt line {line} already has a handler")
        self._handlers[line] = weak_callback(handler_factory)

    def unregister(self, line: int) -> None:
        del self._handlers[line]

    def raise_irq(self, line: int) -> None:
        """A device asserted its INTx line."""
        self.raised.inc()
        if line not in self._handlers:
            self.spurious.inc()
            return
        if line in self._pending:
            self.coalesced.inc()
            return
        self._pending.add(line)
        self.schedule(self.DISPATCH_LATENCY, self._dispatch, line)

    # -- checkpointing -----------------------------------------------------
    # The handler-invocation counter behind ``irq{line}_{n}`` names.
    state_fields = {"_counter": "accumulator"}
    in_flight = ("_pending",)

    def _dispatch(self, line: int) -> None:
        self._pending.remove(line)
        self.dispatched.inc()
        self._counter += 1
        factory = strong_callback(self._handlers[line])
        Process(self.sim, f"irq{line}_{self._counter}", factory(), parent=self)


class MsiDoorbell(SimObject):
    """The platform's MSI target: a write-to-interrupt doorbell.

    A device with an enabled MSI capability raises interrupts by
    posting a memory write of its programmed data value to its
    programmed address; the doorbell claims that address window on the
    memory bus and converts each landing write into an interrupt on the
    vector the write's payload names — the extension path the paper
    sketches ("A device uses MSI to write a programmed value to a
    specified address location in order to raise an interrupt").  Its
    window defaults to the platform map's ``msi_doorbell``; ``intc`` is
    the interrupt controller its writes raise lines on.
    """

    #: Ticks from a write landing to the interrupt line rising (and to
    #: the response of a non-posted write).
    LATENCY = ticks.from_ns(50)

    in_flight = ("_respq",)

    def __init__(
        self,
        sim: Simulator,
        intc: InterruptController,
        name: str = "msi_doorbell",
        parent: Optional[SimObject] = None,
        base: int = VEXPRESS_GEM5_V1.msi_doorbell.start,
        size: int = VEXPRESS_GEM5_V1.msi_doorbell.size,
    ):
        from repro.mem.addr import AddrRange
        from repro.mem.port import PacketQueue, SlavePort

        super().__init__(sim, name, parent)
        self.intc = intc
        self.range = AddrRange(base, size)
        self.port = SlavePort(
            self,
            "port",
            recv_timing_req=self._recv,
            ranges=[self.range],
        )
        self._respq = PacketQueue(self, "respq", self.port.send_timing_resp, 16)
        self.port.recv_resp_retry = self._respq.retry
        self._respq.on_space_freed = self._maybe_retry
        self.msis_received = self.stats.scalar("msis_received")

    def _maybe_retry(self) -> None:
        """Response-queue space freed: let a refused requester retry."""
        if self.port.retry_owed:
            self.port.send_retry_req()

    def _recv(self, pkt) -> bool:
        if pkt.needs_response and self._respq.full:
            return False
        vector = int.from_bytes(pkt.data or b"\x00", "little") & 0xFF
        self.msis_received.inc()
        self.schedule(self.LATENCY, self.intc.raise_irq, vector)
        if pkt.needs_response:
            self._respq.push(pkt.make_response(), self.LATENCY)
        return True
