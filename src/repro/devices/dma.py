"""A chunking DMA engine.

Device models move buffers with cache-line-sized packets — the paper's
TLP payload rule ("cache line size for a write request or read
response") comes from DMA engines doing exactly this.  The engine

* splits a transfer into ``chunk``-byte packets;
* keeps at most ``max_outstanding`` requests in flight;
* signals completion when every response has returned — which is the
  paper's *no posted writes* semantics ("responses for all gem5 write
  packets need to be obtained before the next sector can be
  transmitted");
* can instead run writes posted (fire-and-forget) for the posted-write
  ablation.
"""

from typing import Optional

from repro.mem.packet import MemCmd, Packet
from repro.sim.eventq import proxy
from repro.sim.process import Signal
from repro.sim.simobject import SimObject, Simulator


class DmaTransfer:
    """Book-keeping for one in-progress buffer transfer."""

    def __init__(self, engine: "DmaEngine", addr: int, nbytes: int, is_write: bool,
                 posted: bool):
        self.engine = engine
        self.addr = addr
        self.nbytes = nbytes
        self.is_write = is_write
        self.posted = posted
        self.completed = Signal("dma_done", latch=True)
        self._next_offset = 0
        self._responses_pending = 0
        self._all_issued = False
        self._finished = False

    def _issue_some(self) -> None:
        if self._finished:
            return
        engine = self.engine
        device = engine.device
        while (
            self._next_offset < self.nbytes
            and self._responses_pending + device.dma_backlog < engine.max_outstanding
            and device.dma_space > 0
        ):
            size = min(engine.chunk, self.nbytes - self._next_offset)
            addr = self.addr + self._next_offset
            self._next_offset += size
            if self.is_write:
                cmd = MemCmd.MESSAGE if self.posted else MemCmd.WRITE_REQ
                pkt = Packet(cmd, addr, size, data=bytes(size),
                             requestor=device.full_name,
                             create_tick=engine.eventq.curtick)
            else:
                pkt = Packet(MemCmd.READ_REQ, addr, size,
                             requestor=device.full_name,
                             create_tick=engine.eventq.curtick)
            if pkt.needs_response:
                self._responses_pending += 1
                device.dma_send(pkt, self._on_response)
            else:
                device.dma_send(pkt, None)
            engine.packets_issued.total += 1
        if self._next_offset >= self.nbytes:
            self._all_issued = True
            if self._responses_pending == 0:
                self._finish()

    def on_complete(self, fn) -> None:
        """Run ``fn(transfer)`` when the transfer completes — firing
        immediately if it already has (a posted transfer can finish
        synchronously inside the call that started it)."""
        if self._finished:
            fn(self)
        else:
            self.completed.subscribe(fn)

    def _on_response(self, resp: Packet) -> None:
        self._responses_pending -= 1
        if self._all_issued and self._responses_pending == 0:
            self._finish()
        else:
            self._issue_some()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.engine.device.remove_dma_pump(self._issue_some)
        self.engine.transfers_completed.inc()
        self.engine.bytes_moved.inc(self.nbytes)
        # A weak proxy: the latched value must not make the transfer
        # and its own signal a cycle.
        self.completed.notify(proxy(self))


class DmaEngine(SimObject):
    """The DMA front-end of a :class:`~repro.devices.base.PcieDevice`.

    Args:
        device: owning device (supplies the DMA port).
        chunk: packet payload size (cache line, 64 B).
        max_outstanding: in-flight request window per transfer.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        device,
        chunk: int = 64,
        max_outstanding: int = 32,
    ):
        super().__init__(sim, name, parent=device)
        if chunk < 1:
            raise ValueError("chunk must be positive")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be positive")
        self.device = self.parent
        self.chunk = chunk
        self.max_outstanding = max_outstanding

        self.packets_issued = self.stats.scalar("packets_issued")
        self.transfers_completed = self.stats.scalar("transfers_completed")
        self.bytes_moved = self.stats.scalar("bytes_moved")

    def write(self, addr: int, nbytes: int, posted: bool = False) -> DmaTransfer:
        """DMA a buffer to memory.  ``transfer.completed`` notifies when
        all responses returned (immediately after the last packet is
        issued when ``posted``)."""
        return self._start(addr, nbytes, is_write=True, posted=posted)

    def read(self, addr: int, nbytes: int) -> DmaTransfer:
        """DMA a buffer from memory."""
        return self._start(addr, nbytes, is_write=False, posted=False)

    def _start(self, addr: int, nbytes: int, is_write: bool, posted: bool) -> DmaTransfer:
        if nbytes < 1:
            raise ValueError("transfer must move at least one byte")
        transfer = DmaTransfer(self, addr, nbytes, is_write, posted)
        self.device.add_dma_pump(transfer._issue_some)
        transfer._issue_some()
        return transfer
