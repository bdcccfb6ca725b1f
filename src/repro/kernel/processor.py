"""An abstract processor.

The paper tunes gem5's out-of-order CPU to approximate a Xeon, then
picks an I/O-bound workload precisely so that CPU detail does not
dominate.  Our processor is therefore abstract: software runs as timed
:class:`~repro.sim.process.Process` generators, and memory-mapped I/O
is issued through a master port into the simulated memory system, so an
MMIO read's latency is whatever the interconnect makes it (Table II
measures exactly this).
"""

from typing import Dict, Optional

from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, PacketQueue
from repro.sim.process import Signal, WaitFor
from repro.sim.simobject import SimObject, Simulator


class Processor(SimObject):
    """Issues timed memory/I/O requests on behalf of software processes."""

    in_flight = ("_outq", "_waiters")

    def __init__(self, sim: Simulator, name: str = "cpu",
                 parent: Optional[SimObject] = None):
        super().__init__(sim, name, parent)
        self.port = MasterPort(
            self,
            "port",
            recv_timing_resp=self._recv_response,
        )
        self._outq = PacketQueue(self, "outq", self.port.send_timing_req, 1024)
        self.port.recv_req_retry = self._outq.retry
        self._waiters: Dict[int, Signal] = {}

        self.reads_issued = self.stats.scalar("reads_issued")
        self.writes_issued = self.stats.scalar("writes_issued")
        self.mmio_latency = self.stats.distribution(
            "mmio_latency", "round-trip ticks of processor-issued accesses"
        )

    # -- raw issue ----------------------------------------------------------
    def issue(self, pkt: Packet) -> Signal:
        """Send a request; the returned signal notifies with the
        response packet."""
        done = Signal(f"{self.name}.req{pkt.req_id}")
        if pkt.needs_response:
            self._waiters[pkt.req_id] = done
        self._outq.push(pkt)
        if pkt.is_read:
            self.reads_issued.inc()
        else:
            self.writes_issued.inc()
        return done

    def _recv_response(self, pkt: Packet) -> bool:
        signal = self._waiters.pop(pkt.req_id, None)
        if signal is not None:
            self.mmio_latency.sample(self.curtick - pkt.create_tick)
            signal.notify(pkt)
        return True

    # -- process-facing helpers ------------------------------------------------
    def timed_read(self, addr: int, size: int = 4):
        """``resp = yield from cpu.timed_read(addr)`` inside a process."""
        pkt = Packet(MemCmd.READ_REQ, addr, size, requestor=self.full_name,
                     create_tick=self.curtick)
        resp = yield WaitFor(self.issue(pkt))
        return resp

    def timed_write(self, addr: int, value: int, size: int = 4):
        """``yield from cpu.timed_write(addr, value)`` inside a process."""
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        pkt = Packet(MemCmd.WRITE_REQ, addr, size, data=data,
                     requestor=self.full_name, create_tick=self.curtick)
        resp = yield WaitFor(self.issue(pkt))
        return resp

    def read_value(self, resp: Packet) -> int:
        """Decode the little-endian payload of a read response."""
        return int.from_bytes(resp.data or b"", "little")
