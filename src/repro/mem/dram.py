"""A simple DRAM controller.

Equivalent to gem5's ``SimpleMemory``: every access completes after a
fixed latency plus a bandwidth-limited serialization term, with a
bounded number of outstanding accesses.  The paper's evaluation needs
memory to be fast enough that the PCI-Express interconnect is the
bottleneck — with DDR4-class parameters it always is — but the
bandwidth term matters for ablations that widen the PCIe side.
"""

import math
from typing import List, Optional

from repro.mem.addr import AddrRange
from repro.mem.packet import Packet
from repro.mem.port import PacketQueue, SlavePort
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator


class SimpleMemory(SimObject):
    """Fixed-latency, bandwidth-limited memory.

    Args:
        range_: the address range this memory services.
        latency: access latency in ticks (default 30 ns, DDR4-ish).
        bandwidth: bytes per tick of service rate (default ~19.2 GB/s,
            one DDR4-2400 channel).  ``0`` disables the limit.
        max_outstanding: accesses buffered before refusing.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        range_: AddrRange,
        parent: Optional[SimObject] = None,
        latency: int = ticks.from_ns(30),
        bandwidth: float = 19.2e9 / ticks.S,
        max_outstanding: int = 32,
    ):
        super().__init__(sim, name, parent)
        self.range = range_
        self.latency = latency
        self.bandwidth = bandwidth
        self.max_outstanding = max_outstanding
        self._in_flight = 0
        self._next_free = 0

        self.port = SlavePort(
            self,
            "port",
            recv_timing_req=self._recv_request,
            ranges=[range_],
        )
        self._resp_queue = PacketQueue(
            self, "respq", self._send_response, max_outstanding
        )
        self.port.recv_resp_retry = self._resp_queue.retry

        self.reads = self.stats.scalar("reads", "read requests serviced")
        self.writes = self.stats.scalar("writes", "write requests serviced")
        self.bytes_read = self.stats.scalar("bytes_read")
        self.bytes_written = self.stats.scalar("bytes_written")

    def _serialization(self, pkt: Packet) -> int:
        if self.bandwidth <= 0:
            return 0
        return math.ceil(pkt.size / self.bandwidth)

    def _recv_request(self, pkt: Packet) -> bool:
        if self._in_flight >= self.max_outstanding:
            return False
        if pkt.is_read:
            self.reads.total += 1
            self.bytes_read.total += pkt.size
        else:
            self.writes.total += 1
            self.bytes_written.total += pkt.size
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.curtick, "mem", self.full_name,
                     "read" if pkt.is_read else "write",
                     tlp=trc.tlp_id(pkt.req_id), size=pkt.size,
                     inflight=self._in_flight)
        if not pkt.needs_response:
            return True
        self._in_flight += 1
        now = self.eventq.curtick
        start = max(now, self._next_free)
        service = self._serialization(pkt)
        self._next_free = start + service
        done = (start - now) + service + self.latency
        response = pkt.make_response()
        pushed = self._resp_queue.push(response, done)
        assert pushed, "in-flight bound matches queue capacity"
        return True

    # -- checkpointing ----------------------------------------------------
    # The bandwidth-serialization horizon.
    state_fields = {"_next_free": "horizon"}
    in_flight = ("_in_flight", "_resp_queue")

    def _send_response(self, pkt: Packet) -> bool:
        if not self.port.send_timing_resp(pkt):
            return False
        self._in_flight -= 1
        if self.port.retry_owed:
            self.port.send_retry_req()
        return True
