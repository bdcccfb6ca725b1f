"""A simple DRAM controller.

Equivalent to gem5's ``SimpleMemory``: every access completes after a
fixed latency plus a bandwidth-limited serialization term, with a
bounded number of outstanding accesses.  The paper's evaluation needs
memory to be fast enough that the PCI-Express interconnect is the
bottleneck — with DDR4-class parameters it always is — but the
bandwidth term matters for ablations that widen the PCIe side.
"""

import math
from typing import Optional

from repro.mem.addr import AddrRange
from repro.mem.packet import Packet
from repro.mem.port import PacketQueue, SlavePort
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator

#: Access latency in ticks (DDR4-ish).
LATENCY = ticks.from_ns(30)
#: Service rate in bytes per tick: one DDR4-2400 channel, ~19.2 GB/s.
BANDWIDTH = 19.2e9 / ticks.S
#: Accesses buffered before refusing.
MAX_OUTSTANDING = 32


class SimpleMemory(SimObject):
    """Fixed-latency, bandwidth-limited memory servicing ``range_``,
    timed by the module constants."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        range_: AddrRange,
        parent: Optional[SimObject] = None,
    ):
        super().__init__(sim, name, parent)
        self.range = range_
        self._in_flight = 0
        self._next_free = 0

        self.port = SlavePort(
            self,
            "port",
            recv_timing_req=self._recv_request,
            ranges=[range_],
        )
        self._resp_queue = PacketQueue(
            self, "respq", self._send_response, MAX_OUTSTANDING
        )
        self.port.recv_resp_retry = self._resp_queue.retry

        self.reads = self.stats.scalar("reads", "read requests serviced")
        self.writes = self.stats.scalar("writes", "write requests serviced")
        self.bytes_read = self.stats.scalar("bytes_read")
        self.bytes_written = self.stats.scalar("bytes_written")

    def _recv_request(self, pkt: Packet) -> bool:
        if self._in_flight >= MAX_OUTSTANDING:
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
        service = math.ceil(pkt.size / BANDWIDTH)
        self._next_free = start + service
        done = (start - now) + service + LATENCY
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
