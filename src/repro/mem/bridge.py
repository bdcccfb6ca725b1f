"""The gem5 bridge.

A bridge joins two crossbars: it is a slave on one side (accepting
requests destined for its configured address ranges) and a master on the
other.  Requests and responses traverse bounded queues with a fixed
delay; full queues refuse packets, pushing backpressure into the port
retry protocol.

The paper: "We use the gem5 bridge model and build a root complex and a
PCI-Express switch model upon that."  The root complex and switch in
:mod:`repro.pcie` reuse the same queue mechanics via
:class:`~repro.mem.port.PacketQueue` — including its fire-and-forget
drain, so forwarding a packet allocates no per-packet event or closure
anywhere on the bridge path.
"""

from typing import List, Optional

from repro.mem.addr import AddrRange
from repro.mem.packet import Packet
from repro.mem.port import MasterPort, PacketQueue, SlavePort
from repro.sim.simobject import SimObject, Simulator


class Bridge(SimObject):
    """A one-way request / one-way response bridge between two buses.

    Args:
        delay: forwarding latency in ticks, applied to each direction.
        req_queue_size: bounded request buffer entries.
        resp_queue_size: bounded response buffer entries.
        ranges: address ranges the slave side claims (what lies beyond
            the bridge).  May be re-set later — e.g. after PCI
            enumeration assigns device apertures.
    """

    in_flight = ("_req_queue", "_resp_queue")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Optional[SimObject] = None,
        delay: int = 50_000,
        req_queue_size: int = 16,
        resp_queue_size: int = 16,
        ranges: Optional[List[AddrRange]] = None,
    ):
        super().__init__(sim, name, parent)
        self.delay = delay

        self.slave_port = SlavePort(
            self,
            "slave",
            recv_timing_req=self._recv_request,
            ranges=ranges or [],
        )
        self.master_port = MasterPort(
            self,
            "master",
            recv_timing_resp=self._recv_response,
        )
        self._req_queue = PacketQueue(
            self, "reqq", self.master_port.send_timing_req, req_queue_size
        )
        self._req_queue.on_space_freed = self._maybe_retry_requests
        self._resp_queue = PacketQueue(
            self, "respq", self.slave_port.send_timing_resp, resp_queue_size
        )
        self._resp_queue.on_space_freed = self._maybe_retry_responses
        self.slave_port.recv_resp_retry = self._resp_queue.retry
        self.master_port.recv_req_retry = self._req_queue.retry

        self.forwarded = self.stats.scalar("forwarded", "requests forwarded")

    def set_ranges(self, ranges: List[AddrRange]) -> None:
        self.slave_port.set_ranges(ranges)

    def _recv_request(self, pkt: Packet) -> bool:
        if not self._req_queue.push(pkt, self.delay):
            return False
        self.forwarded.total += 1
        return True

    def _recv_response(self, pkt: Packet) -> bool:
        return self._resp_queue.push(pkt, self.delay)

    def _maybe_retry_requests(self) -> None:
        if self.slave_port.retry_owed:
            self.slave_port.send_retry_req()

    def _maybe_retry_responses(self) -> None:
        if self.master_port.resp_retry_owed:
            self.master_port.send_retry_resp()
