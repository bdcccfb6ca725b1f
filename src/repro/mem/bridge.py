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

from typing import Optional

from repro.mem.packet import Packet
from repro.mem.port import MasterPort, PacketQueue, SlavePort
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator

#: Forwarding latency in ticks, applied to each direction.
DELAY = ticks.from_ns(100)
#: Bounded request buffer entries.
REQ_QUEUE_SIZE = 16
#: Bounded response buffer entries.
RESP_QUEUE_SIZE = 16


class Bridge(SimObject):
    """A one-way request / one-way response bridge between two buses.

    Its slave side claims no address range of its own: the one user,
    the classic machine's host bridge, wires the slave port's
    ``get_ranges`` to the device apertures enumeration assigns.
    """

    in_flight = ("_req_queue", "_resp_queue")

    def __init__(self, sim: Simulator, name: str,
                 parent: Optional[SimObject] = None):
        super().__init__(sim, name, parent)
        self.slave_port = SlavePort(
            self,
            "slave",
            recv_timing_req=self._recv_request,
        )
        self.master_port = MasterPort(
            self,
            "master",
            recv_timing_resp=self._recv_response,
        )
        self._req_queue = PacketQueue(
            self, "reqq", self.master_port.send_timing_req, REQ_QUEUE_SIZE
        )
        self._req_queue.on_space_freed = self._maybe_retry_requests
        self._resp_queue = PacketQueue(
            self, "respq", self.slave_port.send_timing_resp, RESP_QUEUE_SIZE
        )
        self._resp_queue.on_space_freed = self._maybe_retry_responses
        self.slave_port.recv_resp_retry = self._resp_queue.retry
        self.master_port.recv_req_retry = self._req_queue.retry

        self.forwarded = self.stats.scalar("forwarded", "requests forwarded")

    def _recv_request(self, pkt: Packet) -> bool:
        if not self._req_queue.push(pkt, DELAY):
            return False
        self.forwarded.total += 1
        return True

    def _recv_response(self, pkt: Packet) -> bool:
        return self._resp_queue.push(pkt, DELAY)

    def _maybe_retry_requests(self) -> None:
        if self.slave_port.retry_owed:
            self.slave_port.send_retry_req()

    def _maybe_retry_responses(self) -> None:
        if self.master_port.resp_retry_owed:
            self.master_port.send_retry_resp()
