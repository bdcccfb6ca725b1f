"""The crossbar.

gem5 connects on-chip devices, caches and memory through a coherent
crossbar (*MemBus*) and off-chip devices through a non-coherent one
(*IOBus*).  The machines built here need one crossbar, the MemBus, and
since the IOCache is their only cache it sees no snoop traffic, so one
non-coherent class models it: requests are routed to the master port
whose peer claims the packet's address, with a per-destination *layer*
that serializes transfers (header cycles plus payload serialization at
the crossbar width), and bounded per-port queues that exert
backpressure through the port retry protocol.  A request no port
claims is a wiring error and raises :class:`PortError`.

Responses are routed back to the slave port the request entered on,
tracked by request id.  Routing consults the peer ports' address ranges
*at routing time*, so windows programmed by the PCI enumeration software
after construction take effect immediately, exactly as in gem5 when a
bridge changes its ranges.
"""

import math
from types import MethodType
from typing import Dict, List, Optional

from repro.mem.packet import Packet
from repro.mem.port import MasterPort, PacketQueue, PortError, SlavePort
from repro.sim.simobject import SimObject, Simulator

#: Ticks to make the forwarding decision.
FRONTEND_LATENCY = 1_000
#: Ticks to move a packet between ports.
FORWARD_LATENCY = 1_000
#: Bytes moved per tick of serialization: a payload crosses in
#: ``ceil(payload / WIDTH)`` ticks, wide enough that the crossbar never
#: bottlenecks a PCIe link, as the MemBus in the paper's setup.
WIDTH = 64
#: Per-destination buffered packets before refusing.
QUEUE_DEPTH = 16


class NoncoherentXBar(SimObject):
    """The machine's MemBus (see the module docstring for why it is
    non-coherent); its latencies, width and queue depth are the module
    constants."""

    # The layers' horizons, keyed by port name; read only through
    # max(now, horizon).
    state_fields = {"_req_layer_free": "horizon",
                    "_resp_layer_free": "horizon"}
    in_flight = ("_req_queues", "_resp_queues", "_resp_route")

    def __init__(self, sim: Simulator, name: str,
                 parent: Optional[SimObject] = None):
        super().__init__(sim, name, parent)

        self._slave_ports: List[SlavePort] = []
        self._master_ports: List[MasterPort] = []
        self._req_queues: Dict[MasterPort, PacketQueue] = {}
        self._resp_queues: Dict[SlavePort, PacketQueue] = {}
        # Layer occupancy: earliest tick each direction of each port is
        # free, by port name.
        self._req_layer_free: Dict[str, int] = {}
        self._resp_layer_free: Dict[str, int] = {}
        # Response routing: request id -> slave port it entered on.
        self._resp_route: Dict[int, SlavePort] = {}

        self.pkt_count = self.stats.scalar("pkt_count", "packets routed")
        self.bytes_moved = self.stats.scalar("bytes_moved", "payload bytes routed")
        self.retries = self.stats.scalar("retries", "requests refused (layer/queue busy)")

    # -- wiring ------------------------------------------------------------
    # Port handlers are functions bound to the port (which holds them
    # weakly), reaching the crossbar as the port's owner.
    def attach_master(self, name: str) -> SlavePort:
        """Create a slave port for an upstream master device to bind to."""
        if name in self._resp_layer_free:
            raise ValueError(f"{self.full_name} already has a port {name!r}")
        port = SlavePort(self, name)
        port.recv_timing_req = MethodType(_request_in, port)
        self._slave_ports.append(port)
        queue = PacketQueue(
            self, f"{name}_respq", port.send_timing_resp, QUEUE_DEPTH
        )
        queue.on_space_freed = self._kick_waiting_responders
        port.recv_resp_retry = queue.retry
        self._resp_queues[port] = queue
        self._resp_layer_free[name] = 0
        return port

    def attach_slave(self, name: str) -> MasterPort:
        """Create a master port for a downstream slave device to bind to."""
        if name in self._req_layer_free:
            raise ValueError(f"{self.full_name} already has a port {name!r}")
        port = MasterPort(self, name)
        port.recv_timing_resp = MethodType(_response_in, port)
        self._master_ports.append(port)
        queue = PacketQueue(
            self, f"{name}_reqq", port.send_timing_req, QUEUE_DEPTH
        )
        queue.on_space_freed = self._kick_waiting_requesters
        port.recv_req_retry = queue.retry
        self._req_queues[port] = queue
        self._req_layer_free[name] = 0
        return port

    # -- routing -----------------------------------------------------------
    def _find_destination(self, pkt: Packet) -> MasterPort:
        addr = pkt.addr
        for port in self._master_ports:
            if port.peer is None:
                continue
            for rng in port.peer.get_ranges():
                if addr in rng:
                    return port
        raise PortError(
            f"{self.full_name}: no port claims address {addr:#x} for {pkt!r}"
        )

    def _occupancy(self, pkt: Packet) -> int:
        return FRONTEND_LATENCY + math.ceil(pkt.payload_size / WIDTH)

    def _recv_request(self, src: SlavePort, pkt: Packet) -> bool:
        dest = self._find_destination(pkt)
        queue = self._req_queues[dest]
        if queue.full:
            self.retries.total += 1
            return False
        now = self.eventq.curtick
        start = max(now, self._req_layer_free[dest.name])
        occupancy = self._occupancy(pkt)
        self._req_layer_free[dest.name] = start + occupancy
        delay = (start - now) + occupancy + FORWARD_LATENCY
        accepted = queue.push(pkt, delay)
        assert accepted, "queue.full checked above"
        if pkt.needs_response:
            self._resp_route[pkt.req_id] = src
        self.pkt_count.total += 1
        self.bytes_moved.total += pkt.payload_size
        trc = self.tracer
        if trc.enabled:
            trc.emit(now, "xbar", self.full_name, "req_route",
                     tlp=trc.tlp_id(pkt.req_id), qlen=len(queue))
        return True

    def _recv_response(self, src: MasterPort, pkt: Packet) -> bool:
        try:
            dest = self._resp_route[pkt.req_id]
        except KeyError:
            raise PortError(
                f"{self.full_name}: response {pkt!r} matches no outstanding request"
            ) from None
        queue = self._resp_queues[dest]
        if queue.full:
            self.retries.total += 1
            return False
        del self._resp_route[pkt.req_id]
        now = self.eventq.curtick
        start = max(now, self._resp_layer_free[dest.name])
        occupancy = self._occupancy(pkt)
        self._resp_layer_free[dest.name] = start + occupancy
        accepted = queue.push(pkt, (start - now) + occupancy + FORWARD_LATENCY)
        assert accepted
        self.pkt_count.total += 1
        self.bytes_moved.total += pkt.payload_size
        trc = self.tracer
        if trc.enabled:
            trc.emit(now, "xbar", self.full_name, "resp_route",
                     tlp=trc.tlp_id(pkt.req_id), qlen=len(queue))
        return True

    # -- retry fan-out -------------------------------------------------------
    def _kick_waiting_requesters(self) -> None:
        for port in self._slave_ports:
            if port.retry_owed:
                port.send_retry_req()

    def _kick_waiting_responders(self) -> None:
        for port in self._master_ports:
            if port.resp_retry_owed:
                port.send_retry_resp()

    @property
    def outstanding_responses(self) -> int:
        """Requests routed that still await their response."""
        return len(self._resp_route)


def _request_in(port: SlavePort, pkt: Packet) -> bool:
    # Also the PCI bus's: both owners route by their _recv_request.
    return port.owner._recv_request(port, pkt)


def _response_in(port: MasterPort, pkt: Packet) -> bool:
    return port.owner._recv_response(port, pkt)
