"""The routing/queueing engine shared by the root complex and switch.

The paper builds both components on the gem5 bridge; here they share a
:class:`PcieRoutingEngine` that owns a set of :class:`ComponentPort`
pairs (one upstream, N downstream) and the two routing rules from
Section V-A:

* **requests** route downstream to the port whose VP2P memory or I/O
  window contains the packet's address, and otherwise upstream (DMA to
  host memory);
* **responses** route by the packet's ``pci_bus_num``: downstream to the
  port whose VP2P [secondary, subordinate] range contains the bus, and
  upstream when no port matches.

Every slave port stamps ``pci_bus_num`` on requests still carrying the
−1 sentinel: downstream ports stamp their VP2P's secondary bus number,
the upstream port stamps the bus the component itself lives on (0 for
the root complex).

**Buffering.**  "Each port associated with the root complex has
configurable buffers and models the congestion at the port."  Each
:class:`ComponentPort` owns a pool of ``buffer_size`` packet slots,
partitioned by flow-control class — posted, non-posted and completion
(see :mod:`repro.pcie.fc`) — mirroring the per-class credits the link
layer advertises.  A packet occupies exactly one slot of its class — at
the port it *entered* through — for its entire residence in the
component: the processing delay (``latency``, admitted one per
``service_interval``, the port's internal datapath rate) plus however
long it waits in its egress queue.  Holding a single resource per
packet keeps the fabric deadlock-free by construction (no
hold-and-wait), while a full class pool refuses ingress — backpressure
the link layer absorbs into its receive buffers and surfaces to *its*
peer as per-class credit stalls.

The class partition (completion slots ``max(1, buffer_size // 4)``, the
remainder split evenly between posted and non-posted, every class at
least one slot) guarantees completions a dedicated path through every
engine: a non-posted request flood can fill the NP slots and nothing
else, so the completions it is waiting on always have somewhere to go —
the property that used to be approximated by reserving a single slot
for all responses combined.
"""

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.mem.addr import AddrRange
from repro.mem.packet import FLOW_CPL, FLOW_NP, FLOW_P, Packet
from repro.mem.port import MasterPort, PacketQueue, PortError, SlavePort
from repro.pcie.vp2p import VirtualP2PBridge
from repro.sim.eventq import labelled
from repro.sim.simobject import SimObject, Simulator

if TYPE_CHECKING:
    from repro.system.spec import EngineSpec


class ComponentPort(SimObject):
    """One port of a root complex or switch: a master/slave pair plus a
    slot pool accounting for every packet that entered here."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: "PcieRoutingEngine",
        vp2p: Optional[VirtualP2PBridge],
        is_upstream: bool,
    ):
        super().__init__(sim, name, parent)
        # Weak like every edge up; the per-packet paths dereference it
        # once instead of paying a proxy on each of their loads.
        self._engine = weakref.ref(parent)
        self.vp2p = vp2p
        self.is_upstream = is_upstream

        # Requests and responses share one ingress handler: a packet
        # knows which it is.  The retry handlers are the egress queues'
        # own bound methods, wired below once the queues exist.
        self.master_port = MasterPort(
            self, "master", recv_timing_resp=self._ingress)
        self.slave_port = SlavePort(
            self, "slave", recv_timing_req=self._ingress)
        if is_upstream:
            self.slave_port.get_ranges = parent.upstream_ranges

        # Egress queues.  Slot accounting lives with the ingress port,
        # so capacity here only needs to cover the whole engine's worst
        # case (every resident packet targeting one egress).
        capacity = (parent.p_slots + parent.np_slots + parent.cpl_slots) * 8
        self.req_queue = PacketQueue(
            self, "reqq", self.master_port.send_timing_req, capacity
        )
        self.resp_queue = PacketQueue(
            self, "respq", self.slave_port.send_timing_resp, capacity
        )
        self.master_port.recv_req_retry = self.req_queue.retry
        self.slave_port.recv_resp_retry = self.resp_queue.retry
        self.req_queue.on_packet_sent = parent._packet_left
        self.resp_queue.on_packet_sent = parent._packet_left

        # The pool: packets resident in the engine that entered here,
        # accounted per flow-control class (index with pkt.flow_class).
        self._slots = [0, 0, 0]
        self._slot_caps = [parent.p_slots, parent.np_slots, parent.cpl_slots]
        # Per-port datapath serialization horizon (used when the engine
        # runs with datapath_scope="port").
        self._proc_next_free = 0

        self.pool_occupancy = self.stats.average(
            "pool_occupancy", "pool slots in use, sampled at ingress"
        )
        self.ingress_refusals = self.stats.scalar(
            "ingress_refusals", "packets refused because the pool was full"
        )

    # -- pool accounting ------------------------------------------------------
    @property
    def pool_used(self) -> int:
        """Total slots in use across the three flow-control classes."""
        slots = self._slots
        return slots[0] + slots[1] + slots[2]

    def _try_reserve(self, flow_class: int) -> bool:
        """Claim a ``flow_class`` slot; False when that class is full.

        Classes never borrow from each other: a non-posted flood can
        exhaust only the NP slots, leaving posted traffic and — above
        all — completions their own guaranteed paths through the
        engine.
        """
        if self._slots[flow_class] >= self._slot_caps[flow_class]:
            return False
        self._slots[flow_class] += 1
        return True

    # -- ingress ------------------------------------------------------------------
    def _ingress(self, pkt: Packet) -> bool:
        trc = self.tracer
        is_response = pkt.is_response
        if not self._try_reserve(pkt.flow_class):
            self.ingress_refusals.total += 1
            if trc.enabled:
                trc.emit(self.curtick, "engine", self.full_name,
                         "ingress_refused", tlp=trc.tlp_id(pkt.req_id),
                         resp=is_response, pool=self.pool_used)
            return False
        slots = self._slots
        occupancy = self.pool_occupancy
        occupancy.total += slots[0] + slots[1] + slots[2]
        occupancy.count += 1
        if trc.enabled:
            trc.emit(self.curtick, "engine", self.full_name, "ingress",
                     tlp=trc.tlp_id(pkt.req_id), resp=is_response,
                     pool=self.pool_used)
        engine = self._engine()
        # The slot stays charged to this port until the packet leaves
        # the engine (see PcieRoutingEngine._packet_left).
        engine._owners[(pkt.req_id, is_response)] = self
        if not is_response and pkt.pci_bus_num == -1:
            pkt.pci_bus_num = self.stamp_bus_number()
        eventq = self.eventq
        now = eventq.curtick
        # The internal datapath admits one packet per service interval.
        # With datapath_scope="port" each port has its own pipeline;
        # with "engine" a single store-and-forward engine is shared by
        # every port and both directions, so a request flood delays
        # response processing too.
        if engine.datapath_scope == "engine":
            start = engine._datapath_next_free
            if start < now:
                start = now
            engine._datapath_next_free = start + engine.service_interval
        else:
            start = self._proc_next_free
            if start < now:
                start = now
            self._proc_next_free = start + engine.service_interval
        eventq.call_at(start + engine.latency, self._processed, pkt)
        return True

    @labelled("processed")
    def _processed(self, pkt: Packet) -> None:
        """Ingress processing finished: hand the packet to its egress
        queue (the slot stays charged to this port until transmission)."""
        engine = self._engine()
        if pkt.is_response:
            queue = engine._response_target(pkt).resp_queue
            engine.responses_routed.total += 1
        else:
            queue = engine._request_target(pkt, self).req_queue
            engine.requests_routed.total += 1
        pushed = queue.push(pkt, 0)
        assert pushed, "egress capacity covers the engine's worst case"

    def stamp_bus_number(self) -> int:
        if self.is_upstream:
            return self.parent.upstream_stamp_bus()
        assert self.vp2p is not None
        return self.vp2p.secondary_bus

    # -- checkpointing ----------------------------------------------------
    # Only the datapath horizon survives quiescence: the slot pool, the
    # engine's owner map and both egress queues hold live packets.
    state_fields = {"_proc_next_free": "horizon"}
    in_flight = ("_slots", "req_queue", "resp_queue")

    # -- backpressure ------------------------------------------------------
    def retry_refused_peers(self) -> None:
        """Pool space freed: let refused ingress peers try again.

        A request retry is useful once either request class has space
        (the peer resends the same packet, so it may be re-refused when
        only the other class freed — the next slot release retries
        again); a response retry needs completion-class space.
        """
        slots, caps = self._slots, self._slot_caps
        if self.slave_port.retry_owed and (
                slots[FLOW_P] < caps[FLOW_P] or slots[FLOW_NP] < caps[FLOW_NP]):
            self.slave_port.send_retry_req()
        if self.master_port.resp_retry_owed and slots[FLOW_CPL] < caps[FLOW_CPL]:
            self.master_port.send_retry_resp()


class PcieRoutingEngine(SimObject):
    """Base class: see module docstring.

    ``spec`` is the engine's :class:`repro.system.spec.EngineSpec`,
    whose knobs are copied onto plain attributes once, here: no
    per-packet path reads a record.  ``datapath_scope`` "port" gives
    each port its own datapath pipeline; "engine" shares one across all
    ports and both directions (an ablation of the internal organisation).
    """

    def __init__(self, sim: Simulator, name: str, spec: "EngineSpec"):
        super().__init__(sim, name)
        self.latency = spec.latency
        self.buffer_size = buffer_size = spec.buffer_size
        # Per-class partition of each port's pool: completions get a
        # quarter, the remainder splits evenly between posted and
        # non-posted, and every class gets at least one slot (tiny
        # pools round up, so their aggregate can exceed buffer_size).
        self.cpl_slots = max(1, buffer_size // 4)
        self.p_slots = max(1, (buffer_size - self.cpl_slots) // 2)
        self.np_slots = max(1, buffer_size - self.cpl_slots - self.p_slots)
        self.service_interval = spec.service_interval
        self.datapath_scope = spec.datapath_scope
        # Shared internal-datapath serialization horizon (see
        # ComponentPort._ingress).
        self._datapath_next_free = 0
        self.upstream_port = ComponentPort(sim, "upstream", self, vp2p=None,
                                           is_upstream=True)
        self.downstream_ports: List[ComponentPort] = []
        # Upstream then downstream ports: the retry fan-out order.
        self._ports: List[ComponentPort] = [self.upstream_port]
        # Which port's pool each resident packet is charged to, keyed
        # by (req_id, is_response) — a request and its response never
        # reside in the same engine simultaneously, and ids are unique.
        self._owners: Dict[Tuple[int, bool], ComponentPort] = {}

        self.requests_routed = self.stats.scalar("requests_routed")
        self.responses_routed = self.stats.scalar("responses_routed")

    # -- construction ------------------------------------------------------------
    def add_downstream_port(self, vp2p: VirtualP2PBridge,
                            name: str = "") -> ComponentPort:
        index = len(self.downstream_ports)
        port = ComponentPort(
            self.sim, name or f"port{index}", self, vp2p=vp2p, is_upstream=False
        )
        self.downstream_ports.append(port)
        self._ports.append(port)
        return port

    def config_dict(self) -> dict:
        """The engine's knobs, recorded into stats exports; subclasses
        override to name their kind."""
        return {
            "kind": type(self).__name__,
            "latency": self.latency,
            "buffer_size": self.buffer_size,
            "p_slots": self.p_slots,
            "np_slots": self.np_slots,
            "cpl_slots": self.cpl_slots,
            "service_interval": self.service_interval,
            "datapath_scope": self.datapath_scope,
            "num_downstream_ports": len(self.downstream_ports),
        }

    # -- checkpointing ----------------------------------------------------
    # The engine-scoped datapath horizon (ports carry their own).
    state_fields = {"_datapath_next_free": "horizon"}
    in_flight = ("_owners",)

    # -- policy hooks (overridden by RootComplex / PcieSwitch) ------------------------
    def upstream_ranges(self) -> List[AddrRange]:
        """Address ranges the upstream slave port claims."""
        raise NotImplementedError

    def upstream_stamp_bus(self) -> int:
        """Bus number stamped on requests entering the upstream port."""
        raise NotImplementedError

    # -- slot ownership ---------------------------------------------------------------
    def _packet_left(self, pkt: Packet) -> None:
        """``pkt`` left an egress queue: free the slot it held at the
        port it entered through, then let every port with a refused
        ingress peer and room for it retry (upstream port first)."""
        is_response = pkt.is_response
        owner = self._owners.pop((pkt.req_id, is_response))
        flow_class = pkt.flow_class
        assert owner._slots[flow_class] > 0
        owner._slots[flow_class] -= 1
        for port in self._ports:
            if port.slave_port.retry_owed or port.master_port.resp_retry_owed:
                port.retry_refused_peers()
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.eventq.curtick, "engine", owner.full_name, "egress",
                     tlp=trc.tlp_id(pkt.req_id), resp=is_response,
                     pool=owner.pool_used)

    # -- routing rules ---------------------------------------------------------------
    def _request_target(self, pkt: Packet, src: ComponentPort) -> ComponentPort:
        for port in self.downstream_ports:
            if port is src:
                continue
            assert port.vp2p is not None
            if port.vp2p.forwards(pkt.addr):
                return port
        if src.is_upstream:
            raise PortError(
                f"{self.full_name}: request {pkt!r} entered the upstream port "
                f"but no downstream window claims {pkt.addr:#x}"
            )
        return self.upstream_port

    def _response_target(self, pkt: Packet) -> ComponentPort:
        for port in self.downstream_ports:
            vp2p = port.vp2p
            assert vp2p is not None
            if vp2p.routes_bus(pkt.pci_bus_num):
                return port
        # Per the paper: "If no match is found, the response packet is
        # forwarded to the upstream slave port."
        return self.upstream_port
