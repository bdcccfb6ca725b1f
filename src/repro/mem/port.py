"""Timing ports and the retry protocol.

gem5 components exchange packets through paired master/slave ports:

* a **master port** sends requests and receives responses;
* a **slave port** receives requests and sends responses.

Transfers use the *timing* protocol: ``send_timing_req``/``send_timing_resp``
hand the packet to the peer, whose handler returns ``True`` if accepted.
A ``False`` means "busy": the sender must hold the packet and wait for
the peer to call back with a retry (``send_retry_req``/``send_retry_resp``),
after which the sender tries again.  All buffer backpressure in the
simulated system — including the PCI-Express port-buffer and replay
behaviour studied in the paper — flows through this mechanism.

Handlers are supplied as callables at construction (explicit wiring
beats name-magic when a component owns several ports of the same kind).
A component owns its ports and queues, so their owner, peer and
bound-method handlers (:class:`~repro.sim.eventq.WeakCallback`) are weak.

:class:`PacketQueue` is the shared building block for bounded,
latency-tagged output buffers: the gem5 bridge, the root complex and the
switch ports are all queues of this kind.
"""

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.mem.addr import AddrRange
from repro.mem.packet import Packet
from repro.sim.eventq import WeakCallback, labelled, proxy
from repro.sim.simobject import SimObject
from repro.sim.stats import StatGroup


class PortError(RuntimeError):
    """Protocol violation on a port (unbound peer, double retry, ...)."""


class Port:
    """Base for master/slave ports: a named endpoint bound to a peer."""

    def __init__(self, owner: SimObject, name: str):
        self.owner = proxy(owner)
        self.name = name
        #: ``<owner path>.<name>``, fixed at construction like
        #: :attr:`SimObject.full_name`.
        self.full_name = f"{owner.full_name}.{name}"
        self.peer: Optional["Port"] = None
        # Cached like SimObject.tracer: one attribute load and an
        # ``enabled`` branch is all the protocol hot path pays while the
        # invariant checker is off.
        self.checker = owner.sim.checker

    @property
    def bound(self) -> bool:
        return self.peer is not None

    def _bind_peer(self, peer: "Port") -> None:
        if self.peer is not None:
            raise PortError(f"{self.full_name} is already bound to {self.peer.full_name}")
        self.peer = proxy(peer)

    def __repr__(self) -> str:
        peer = self.peer.full_name if self.peer else None
        return f"<{type(self).__name__} {self.full_name} peer={peer}>"


def _unwired(kind: str, port: Port) -> Callable:
    where = port.full_name  # the handler is stored on the port

    def handler(*_args, **_kwargs):
        raise PortError(f"{where} has no {kind} handler wired")

    return handler


class MasterPort(Port):
    """Sends requests downstream; receives responses.

    Args:
        recv_timing_resp: ``f(pkt) -> bool`` called when the peer slave
            sends a response here.
        recv_req_retry: ``f()`` called when the peer slave, having
            previously refused a request, can accept again.
    """

    recv_timing_resp = WeakCallback()
    recv_req_retry = WeakCallback()

    def __init__(
        self,
        owner: SimObject,
        name: str,
        recv_timing_resp: Optional[Callable[[Packet], bool]] = None,
        recv_req_retry: Optional[Callable[[], None]] = None,
    ):
        super().__init__(owner, name)
        self.recv_timing_resp = recv_timing_resp or _unwired("recv_timing_resp", self)
        self.recv_req_retry = recv_req_retry or _unwired("recv_req_retry", self)
        # True while the peer owes this port a request retry.
        self.waiting_for_req_retry = False
        # True while this port owes the peer a response retry.  A plain
        # attribute because owners poll it per packet; only the port
        # protocol (send_timing_resp / send_retry_resp) writes it.
        self.resp_retry_owed = False

    def bind(self, slave: "SlavePort") -> None:
        """Bind this master port to a slave port (and vice versa)."""
        if not isinstance(slave, SlavePort):
            raise TypeError(f"can only bind MasterPort to SlavePort, got {slave!r}")
        self._bind_peer(slave)
        slave._bind_peer(self)

    # -- sending requests ----------------------------------------------------
    def send_timing_req(self, pkt: Packet) -> bool:
        peer = self.peer
        if peer is None:
            raise PortError(f"{self.full_name} is unbound")
        if not pkt.is_request:
            raise PortError(f"{self.full_name} asked to send non-request {pkt!r}")
        ck = self.checker
        if ck.enabled:
            ck.pre_send_req(self, pkt)
        fn, ref = peer._recv_timing_req
        accepted = fn(pkt) if ref is None else fn(ref(), pkt)
        if not accepted:
            self.waiting_for_req_retry = True
            peer.retry_owed = True
        if ck.enabled:
            ck.post_send_req(self, pkt, accepted)
        return accepted

    # -- response-side flow control -------------------------------------------
    def send_retry_resp(self) -> None:
        """Tell the peer slave to retry a previously-refused response."""
        if self.peer is None:
            raise PortError(f"{self.full_name} is unbound")
        ck = self.checker
        if ck.enabled:
            ck.on_retry_resp(self)
        if not self.resp_retry_owed:
            raise PortError(f"{self.full_name} owes no response retry")
        self.resp_retry_owed = False
        peer = self.peer
        peer.waiting_for_resp_retry = False
        fn, ref = peer._recv_resp_retry
        fn() if ref is None else fn(ref())


class SlavePort(Port):
    """Receives requests; sends responses upstream.

    Args:
        recv_timing_req: ``f(pkt) -> bool`` called when the peer master
            sends a request here.
        recv_resp_retry: ``f()`` called when the peer master, having
            previously refused a response, can accept again.
        ranges: address ranges this port claims (used by crossbars when
            routing; may be empty for point-to-point wiring).
    """

    recv_timing_req = WeakCallback()
    recv_resp_retry = WeakCallback()
    #: ``f() -> [AddrRange]`` claimed behind this port: the static
    #: ``ranges`` unless a component with dynamic ones (a PCI bridge
    #: programmed at boot) wires its own.
    get_ranges = WeakCallback()

    def __init__(
        self,
        owner: SimObject,
        name: str,
        recv_timing_req: Optional[Callable[[Packet], bool]] = None,
        recv_resp_retry: Optional[Callable[[], None]] = None,
        ranges: Optional[List[AddrRange]] = None,
    ):
        super().__init__(owner, name)
        self.recv_timing_req = recv_timing_req or _unwired("recv_timing_req", self)
        self.recv_resp_retry = recv_resp_retry or _unwired("recv_resp_retry", self)
        self._ranges: List[AddrRange] = list(ranges or [])
        self.get_ranges = self._static_ranges
        # True while the peer owes this port a response retry.
        self.waiting_for_resp_retry = False
        # True while this port owes the peer a request retry (polled by
        # owners per packet; written only by the port protocol).
        self.retry_owed = False

    def bind(self, master: MasterPort) -> None:
        master.bind(self)

    # -- address ranges --------------------------------------------------------
    def _static_ranges(self) -> List[AddrRange]:
        return list(self._ranges)

    def set_ranges(self, ranges: List[AddrRange]) -> None:
        self._ranges = list(ranges)

    # -- sending responses -------------------------------------------------------
    def send_timing_resp(self, pkt: Packet) -> bool:
        peer = self.peer
        if peer is None:
            raise PortError(f"{self.full_name} is unbound")
        if not pkt.is_response:
            raise PortError(f"{self.full_name} asked to send non-response {pkt!r}")
        ck = self.checker
        if ck.enabled:
            ck.pre_send_resp(self, pkt)
        fn, ref = peer._recv_timing_resp
        accepted = fn(pkt) if ref is None else fn(ref(), pkt)
        if not accepted:
            self.waiting_for_resp_retry = True
            peer.resp_retry_owed = True
        if ck.enabled:
            ck.post_send_resp(self, pkt, accepted)
        return accepted

    # -- request-side flow control --------------------------------------------
    def send_retry_req(self) -> None:
        """Tell the peer master to retry a previously-refused request."""
        if self.peer is None:
            raise PortError(f"{self.full_name} is unbound")
        ck = self.checker
        if ck.enabled:
            ck.on_retry_req(self)
        if not self.retry_owed:
            raise PortError(f"{self.full_name} owes no request retry")
        self.retry_owed = False
        peer = self.peer
        peer.waiting_for_req_retry = False
        fn, ref = peer._recv_req_retry
        fn() if ref is None else fn(ref())


class PacketQueue:
    """A bounded FIFO that drains packets into a send function.

    Each entry is tagged with a *ready tick* — the earliest time it may
    be sent — which is how fixed component latencies (bridge delay,
    root-complex processing, switch store-and-forward) are modelled.
    When the send function refuses (peer busy), draining pauses until
    :meth:`retry` is called.

    ``on_space_freed`` fires whenever an entry leaves the queue; owners
    use it to issue upstream retries after having refused a packet
    because the queue was full.
    """

    send_fn = WeakCallback()
    on_space_freed = WeakCallback()
    #: Per-packet variant of on_space_freed, called with the packet that
    #: just left the queue (for owners tracking slot accounting by
    #: packet identity).
    on_packet_sent = WeakCallback()

    def __init__(
        self,
        owner: SimObject,
        name: str,
        send_fn: Callable[[Packet], bool],
        capacity: int,
    ):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.owner = proxy(owner)
        self.name = name
        self.send_fn = send_fn
        self.capacity = capacity
        self.eventq = owner.eventq
        self._entries: Deque[Tuple[int, Packet]] = deque()
        self._waiting_retry = False
        # _drain_scheduled guarantees at most one drain pending per
        # queue; it is a fire-and-forget call of _drain, bound where it
        # is scheduled (a stored bound method would be a cycle).
        self._drain_scheduled = False
        self.on_space_freed = None
        self.on_packet_sent = None
        # Statistics.
        self.stats = owner.stats.add_child(StatGroup(name))
        self.sent = self.stats.scalar("sent", "packets drained from this queue")
        self.refused = self.stats.scalar("refused", "push attempts refused because full")
        self.occupancy = self.stats.average("occupancy", "queue length sampled at push")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, pkt: Packet, delay: int = 0) -> bool:
        """Append ``pkt``, sendable ``delay`` ticks from now.

        Returns False (and drops nothing) when the queue is full.
        """
        entries = self._entries
        depth = len(entries)
        if depth >= self.capacity:
            self.refused.total += 1
            return False
        occupancy = self.occupancy
        occupancy.total += depth
        occupancy.count += 1
        eventq = self.eventq
        now = eventq.curtick
        entries.append((now + delay, pkt))
        # _drain_scheduled is also the re-entrancy guard: this push may
        # come from inside send_fn while _drain is running.
        if not self._drain_scheduled and not self._waiting_retry:
            self._drain_scheduled = True
            ready = entries[0][0]
            eventq.call_at(ready if ready > now else now, self._drain)
        return True

    def retry(self) -> None:
        """The peer can accept again: resume draining."""
        self._waiting_retry = False
        if self._entries and not self._drain_scheduled:
            eventq = self.eventq
            ready = self._entries[0][0]
            now = eventq.curtick
            self._drain_scheduled = True
            eventq.call_at(ready if ready > now else now, self._drain)

    @labelled(lambda queue: queue.name + ".drain")
    def _drain(self, _arg: None = None) -> None:
        self._drain_scheduled = False
        # Loop invariants hoisted: curtick cannot move inside the loop
        # (time only advances in the event-queue drain), the deque
        # object is never replaced — send_fn/callbacks that push more
        # work mutate it in place, which the loop condition observes —
        # and owners wire the callbacks (weak pairs) once.
        entries = self._entries
        eventq = self.eventq
        now = eventq.curtick
        send_fn, send_ref = self._send_fn
        sent = self.sent
        on_packet_sent, sent_ref = self._on_packet_sent
        on_space_freed, freed_ref = self._on_space_freed
        while entries and not self._waiting_retry:
            ready, pkt = entries[0]
            if ready > now:
                # A push from inside send_fn/callbacks may already have
                # re-armed the drain for this head.
                if not self._drain_scheduled:
                    self._drain_scheduled = True
                    eventq.call_at(ready, self._drain)
                return
            if not (send_fn(pkt) if send_ref is None else send_fn(send_ref(), pkt)):
                self._waiting_retry = True
                return
            entries.popleft()
            sent.total += 1
            if on_packet_sent is not None:
                on_packet_sent(pkt) if sent_ref is None else on_packet_sent(sent_ref(), pkt)
            if on_space_freed is not None:
                on_space_freed() if freed_ref is None else on_space_freed(freed_ref())
