"""The PCI-Express link model (Figure 8 of the paper).

A :class:`PcieLink` is two unidirectional links plus a
:class:`PcieLinkInterface` at each end.  Each interface owns a master
and a slave port that bind to the neighbouring component (a device's
PIO/DMA ports, or a root-complex/switch port pair), and implements the
paper's simplified data-link layer plus PCIe's credit-based flow
control (see :mod:`repro.pcie.fc` and docs/ARCHITECTURE.md "Flow
control & ordering"):

* TLPs are wrapped in pcie-pkts, given a *sending sequence number*, and
  stored in a bounded **replay buffer** until acknowledged;
* every TLP belongs to a flow-control class — posted (P), non-posted
  (NP) or completion (CPL) — and a new TLP is transmitted only while
  the transmitter holds a credit for its class.  Credits are advertised
  by the receiver at link-up (InitFC, modelled as an instantaneous
  handshake), consumed per first transmission, and returned with
  UpdateFC DLLPs as the receiver's per-class RX buffers drain into the
  attached component.  Because the sender never transmits without a
  credit, an in-sequence TLP is *always* accepted into the RX buffer —
  backpressure surfaces as credit stalls at the transmitter
  (``fc_stall_ticks_{p,np,cpl}``), never as dropped deliveries;
* a TLP is accepted only when its sequence number equals the
  *receiving sequence number*; acceptance bumps the receive counter
  and schedules an ACK.  A component refusal (full buffers past the
  link) leaves the TLP in the RX buffer: the component's port retry
  resumes the drain, and completions queue separately from requests so
  a request flood can never block completions from draining;
* ACK DLLPs are coalesced: the receiver holds them back until the ACK
  timer (one third of the replay timeout) expires;
* an ACK purges every replay-buffer entry with a sequence number less
  than or equal to the acknowledged one and resets the replay timer;
* transmission priority is (1) DLLPs (ACK/NAK/UpdateFC), (2)
  retransmitted pcie-pkts, (3) new TLPs — and new TLPs are transmitted
  only while the replay buffer has space, which is the *source
  throttling* behaviour the paper's Figure 9(c) studies.

Optional error injection corrupts a deterministic pseudo-random
fraction of received TLPs, exercising the NAK path (the receiver NAKs,
the sender purges acknowledged TLPs and replays the rest).  A separate
``dllp_error_rate`` corrupts received DLLPs instead: per the spec a
corrupted DLLP is silently discarded.  A lost ACK leaves the sender's
replay buffer populated until the replay timer retransmits; a lost
UpdateFC is healed by the next one (credit limits are cumulative) or,
on an otherwise idle class, by the **FC watchdog** — a transmitter-side
timer armed while credit-starved with work pending that asks the peer
to re-advertise its current limits, modelling the spec's mandatory
periodic UpdateFC retransmission without streaming DLLPs over idle
links.  Recovery happens through timers, never deadlock.

When a sink is attached to the simulator's tracer, every interface
stamps ``link``-category trace points (``tlp_tx``, ``tlp_deliver``,
``tlp_refused``, ``tlp_out_of_seq``, ``tlp_corrupt``, ``dllp_tx``,
``dllp_rx``, ``dllp_corrupt``, ``replay_timeout``, ``fc_watchdog``)
carrying the tracer-local TLP id, the data-link sequence number and the
replay flag — the raw material for per-TLP latency attribution.
"""

import random
from typing import List, Optional

from repro.mem.packet import FLOW_CPL, Packet
from repro.mem.port import MasterPort, SlavePort
from repro.pcie.fc import CreditLedger
from repro.pcie.pkt import UPDATE_FC_FOR, DllpType, PciePacket
from repro.pcie.timing import (
    DLLP_WIRE_BYTES,
    TLP_OVERHEAD_BYTES,
    LinkTiming,
    PcieGen,
    ack_timer_ticks,
    fc_watchdog_ticks,
    replay_timeout_ticks,
)
from repro.sim.eventq import CallbackEvent, labelled, proxy
from repro.sim.simobject import SimObject, Simulator


class UnidirectionalLink(SimObject):
    """One direction of a link: serializes pcie-pkts at the wire rate."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: SimObject,
        timing: LinkTiming,
        propagation_delay: int,
    ):
        super().__init__(sim, name, parent)
        self.timing = timing
        # The (gen, width)-shared wire_bytes -> ticks memo, read directly
        # in send(); timing.transmission_ticks fills it on a miss.
        self._tx_ticks = timing.tx_ticks_cache
        self.propagation_delay = propagation_delay
        # ``busy`` allows one transmission in flight; its end is a
        # fire-and-forget call of _tx_done.
        self.busy = False
        self.packets = self.stats.scalar("packets", "pcie-pkts transmitted")
        self.bytes = self.stats.scalar("bytes", "wire bytes transmitted")
        self.busy_ticks = self.stats.scalar("busy_ticks", "ticks spent transmitting")

    def send(self, ppkt: PciePacket, sender: "PcieLinkInterface",
             receiver: "PcieLinkInterface") -> None:
        """Serialize ``ppkt`` onto the wire towards ``receiver``."""
        if self.busy:
            raise RuntimeError(f"{self.full_name} is busy")
        tlp = ppkt.tlp
        if tlp is None:
            wire = DLLP_WIRE_BYTES
            arrive = receiver._receive_dllp
        else:
            wire = tlp.payload_size + TLP_OVERHEAD_BYTES
            arrive = receiver._receive_tlp
        tx_time = self._tx_ticks.get(wire)
        if tx_time is None:
            tx_time = self.timing.transmission_ticks(wire)
        self.busy = True
        self.packets.total += 1
        self.bytes.total += wire
        self.busy_ticks.total += tx_time
        # tx_done must be scheduled before the delivery so their
        # insertion sequence (and thus dispatch order at equal ticks)
        # matches the historical per-packet-callback code exactly.
        eventq = self.eventq
        done = eventq.curtick + tx_time
        eventq.call_at(done, self._tx_done, sender)
        eventq.call_at(done + self.propagation_delay, arrive, ppkt)

    @labelled("tx_done")
    def _tx_done(self, sender: "PcieLinkInterface") -> None:
        """End of serialization: free the wire, let the sender pick its
        next pcie-pkt."""
        self.busy = False
        sender._kick_tx()


class PcieLinkInterface(SimObject):
    """One end of a PCI-Express link: the TX/RX logic of Figure 8."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: "PcieLink",
    ):
        super().__init__(sim, name, parent)
        self.tx_link: Optional[UnidirectionalLink] = None  # wired by PcieLink
        # The other end, a weak proxy (wired by PcieLink), which also
        # sets the knobs read per packet here (see _EndKnob).
        self.peer: Optional["PcieLinkInterface"] = None

        # Ports facing the attached component.  The master port carries
        # requests *off* the link into the component and responses from
        # the component *onto* the link; the slave port the reverse.
        self.master_port = MasterPort(
            self, "master",
            recv_timing_resp=self._recv_from_component,
            recv_req_retry=self._component_req_retry,
        )
        self.slave_port = SlavePort(
            self, "slave",
            recv_timing_req=self._recv_from_component,
            recv_resp_retry=self._component_resp_retry,
        )

        # -- TX state ------------------------------------------------------
        # Every queue here holds at most a few entries, so each is a list
        # (56 B empty) rather than a deque (760 B empty).
        self.send_seq = 0
        self.replay_buffer: List[PciePacket] = []
        self.retransmit_queue: List[PciePacket] = []
        self.dllp_queue: List[PciePacket] = []
        # Component-facing input, split so completions never queue
        # behind credit-blocked requests (each bounded separately).
        self._in_req: List[Packet] = []
        self._in_cpl: List[Packet] = []
        self._replay_event = CallbackEvent(self._replay_timeout, name=f"{name}.replay")
        # Armed while a class is credit-starved with work pending; on
        # expiry the peer re-advertises (lost-UpdateFC recovery).
        self._fc_watchdog_event = CallbackEvent(
            self._fc_watchdog_fired, name=f"{name}.fc_watchdog"
        )

        # -- flow control ----------------------------------------------------
        # Both accounts of this end's credit state: what we may send
        # (tx_*, installed by InitFC/UpdateFC from the peer) and what we
        # have advertised and buffered (rx_*).
        self.fc = CreditLedger(
            parent.p_credits, parent.np_credits, parent.cpl_credits
        )

        # -- RX state --------------------------------------------------------
        self.recv_seq = 0
        # Per-class receive buffers backing the advertised credits:
        # completions drain through our slave port, requests (P and NP,
        # in arrival order) through our master port.
        self._rx_req: List[Packet] = []
        self._rx_cpl: List[Packet] = []
        self._ack_event = CallbackEvent(self._ack_timer_fired, name=f"{name}.ack")
        self._have_unacked_delivery = False
        # The error-injection RNG, seeded with a string for run-to-run
        # determinism (str seeding does not go through randomized
        # str.__hash__).  Built on the first draw: only a link with a
        # non-zero error rate draws, and a Random is 2.5 KB.
        self._rng_seed = f"{parent.error_seed}:{parent.full_name}.{name}"
        self._rng: Optional[random.Random] = None

        # -- statistics ----------------------------------------------------
        s = self.stats
        self.tlps_sent = s.scalar("tlps_sent", "first-time TLP transmissions")
        self.tlp_replays = s.scalar("tlp_replays", "TLP retransmissions")
        self.timeouts = s.scalar("timeouts", "replay-timer expirations")
        self.acks_sent = s.scalar("acks_sent")
        self.naks_sent = s.scalar("naks_sent")
        self.acks_received = s.scalar("acks_received")
        self.fc_updates_sent = s.scalar(
            "fc_updates_sent", "UpdateFC DLLPs transmitted"
        )
        self.fc_updates_received = s.scalar(
            "fc_updates_received", "UpdateFC DLLPs received intact"
        )
        self.fc_watchdog_fires = s.scalar(
            "fc_watchdog_fires", "credit-stall watchdog expirations"
        )
        self.delivered = s.scalar(
            "delivered", "TLPs accepted into the receive buffers"
        )
        self.delivery_refused = s.scalar(
            "delivery_refused",
            "RX-buffer drain attempts refused by the attached port",
        )
        self.out_of_seq = s.scalar("out_of_seq", "TLPs discarded by the sequence check")
        self.corrupted = s.scalar("corrupted", "TLPs hit by injected errors")
        self.dllp_corrupted = s.scalar(
            "dllp_corrupted", "DLLPs hit by injected errors (discarded)"
        )
        fc = self.fc
        s.formula(
            "fc_stall_ticks_p", lambda: fc.stall_ticks[0],
            "ticks new posted TLPs waited on credits",
        )
        s.formula(
            "fc_stall_ticks_np", lambda: fc.stall_ticks[1],
            "ticks new non-posted TLPs waited on credits",
        )
        s.formula(
            "fc_stall_ticks_cpl", lambda: fc.stall_ticks[2],
            "ticks new completion TLPs waited on credits",
        )

        sent, replays = self.tlps_sent, self.tlp_replays

        def _replay_fraction() -> float:
            # An idle interface has sent nothing: its replay fraction is
            # 0.0, not a ZeroDivisionError at stats-dump time.
            total = sent.value() + replays.value()
            return replays.value() / total if total else 0.0

        s.formula(
            "replay_fraction",
            _replay_fraction,
            "fraction of TLP transmissions that were replays",
        )

        # Protocol-invariant hooks (repro.check): the checker is cached
        # by SimObject.__init__; registration feeds the quiescence
        # watchdog that flags undrained replay buffers as deadlocks.
        self.checker.register_link_interface(self)

    # -- convenience -----------------------------------------------------------
    @property
    def input_queue(self) -> List[Packet]:
        """Combined view of both input queues (requests then
        completions) — diagnostics and quiescence checks only; the
        bounded queues themselves are per-class."""
        return self._in_req + self._in_cpl

    # ==================== TX: component -> link =========================
    def _recv_from_component(self, pkt: Packet) -> bool:
        """A TLP offered by the attached component (request via our slave
        port or response via our master port)."""
        queue = self._in_cpl if pkt.is_response else self._in_req
        if len(queue) >= self.input_queue_size:
            return False
        queue.append(pkt)
        if not self.tx_link.busy:
            self._kick_tx()
        return True

    def _component_req_retry(self) -> None:
        """The component can accept a previously-refused delivery again:
        resume draining the request receive buffer."""
        self._drain_rx()

    def _component_resp_retry(self) -> None:
        """Symmetric to :meth:`_component_req_retry` for completions."""
        self._drain_rx()

    def _kick_tx(self) -> None:
        """Put the next pcie-pkt on an idle wire.  Per-packet callers
        test ``tx_link.busy`` first and skip the call while it is set."""
        tx_link = self.tx_link
        if tx_link is None or tx_link.busy:
            return
        if not (self.dllp_queue or self._in_req or self._in_cpl
                or self.retransmit_queue):
            return  # nothing _pick_next could select
        ppkt = self._pick_next()
        if ppkt is None:
            return
        tlp = ppkt.tlp
        trc = self.tracer
        if trc.enabled:
            if tlp is not None:
                trc.emit(self.curtick, "link", self.full_name, "tlp_tx",
                         tlp=trc.tlp_id(tlp.req_id), seq=ppkt.seq,
                         replay=ppkt.is_replay, resp=tlp.is_response)
            else:
                trc.emit(self.curtick, "link", self.full_name, "dllp_tx",
                         kind=ppkt.dllp_type.value, seq=ppkt.seq)
        tx_link.send(ppkt, self, self.peer)
        if tlp is not None and not self._replay_event.scheduled:
            self.eventq.schedule_after(
                self._replay_event, self.replay_timeout)

    def _pick_next(self) -> Optional[PciePacket]:
        """Select the next pcie-pkt per the paper's priority order."""
        if self.dllp_queue:
            ppkt = self.dllp_queue.pop(0)
            dllp_type = ppkt.dllp_type
            if dllp_type is DllpType.ACK:
                self.acks_sent.total += 1
            elif dllp_type is DllpType.NAK:
                self.naks_sent.total += 1
            else:
                self.fc_updates_sent.total += 1
            return ppkt
        while self.retransmit_queue:
            ppkt = self.retransmit_queue.pop(0)
            if ppkt in self.replay_buffer:  # not ACKed while waiting
                ppkt.is_replay = True
                self.tlp_replays.total += 1
                return ppkt
        if len(self.replay_buffer) < self.replay_buffer_size:
            # New TLPs spend a credit of their class on first
            # transmission (replays above never re-consume: the
            # receiver's buffer slot is still accounted to the TLP).
            # Completions first — they hold a dedicated end-to-end
            # path, and a credit-blocked class must not block the
            # other queue.
            fc = self.fc
            queue = self._in_cpl
            if queue:
                if fc.try_consume(FLOW_CPL):
                    return self._wrap_new_tlp(queue.pop(0))
                self._fc_blocked(FLOW_CPL)
            queue = self._in_req
            if queue:
                cls = queue[0].flow_class
                if fc.try_consume(cls):
                    return self._wrap_new_tlp(queue.pop(0))
                self._fc_blocked(cls)
        return None

    def _wrap_new_tlp(self, pkt: Packet) -> PciePacket:
        """Sequence a first-time TLP (its credit is already consumed)."""
        ppkt = PciePacket(tlp=pkt, seq=self.send_seq)
        self.send_seq += 1
        self.replay_buffer.append(ppkt)
        self.tlps_sent.total += 1
        ck = self.checker
        if ck.enabled:
            ck.link_tlp_queued(self, ppkt)
        # Input-queue space freed: let the component retry refusals.
        if (self.slave_port.retry_owed
                and len(self._in_req) < self.input_queue_size):
            self.slave_port.send_retry_req()
        if (self.master_port.resp_retry_owed
                and len(self._in_cpl) < self.input_queue_size):
            self.master_port.send_retry_resp()
        return ppkt

    # -- credit stalls -------------------------------------------------------
    def _fc_blocked(self, cls: int) -> None:
        """A new TLP of ``cls`` is ready but its credits are exhausted:
        start the class's stall clock and arm the FC watchdog."""
        fc = self.fc
        if not fc.stalled(cls):
            fc.stall_begin(cls, self.eventq.curtick)
        if not self._fc_watchdog_event.scheduled:
            self.eventq.schedule_after(self._fc_watchdog_event, self.fc_watchdog)

    def _fc_watchdog_fired(self) -> None:
        """Credit-starved for a full watchdog period: an UpdateFC was
        probably lost to corruption.  Ask the peer to re-advertise its
        cumulative limits (the model's stand-in for the spec's periodic
        UpdateFC retransmission) and re-arm while still starved."""
        fc = self.fc
        if not (fc.stalled(0) or fc.stalled(1) or fc.stalled(2)):
            return
        self.fc_watchdog_fires.total += 1
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.curtick, "link", self.full_name, "fc_watchdog",
                     p=fc.tx_headroom(0), np=fc.tx_headroom(1),
                     cpl=fc.tx_headroom(2))
        self.peer._readvertise_credits()
        self.eventq.schedule_after(self._fc_watchdog_event, self.fc_watchdog)

    def _readvertise_credits(self) -> None:
        """Queue UpdateFC DLLPs carrying our current cumulative limits
        for every class (idempotent at the receiver: limits are
        monotone, so a duplicate advertisement is a no-op)."""
        fc = self.fc
        for cls in (0, 1, 2):
            self._queue_dllp(UPDATE_FC_FOR[cls], fc.rx_limit(cls))
        self._kick_tx()

    def _credits_arrived(self, cls: int) -> None:
        """The peer advanced our ``cls`` credit limit: close the stall
        clock, stand down the watchdog if nothing is starved, resume."""
        fc = self.fc
        fc.stall_end(cls, self.eventq.curtick)
        if (self._fc_watchdog_event.scheduled
                and not (fc.stalled(0) or fc.stalled(1) or fc.stalled(2))):
            self.eventq.deschedule(self._fc_watchdog_event)
        if not self.tx_link.busy:
            self._kick_tx()

    # -- replay timer -------------------------------------------------------
    def _replay_timeout(self) -> None:
        self.timeouts.total += 1
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.curtick, "link", self.full_name, "replay_timeout",
                     pending=len(self.replay_buffer))
        # Retransmit everything still unacknowledged, oldest first.
        self.retransmit_queue[:] = self.replay_buffer
        if self.replay_buffer:
            self.eventq.schedule_after(self._replay_event, self.replay_timeout)
        ck = self.checker
        if ck.enabled:
            ck.link_timeout(self)
        self._kick_tx()

    def _reset_replay_timer(self) -> None:
        eventq = self.eventq
        if self._replay_event.scheduled:
            eventq.deschedule(self._replay_event)
        if self.replay_buffer:
            eventq.schedule(self._replay_event,
                            eventq.curtick + self.replay_timeout)

    # ===================== RX: link -> component =========================
    def _draw(self) -> float:
        """The next error-injection draw, building the RNG on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng.random()

    @labelled("deliver")
    def _receive_dllp(self, ppkt: PciePacket) -> None:
        """A DLLP arrives off the wire."""
        trc = self.tracer
        error_rate = self.dllp_error_rate
        if error_rate and self._draw() < error_rate:
            # A corrupted DLLP fails its CRC and is silently discarded;
            # a lost ACK is recovered by the sender's replay timer, a
            # lost NAK by the next timeout or a later ACK/NAK, a lost
            # UpdateFC by the next one (cumulative limits) or the FC
            # watchdog.
            self.dllp_corrupted.total += 1
            if trc.enabled:
                trc.emit(self.curtick, "link", self.full_name, "dllp_corrupt",
                         kind=ppkt.dllp_type.value, seq=ppkt.seq)
            return
        if trc.enabled:
            trc.emit(self.curtick, "link", self.full_name, "dllp_rx",
                     kind=ppkt.dllp_type.value, seq=ppkt.seq)
        ck = self.checker
        if ck.enabled:
            ck.link_dllp_received(self, ppkt)
        dllp_type = ppkt.dllp_type
        if dllp_type is DllpType.ACK:
            self.acks_received.total += 1
            self._purge_acknowledged(ppkt.seq)
            self._reset_replay_timer()
            if not self.tx_link.busy:
                self._kick_tx()
        elif dllp_type is DllpType.NAK:
            # NAK: purge what it acknowledges, replay the rest.
            self._purge_acknowledged(ppkt.seq)
            self.retransmit_queue[:] = self.replay_buffer
            self._reset_replay_timer()
            if not self.tx_link.busy:
                self._kick_tx()
        else:
            # UpdateFC: install the cumulative limit; stale (lower or
            # duplicate) limits are no-ops per the monotone rule.
            self.fc_updates_received.total += 1
            cls = UPDATE_FC_FOR.index(dllp_type)
            if self.fc.advertise(cls, ppkt.seq):
                self._credits_arrived(cls)

    def _purge_acknowledged(self, seq: int) -> None:
        replay_buffer = self.replay_buffer
        while replay_buffer and replay_buffer[0].seq <= seq:
            del replay_buffer[0]

    def _queue_dllp(self, dllp_type: DllpType, seq: int) -> None:
        """Enqueue a ``dllp_type`` DLLP carrying ``seq``, coalescing
        with a pending one of the same type.

        ACK/NAK sequence numbers and UpdateFC credit limits are all
        cumulative — a later value subsumes every earlier one — so a
        pending same-type DLLP is updated to the highest value instead
        of queueing a second entry.  Without this, sustained TLP
        corruption (every received TLP NAKed while the transmitter is
        busy) grows ``dllp_queue`` without bound; with it the queue
        never holds more than one entry per DLLP type — and a pcie-pkt
        is only allocated for a DLLP that actually takes a queue slot.
        """
        for pending in self.dllp_queue:
            if pending.dllp_type is dllp_type:
                if seq > pending.seq:
                    pending.seq = seq
                return
        self.dllp_queue.append(PciePacket(dllp_type=dllp_type, seq=seq))

    @labelled("deliver")
    def _receive_tlp(self, ppkt: PciePacket) -> None:
        """A TLP arrives off the wire."""
        trc = self.tracer
        error_rate = self.error_rate
        if error_rate and self._draw() < error_rate:
            # A corrupted TLP: discard and NAK the last good sequence.
            # No credit moves — the sender's credit stays consumed and
            # our buffer slot stays reserved until the replay lands.
            self.corrupted.total += 1
            if trc.enabled:
                trc.emit(self.curtick, "link", self.full_name, "tlp_corrupt",
                         tlp=trc.tlp_id(ppkt.tlp.req_id), seq=ppkt.seq)
            self._queue_dllp(DllpType.NAK, self.recv_seq - 1)
            self._kick_tx()
            return
        if ppkt.seq != self.recv_seq:
            # Duplicate (already delivered) or out-of-order replay.
            self.out_of_seq.total += 1
            if trc.enabled:
                trc.emit(self.curtick, "link", self.full_name, "tlp_out_of_seq",
                         tlp=trc.tlp_id(ppkt.tlp.req_id), seq=ppkt.seq,
                         expect=self.recv_seq)
            if ppkt.seq < self.recv_seq:
                # Re-ACK so the sender can purge its replay buffer even
                # if the original ACK crossed a timeout.
                self._schedule_ack()
            return
        # In sequence: always accepted.  The sender consumed a credit of
        # this class before transmitting, so the class's RX buffer has
        # a slot by construction (the checker enforces it).
        pkt = ppkt.tlp
        cls = pkt.flow_class
        self.delivered.total += 1
        if trc.enabled:
            trc.emit(self.curtick, "link", self.full_name, "tlp_deliver",
                     tlp=trc.tlp_id(pkt.req_id), seq=ppkt.seq,
                     resp=pkt.is_response)
        ck = self.checker
        if ck.enabled:
            ck.link_tlp_delivered(self, ppkt)
        self.fc.rx_accept(cls)
        (self._rx_cpl if cls == FLOW_CPL else self._rx_req).append(pkt)
        self.recv_seq += 1
        self._schedule_ack()
        self._drain_rx()

    def _drain_rx(self) -> None:
        """Push buffered TLPs into the attached component, completions
        first, returning one credit per drained TLP.

        A refusal parks the queue until the component's port retry; the
        completion and request queues block independently, so a request
        flood past the link can never stop completions from draining —
        the forward-progress guarantee behind PCIe's deadlock freedom.
        """
        drained = False
        queue = self._rx_cpl
        port = self.slave_port
        if queue and not port.waiting_for_resp_retry:
            while queue:
                if not port.send_timing_resp(queue[0]):
                    self._count_refusal(queue[0])
                    break
                queue.pop(0)
                self._credit_return(FLOW_CPL)
                drained = True
        queue = self._rx_req
        mport = self.master_port
        if queue and not mport.waiting_for_req_retry:
            while queue:
                if not mport.send_timing_req(queue[0]):
                    self._count_refusal(queue[0])
                    break
                pkt = queue.pop(0)
                self._credit_return(pkt.flow_class)
                drained = True
        if drained and not self.tx_link.busy:
            self._kick_tx()

    def _count_refusal(self, pkt: Packet) -> None:
        """The attached component refused an RX-buffer drain attempt."""
        self.delivery_refused.total += 1
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.curtick, "link", self.full_name, "tlp_refused",
                     tlp=trc.tlp_id(pkt.req_id), resp=pkt.is_response)

    def _credit_return(self, cls: int) -> None:
        """A ``cls`` RX-buffer slot drained: queue the UpdateFC that
        returns the credit (coalesced — limits are cumulative)."""
        self._queue_dllp(UPDATE_FC_FOR[cls], self.fc.rx_drain(cls))

    # -- ACK scheduling ---------------------------------------------------------
    def _schedule_ack(self) -> None:
        if self.ack_policy == "immediate":
            self._queue_dllp(DllpType.ACK, self.recv_seq - 1)
            self._kick_tx()
            return
        self._have_unacked_delivery = True
        if not self._ack_event.scheduled:
            self.eventq.schedule_after(self._ack_event, self.ack_period)

    def _ack_timer_fired(self) -> None:
        if not self._have_unacked_delivery:
            return
        self._have_unacked_delivery = False
        self._queue_dllp(DllpType.ACK, self.recv_seq - 1)
        self._kick_tx()

    # -- checkpointing ----------------------------------------------------
    # The sequence numbers are read as send_seq - peer.recv_seq, which
    # relative_state adds.
    state_fields = {"send_seq": "accumulator", "recv_seq": "accumulator",
                    "_have_unacked_delivery": "exact"}
    in_flight = ("replay_buffer", "retransmit_queue", "dllp_queue",
                 "_in_req", "_in_cpl", "_rx_req", "_rx_cpl")

    def state_dict(self) -> dict:
        """The declared fields plus the credit accounts and the
        error-injection RNG."""
        # An RNG never built has never been drawn from: null, and a
        # restored twin builds it from the seed on its first draw too.
        # getstate() is (version, tuple-of-ints, gauss_next), flattened
        # to JSON-safe lists and rebuilt in load_state_dict.
        state = super().state_dict()
        state["fc"] = self.fc.state_dict()
        state["rng"] = None
        if self._rng is not None:
            version, internal, gauss = self._rng.getstate()
            state["rng"] = [version, list(internal), gauss]
        return state

    def relative_state(self, state: dict, origin) -> dict:
        """Sequence numbers and credit limits as the differences the
        link reads, stall clocks as offsets; ``stall_ticks`` is an
        accumulator nothing reads back.  The RNG stays absolute, so a
        link that drew between two boundaries never proves a repeat."""
        relative = super().relative_state(state, origin)
        fc, peer = relative.pop("fc"), self.peer
        relative.update(
            unacked=self.send_seq - peer.recv_seq,
            headroom=[limit - used for limit, used
                      in zip(fc["tx_limit"], fc["tx_consumed"])],
            unreturned=[self.fc.rx_limit(c) - peer.fc.tx_limit[c]
                        for c in (0, 1, 2)],
            rx_held=fc["rx_held"],
            stall_since=[since - origin.tick if since >= 0 else -1
                         for since in fc["stall_since"]])
        return relative

    def load_state_dict(self, state: dict) -> None:
        """Overlay captured counters/credits onto this rebuilt interface."""
        state = dict(state)
        self.fc.load_state_dict(state.pop("fc"))
        rng_state = state.pop("rng")
        super().load_state_dict(state)
        self._rng = None
        if rng_state is not None:
            self._rng = random.Random()
            self._rng.setstate((rng_state[0], tuple(rng_state[1]), rng_state[2]))


class _EndKnob:
    """A link knob both interfaces read per packet: kept on the two
    ends, which reach their link only weakly, and read back from one."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, link: Optional["PcieLink"], owner: Optional[type] = None):
        return self if link is None else getattr(link.upstream_if, self.name)

    def __set__(self, link: "PcieLink", value) -> None:
        setattr(link.upstream_if, self.name, value)
        setattr(link.downstream_if, self.name, value)


class PcieLink(SimObject):
    """A full-duplex PCI-Express link.

    ``upstream_if`` is the end nearer the root complex (bind its ports
    to a root/switch *downstream* port); ``downstream_if`` is the device
    end.  Both directions share one :class:`LinkTiming`.

    Every keyword is a :class:`repro.system.spec.LinkSpec` field of the
    same name, except ``gen``, which is the :class:`PcieGen` member the
    record names.  The record holds the defaults and the range checks;
    build a link from one with :meth:`from_spec`.  ``replay_timeout``
    and ``ack_period`` None mean the :mod:`repro.pcie.timing` formula.
    """

    replay_buffer_size = _EndKnob()
    ack_policy = _EndKnob()
    input_queue_size = _EndKnob()
    error_rate = _EndKnob()
    dllp_error_rate = _EndKnob()
    replay_timeout = _EndKnob()
    ack_period = _EndKnob()
    fc_watchdog = _EndKnob()

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Optional[SimObject] = None,
        *,
        gen: PcieGen,
        width: int,
        propagation_delay: int,
        replay_buffer_size: int,
        max_payload: int,
        ack_policy: str,
        input_queue_size: int,
        p_credits: int,
        np_credits: int,
        cpl_credits: int,
        error_rate: float,
        dllp_error_rate: float,
        error_seed: int,
        replay_timeout: Optional[int] = None,
        ack_period: Optional[int] = None,
    ):
        super().__init__(sim, name, parent)
        self.timing = LinkTiming(gen, width)
        self.max_payload = max_payload
        self.p_credits = p_credits
        self.np_credits = np_credits
        self.cpl_credits = cpl_credits
        self.error_seed = error_seed
        self.upstream_if = PcieLinkInterface(sim, "up_if", self)
        self.downstream_if = PcieLinkInterface(sim, "down_if", self)
        self.replay_buffer_size = replay_buffer_size
        self.ack_policy = ack_policy
        self.input_queue_size = input_queue_size
        self.error_rate = error_rate
        self.dllp_error_rate = dllp_error_rate
        # The spec formula by default; explicit overrides support the
        # timer-sensitivity ablations.
        self.replay_timeout = (
            replay_timeout
            if replay_timeout is not None
            else replay_timeout_ticks(gen, width, max_payload)
        )
        self.ack_period = (
            ack_period if ack_period is not None else ack_timer_ticks(gen, width, max_payload)
        )
        self.fc_watchdog = fc_watchdog_ticks(gen, width, max_payload)
        self.up_link = UnidirectionalLink(
            sim, "up_link", self, self.timing, propagation_delay
        )
        self.down_link = UnidirectionalLink(
            sim, "down_link", self, self.timing, propagation_delay
        )
        # The downstream interface transmits on the upstream-bound link.
        self.downstream_if.tx_link = self.up_link
        self.downstream_if.peer = proxy(self.upstream_if)
        self.upstream_if.tx_link = self.down_link
        self.upstream_if.peer = proxy(self.downstream_if)
        # InitFC: each end installs the peer's advertised receive
        # capacities as its transmit credit limits.  Modelled as an
        # instantaneous link-up handshake — no DLLPs on the wire.
        for iface in (self.upstream_if, self.downstream_if):
            for cls in (0, 1, 2):
                iface.fc.advertise(cls, iface.peer.fc.rx_limit(cls))

    @classmethod
    def from_spec(cls, sim: Simulator, name: str, spec,
                  parent: Optional[SimObject] = None) -> "PcieLink":
        """The link a :class:`repro.system.spec.LinkSpec` describes.

        The record is read by attribute, so this package never imports
        :mod:`repro.system`; it is trusted to be validated (the builder
        validates the whole tree first).
        """
        return cls(
            sim, name, parent, gen=PcieGen[spec.gen], width=spec.width,
            propagation_delay=spec.propagation_delay,
            replay_buffer_size=spec.replay_buffer_size,
            max_payload=spec.max_payload, ack_policy=spec.ack_policy,
            input_queue_size=spec.input_queue_size,
            p_credits=spec.p_credits, np_credits=spec.np_credits,
            cpl_credits=spec.cpl_credits, error_rate=spec.error_rate,
            dllp_error_rate=spec.dllp_error_rate, error_seed=spec.error_seed,
            replay_timeout=spec.replay_timeout, ack_period=spec.ack_period,
        )

    @property
    def gen(self) -> PcieGen:
        """The link's PCI-Express generation."""
        return self.timing.gen

    @property
    def width(self) -> int:
        """The link's lane count."""
        return self.timing.width

    def config_dict(self) -> dict:
        """The link's knobs, recorded into stats exports."""
        return {
            "kind": "pcie_link",
            "gen": self.gen.name,
            "width": self.width,
            "replay_buffer_size": self.replay_buffer_size,
            "max_payload": self.max_payload,
            "ack_policy": self.ack_policy,
            "input_queue_size": self.input_queue_size,
            "p_credits": self.p_credits,
            "np_credits": self.np_credits,
            "cpl_credits": self.cpl_credits,
            "error_rate": self.error_rate,
            "dllp_error_rate": self.dllp_error_rate,
            "replay_timeout": self.replay_timeout,
            "ack_period": self.ack_period,
            "fc_watchdog": self.fc_watchdog,
        }

    def __repr__(self) -> str:
        return f"<PcieLink {self.full_name} {self.gen.name} x{self.width}>"
