"""The runtime invariant checker.

Every :class:`~repro.sim.simobject.Simulator` owns one
:class:`InvariantChecker`, created disabled.  Instrumented hot paths —
the event-queue dispatch loop, the timing-port protocol, and the PCIe
link layer — cache the checker reference at construction and guard
each hook on ``if ck.enabled:``, exactly the zero-overhead-when-
disabled pattern the tracer uses.  Enabling the checker (the ``check=``
knob on ``Simulator``, the ``REPRO_CHECK`` environment variable, or
``sim.checker.enable()``) turns those hooks into machine-checked
protocol rules:

* **Event queue** — dispatch ticks never move backwards
  (``eventq.time_monotonic``).
* **Timing ports** — while a port has a refusal outstanding it may only
  re-send the refused packet, never a new one
  (``port.req_while_retry_owed`` / ``port.resp_while_retry_owed``);
  a retry is only issued when one is owed (``port.double_retry``);
  and responses accepted across a port pair never exceed the
  response-needing requests accepted across it
  (``port.resp_conservation``).
* **Link layer** — sending sequence numbers increase by exactly one per
  new TLP (``link.send_seq``); deliveries bump the receiving sequence
  number by exactly one (``link.recv_seq``); the replay buffer never
  exceeds ``replay_buffer_size`` (``link.replay_buffer_overflow``);
  an ACK/NAK never acknowledges a sequence number that was never sent
  (``link.ack_unsent_seq``); a replay timeout always leaves the timer
  armed while TLPs remain unacknowledged (``link.timeout_unarmed``).
* **Flow control** — a transmitter never consumes more credits of a
  class than its peer advertised (``link.fc_overconsume``); an accepted
  TLP always has a free slot of its class in the receive buffer — a
  non-posted flood can never eat completion slots
  (``link.fc_rx_overflow``); received UpdateFC credit limits are
  monotone (``link.fc_limit_regressed``).
* **Quiescence** — when the event queue drains, every link interface
  must be idle: a non-empty replay buffer with no scheduled replay
  event is a deadlock (``link.replay_deadlock``); stuck input, receive
  or DLLP queues are flagged too (``link.stuck_input_queue`` /
  ``link.stuck_rx_buffer`` / ``link.stuck_dllp_queue``); and every
  credit consumed must map to a drained peer buffer slot — no credit
  may leak (``link.fc_credit_leak``).

Violations are :class:`~repro.check.violation.InvariantViolation`
instances carrying component path, tick, and the most recent event
dispatches.  The checker keeps those in a ring of raw ``(when,
priority, fn, arg)`` entries and formats them only when a violation is
built, as exactly the ``eventq`` ``dispatch`` events the tracer would
have recorded; arming the checker leaves the tracer off.  By default
the first violation raises; ``record_only=True`` collects instead, for
tests that assert on ``checker.violations``.
"""

import weakref
from collections import deque
from typing import Deque, Dict, List

from repro.check.violation import InvariantViolation

__all__ = ["InvariantChecker"]

#: Human-readable flow-control class names, indexed by flow-class int.
_FLOW_NAMES = ("posted", "non-posted", "completion")


def _resolve_port(sim, full_name: str):
    """Find the timing port named ``full_name`` on a rebuilt simulator.

    Ports are not SimObjects, so the registry resolves their owner
    (everything before the last dot) and the port is found by scanning
    the owner's attributes for a bound port carrying the same full
    name.  Duck-typed to avoid importing :mod:`repro.mem.port`, which
    imports this module transitively.
    """
    owner_name, _, _leaf = full_name.rpartition(".")
    owner = sim.find(owner_name)
    if owner is None:
        return None

    def _matches(value) -> bool:
        # == sees through the owner's weak proxy.
        return (getattr(value, "full_name", None) == full_name
                and getattr(value, "owner", None) == owner)

    # Ports live either as direct attributes (devices, link interfaces)
    # or inside list attributes (crossbars keep _slave_ports /
    # _master_ports lists); scan one level of both.
    for value in vars(owner).values():
        if _matches(value):
            return value
        if isinstance(value, list):
            for item in value:
                if _matches(item):
                    return item
    return None


class _PairLedger:
    """Request/response accounting for one bound master/slave pair."""

    __slots__ = ("reqs", "need_resp", "resps")

    def __init__(self):
        self.reqs = 0
        self.need_resp = 0
        self.resps = 0


class _LinkLedger:
    """Per-interface sequence-number bookkeeping."""

    __slots__ = ("last_sent_seq", "last_delivered_seq")

    def __init__(self):
        self.last_sent_seq = -1
        self.last_delivered_seq = -1


class InvariantChecker:
    """Pluggable runtime protocol-rule checker for one simulator.

    Args:
        sim: the owning :class:`~repro.sim.simobject.Simulator`.
        context_events: how many recent dispatches the ring keeps for a
            violation's context (0 disables context capture).
        record_only: when True, violations are appended to
            :attr:`violations` instead of raised — the mode campaign
            summaries and negative tests use.
    """

    def __init__(self, sim, context_events: int = 64,
                 record_only: bool = False):
        self.sim = weakref.proxy(sim)  # the Simulator owns its checker
        self.enabled = False
        self.record_only = record_only
        self.context_events = context_events
        self.violations: List[InvariantViolation] = []
        # The last dispatches as raw (when, priority, seq, fn, arg) queue
        # entries: EventQueue.run appends its own entries here.  They
        # reach the whole machine, which holds its checker, so the
        # Simulator owns the ring and the checker sees it weakly.
        sim.dispatch_ring = deque(maxlen=context_events)
        self._ring: Deque[tuple] = weakref.proxy(sim.dispatch_ring)
        self._last_dispatch_tick = 0
        # UpdateFC DLLP type -> flow class lookup, bound by enable().
        self._update_fc_class = None
        # One ledger per bound master/slave pair, keyed by the master
        # port's full name (a peer proxy is no key); refused-packet
        # records keyed by the re-sending port's.
        self._pairs: Dict[object, _PairLedger] = {}
        self._pending_req: Dict[object, object] = {}
        self._pending_resp: Dict[object, object] = {}
        # Link interfaces register at construction for the quiescence
        # watchdog (weakly) and carry their sequence ledgers here, keyed
        # by full name.
        self._link_ifaces: List[object] = []
        self._links: Dict[object, _LinkLedger] = {}

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> "InvariantChecker":
        """Arm every hook.  The tracer stays as it is."""
        # Not a top-level import: repro.pcie imports repro.sim, which
        # imports this module.
        from repro.pcie.pkt import FLOW_CLASS_FOR_DLLP

        self._update_fc_class = FLOW_CLASS_FOR_DLLP.get
        self.enabled = True
        return self

    def disable(self) -> "InvariantChecker":
        """Disarm the hooks and forget the recorded dispatches."""
        self.enabled = False
        self._ring.clear()
        return self

    def recent_events(self) -> List[dict]:
        """The last dispatches, oldest first, as the tracer's ``eventq``
        ``dispatch`` events (may be empty)."""
        from repro.sim.eventq import dispatch_label

        comp = self.sim.eventq.name
        return [{"t": when, "cat": "eventq", "comp": comp, "ev": "dispatch",
                 "name": dispatch_label(fn, arg), "pri": priority}
                for when, priority, __, fn, arg in self._ring]

    def _violate(self, rule: str, component: str, detail: str) -> None:
        """Record one violation; raise it unless in record-only mode."""
        violation = InvariantViolation(
            rule=rule, component=component, tick=self.sim.curtick,
            detail=detail, context=self.recent_events(),
        )
        self.violations.append(violation)
        if not self.record_only:
            raise violation

    # -- event queue -------------------------------------------------------
    def on_dispatch(self, when: int, priority: int, fn, arg) -> None:
        """Called per dispatch with the entry's parts: record it in the
        ring; ticks must never move backwards.  :meth:`EventQueue.run
        <repro.sim.eventq.EventQueue.run>` does both inline and calls
        this only when the tick moved backwards."""
        self._ring.append((when, priority, None, fn, arg))
        if when < self._last_dispatch_tick:
            from repro.sim.eventq import dispatch_label

            self._violate(
                "eventq.time_monotonic", self.sim.eventq.name,
                f"event {dispatch_label(fn, arg)!r} dispatched at tick "
                f"{when} after tick {self._last_dispatch_tick} had "
                f"already fired",
            )
        self._last_dispatch_tick = when

    # -- timing-port protocol ----------------------------------------------
    def pre_send_req(self, master, pkt) -> None:
        """Before a master sends: only the refused packet may be re-sent."""
        pending = self._pending_req.get(master.full_name)
        if pending is not None and pending is not pkt:
            self._violate(
                "port.req_while_retry_owed", master.full_name,
                f"sent new request {pkt!r} while the peer still owes a "
                f"retry for refused request {pending!r}",
            )

    def post_send_req(self, master, pkt, accepted: bool) -> None:
        """After a master sent: track refusals and pair accounting."""
        if accepted:
            self._pending_req.pop(master.full_name, None)
            ledger = self._pairs.get(master.full_name)
            if ledger is None:
                ledger = self._pairs[master.full_name] = _PairLedger()
            ledger.reqs += 1
            if pkt.needs_response:
                ledger.need_resp += 1
        else:
            self._pending_req[master.full_name] = pkt

    def pre_send_resp(self, slave, pkt) -> None:
        """Before a slave responds: only the refused response re-sends."""
        pending = self._pending_resp.get(slave.full_name)
        if pending is not None and pending is not pkt:
            self._violate(
                "port.resp_while_retry_owed", slave.full_name,
                f"sent new response {pkt!r} while the peer still owes a "
                f"retry for refused response {pending!r}",
            )

    def post_send_resp(self, slave, pkt, accepted: bool) -> None:
        """After a slave responded: refusal tracking + conservation."""
        if accepted:
            self._pending_resp.pop(slave.full_name, None)
            master = slave.peer.full_name
            ledger = self._pairs.get(master)
            if ledger is None:
                ledger = self._pairs[master] = _PairLedger()
            ledger.resps += 1
            if ledger.resps > ledger.need_resp:
                self._violate(
                    "port.resp_conservation", slave.full_name,
                    f"accepted response #{ledger.resps} ({pkt!r}) exceeds "
                    f"the {ledger.need_resp} response-needing requests "
                    f"accepted across this port pair",
                )
        else:
            self._pending_resp[slave.full_name] = pkt

    def on_retry_req(self, slave) -> None:
        """A slave issues a request retry: one must actually be owed."""
        if not slave.retry_owed:
            self._violate(
                "port.double_retry", slave.full_name,
                "issued a request retry when none was owed",
            )
        self._pending_req.pop(slave.peer.full_name, None)

    def on_retry_resp(self, master) -> None:
        """A master issues a response retry: one must actually be owed."""
        if not master.resp_retry_owed:
            self._violate(
                "port.double_retry", master.full_name,
                "issued a response retry when none was owed",
            )
        self._pending_resp.pop(master.peer.full_name, None)

    # -- link layer --------------------------------------------------------
    def register_link_interface(self, iface) -> None:
        """Link interfaces self-register for the quiescence watchdog."""
        self._link_ifaces.append(weakref.proxy(iface))

    def _link_ledger(self, iface) -> _LinkLedger:
        ledger = self._links.get(iface.full_name)
        if ledger is None:
            ledger = self._links[iface.full_name] = _LinkLedger()
        return ledger

    def link_tlp_queued(self, iface, ppkt) -> None:
        """A new TLP entered the replay buffer: seq, occupancy and
        credit-consumption rules."""
        ledger = self._link_ledger(iface)
        if ppkt.seq != ledger.last_sent_seq + 1:
            self._violate(
                "link.send_seq", iface.full_name,
                f"new TLP carries seq {ppkt.seq}, expected "
                f"{ledger.last_sent_seq + 1}",
            )
        ledger.last_sent_seq = ppkt.seq
        if len(iface.replay_buffer) > iface.replay_buffer_size:
            self._violate(
                "link.replay_buffer_overflow", iface.full_name,
                f"replay buffer holds {len(iface.replay_buffer)} TLPs, "
                f"size is {iface.replay_buffer_size}",
            )
        fc = iface.fc
        cls = ppkt.tlp.flow_class
        if fc.tx_consumed[cls] > fc.tx_limit[cls]:
            self._violate(
                "link.fc_overconsume", iface.full_name,
                f"consumed {fc.tx_consumed[cls]} "
                f"{_FLOW_NAMES[cls]} credits but the peer only ever "
                f"advertised {fc.tx_limit[cls]}",
            )

    def link_tlp_delivered(self, iface, ppkt) -> None:
        """A TLP was accepted: receiving seq advances by exactly one and
        its flow-control class must have a free receive-buffer slot —
        credit gating at the sender guarantees it, so an overflow here
        means a class borrowed another's buffers."""
        ledger = self._link_ledger(iface)
        if ppkt.seq != ledger.last_delivered_seq + 1:
            self._violate(
                "link.recv_seq", iface.full_name,
                f"delivered TLP carries seq {ppkt.seq}, expected "
                f"{ledger.last_delivered_seq + 1}",
            )
        ledger.last_delivered_seq = ppkt.seq
        fc = iface.fc
        cls = ppkt.tlp.flow_class
        if fc.rx_held[cls] >= fc.rx_capacity[cls]:
            self._violate(
                "link.fc_rx_overflow", iface.full_name,
                f"accepted a {_FLOW_NAMES[cls]} TLP with all "
                f"{fc.rx_capacity[cls]} {_FLOW_NAMES[cls]} receive-buffer "
                f"slots already occupied",
            )

    def link_dllp_received(self, iface, ppkt) -> None:
        """A DLLP arrived: an ACK/NAK may not acknowledge an unsent TLP,
        an UpdateFC may not regress the cumulative credit limit."""
        cls = self._update_fc_class(ppkt.dllp_type)
        if cls is not None:
            # Limits we emitted are monotone (coalescing keeps the max)
            # and the wire is in-order, so a regression means the peer's
            # ledger or the coalescing logic broke.  Equality is legal:
            # the FC watchdog re-requests the current limit.
            if ppkt.seq < iface.fc.tx_limit[cls]:
                self._violate(
                    "link.fc_limit_regressed", iface.full_name,
                    f"UpdateFC lowers the {_FLOW_NAMES[cls]} credit limit "
                    f"to {ppkt.seq} from {iface.fc.tx_limit[cls]}",
                )
            return
        if ppkt.seq >= iface.send_seq:
            self._violate(
                "link.ack_unsent_seq", iface.full_name,
                f"{ppkt.dllp_type.value.upper()} acknowledges seq "
                f"{ppkt.seq} but only {iface.send_seq} TLPs were ever "
                f"sent (highest seq {iface.send_seq - 1})",
            )

    def link_timeout(self, iface) -> None:
        """After a replay timeout: the timer must stay armed while TLPs
        remain unacknowledged, or the replay machinery can wedge."""
        if iface.replay_buffer and not iface._replay_event.scheduled:
            self._violate(
                "link.timeout_unarmed", iface.full_name,
                f"replay timeout left {len(iface.replay_buffer)} TLPs "
                f"unacknowledged with no replay timer scheduled",
            )

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint the ledgers, keyed by component path.

        Pair ledgers key on master-port and link ledgers on interface
        full names, which a rebuilt twin simulator re-attaches them by.
        Refused-packet records (``_pending_req``/``_pending_resp``) hold
        live packets and must be empty — a checkpoint is only taken at a
        describable boundary, where no retry is owed.
        """
        if self._pending_req or self._pending_resp:
            from repro.sim.checkpoint import CheckpointError

            stuck = list(self._pending_req) + list(self._pending_resp)
            raise CheckpointError(
                f"cannot checkpoint mid-retry: ports still owe retries "
                f"for refused packets: {stuck}")
        return {
            "last_dispatch_tick": self._last_dispatch_tick,
            "pairs": {
                port: [ledger.reqs, ledger.need_resp, ledger.resps]
                for port, ledger in self._pairs.items()
            },
            "links": {
                iface: [ledger.last_sent_seq, ledger.last_delivered_seq]
                for iface, ledger in self._links.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Re-key and install captured ledgers onto this simulator.

        Component paths resolve through the simulator's object registry;
        master ports resolve by scanning the owning object's attributes
        for the port of the recorded leaf name.
        """
        from repro.sim.checkpoint import CheckpointError

        self._last_dispatch_tick = state["last_dispatch_tick"]
        self._pairs = {}
        for full_name, (reqs, need_resp, resps) in state["pairs"].items():
            if _resolve_port(self.sim, full_name) is None:
                raise CheckpointError(
                    f"checkpoint names port {full_name!r} but the rebuilt "
                    f"system has no such port")
            ledger = _PairLedger()
            ledger.reqs, ledger.need_resp, ledger.resps = \
                reqs, need_resp, resps
            self._pairs[full_name] = ledger
        self._links = {}
        for full_name, (sent, delivered) in state["links"].items():
            if self.sim.find(full_name) is None:
                raise CheckpointError(
                    f"checkpoint names link interface {full_name!r} but "
                    f"the rebuilt system has no such object")
            ledger = _LinkLedger()
            ledger.last_sent_seq = sent
            ledger.last_delivered_seq = delivered
            self._links[full_name] = ledger

    # -- quiescence watchdog ----------------------------------------------
    def check_quiescence(self) -> None:
        """The event queue drained: every link interface must be idle.

        Called by :meth:`Simulator.run` when a run ends with an empty
        queue.  A non-empty replay buffer at quiescence means no event
        can ever drain it — the deadlock the watchdog exists to catch.
        """
        for iface in self._link_ifaces:
            if iface.replay_buffer:
                armed = iface._replay_event.scheduled
                self._violate(
                    "link.replay_deadlock", iface.full_name,
                    f"event queue is empty but the replay buffer still "
                    f"holds {len(iface.replay_buffer)} unacknowledged "
                    f"TLP(s) (seqs "
                    f"{[p.seq for p in iface.replay_buffer]}) and the "
                    f"replay timer is {'armed' if armed else 'not armed'}",
                )
            if iface._in_req or iface._in_cpl:
                self._violate(
                    "link.stuck_input_queue", iface.full_name,
                    f"event queue is empty but "
                    f"{len(iface._in_req) + len(iface._in_cpl)} "
                    f"TLP(s) from the component were never transmitted",
                )
            if iface._rx_req or iface._rx_cpl:
                self._violate(
                    "link.stuck_rx_buffer", iface.full_name,
                    f"event queue is empty but "
                    f"{len(iface._rx_req) + len(iface._rx_cpl)} received "
                    f"TLP(s) were never drained into the component",
                )
            if iface.dllp_queue:
                self._violate(
                    "link.stuck_dllp_queue", iface.full_name,
                    f"event queue is empty but {len(iface.dllp_queue)} "
                    f"DLLP(s) were never transmitted",
                )
            fc, peer_fc = iface.fc, iface.peer.fc
            for cls in (0, 1, 2):
                outstanding = (peer_fc.rx_drained[cls]
                               + peer_fc.rx_held[cls])
                if fc.tx_consumed[cls] != outstanding:
                    self._violate(
                        "link.fc_credit_leak", iface.full_name,
                        f"at quiescence {fc.tx_consumed[cls]} "
                        f"{_FLOW_NAMES[cls]} credits were consumed but the "
                        f"peer accounts for {outstanding} "
                        f"(drained {peer_fc.rx_drained[cls]}, still held "
                        f"{peer_fc.rx_held[cls]})",
                    )

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"<InvariantChecker {state} "
                f"violations={len(self.violations)}>")
