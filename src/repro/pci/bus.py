"""A classic shared PCI bus (the Section II-A baseline).

Everything PCI-Express was designed to replace, modelled so the
PCI-vs-PCIe ablation has a real baseline:

* one **shared parallel bus**, 32 bits wide, clocked at 33 or 66 MHz;
* **no split transactions** — a master holds the bus through
  arbitration, the address phase, the target's wait states and the data
  phases.  If the target cannot supply the data within
  ``max_wait_states`` cycles it signals a *retry*: the master releases
  the bus and retries the whole transaction later, while the target
  completes it in the background (PCI's *delayed transactions*) — the
  mechanism behind the bus's notorious ~50 % efficiency;
* at most 12 electrical loads (devices) per bus;
* FIFO arbitration (a fair-enough stand-in for the central arbiter).

Masters attach through :meth:`attach_master`; targets through
:meth:`attach_target` with the address ranges they claim.
"""

import math
from collections import deque
from types import MethodType
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.mem.addr import AddrRange
from repro.mem.packet import Packet
from repro.mem.port import MasterPort, PortError, SlavePort
from repro.mem.xbar import _request_in
from repro.sim import ticks
from repro.sim.eventq import proxy
from repro.sim.simobject import SimObject, Simulator

MAX_PCI_LOADS = 12


class _Transaction:
    __slots__ = ("pkt", "src", "issued", "retries", "start", "completion")

    def __init__(self, pkt: Packet, src: SlavePort):
        self.pkt = pkt
        self.src = src
        self.issued = False  # request already forwarded to the target
        self.retries = 0
        self.start = 0  # tick this tenure of the bus began
        self.completion: Optional[Packet] = None


class PciBus(SimObject):
    """See module docstring.

    ``clock_mhz`` is :class:`repro.system.spec.ClassicPciSpec`'s field,
    which holds its default and its 33/66 MHz check.

    Args:
        width_bytes: data bus width (4 for 32-bit PCI).
        arbitration_cycles: bus cycles to win arbitration.
        max_wait_states: cycles a target may insert before it must
            signal retry.
        queue_depth: transactions a master may have pending with the
            arbiter before being refused.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "pci_bus",
        parent: Optional[SimObject] = None,
        *,
        clock_mhz: int,
        width_bytes: int = 4,
        arbitration_cycles: int = 2,
        max_wait_states: int = 8,
        queue_depth: int = 4,
    ):
        super().__init__(sim, name, parent)
        self.period = ticks.from_frequency_hz(clock_mhz * 1e6)
        self.width_bytes = width_bytes
        self.arbitration_cycles = arbitration_cycles
        self.max_wait_states = max_wait_states
        self.queue_depth = queue_depth

        self._masters: List[SlavePort] = []
        self._targets: List[MasterPort] = []
        self._target_ranges: Dict[MasterPort, Callable[[], List[AddrRange]]] = {}
        self._queue: Deque[_Transaction] = deque()
        self._busy = False
        # Completions that arrived from targets while the bus had
        # already disconnected the master (delayed transactions).
        self._completions: Dict[int, Packet] = {}
        self._waiting_completion: Dict[int, _Transaction] = {}

        self.transactions = self.stats.scalar("transactions", "completed transfers")
        self.retry_cycles = self.stats.scalar(
            "retry_cycles", "transactions bounced with target-retry"
        )
        self.busy_ticks = self.stats.scalar("busy_ticks", "ticks the bus was held")
        bus = proxy(self)  # the bus owns its stats: the formula's edge is weak
        self.stats.formula(
            "efficiency",
            lambda: (bus.transactions.value() or 0)
            and bus._useful_ticks / max(1, bus.busy_ticks.value()),
            "fraction of held bus time spent moving data",
        )
        self._useful_ticks = 0

    # -- wiring ------------------------------------------------------------
    def _check_loads(self) -> None:
        if len(self._masters) + len(self._targets) >= MAX_PCI_LOADS:
            raise PortError(
                f"{self.full_name}: a PCI bus supports at most "
                f"{MAX_PCI_LOADS} electrical loads"
            )

    def attach_master(self, name: str) -> SlavePort:
        """A port for a bus-mastering device to send requests into."""
        self._check_loads()
        port = SlavePort(self, name)
        port.recv_timing_req = MethodType(_request_in, port)
        port.recv_resp_retry = lambda: None  # masters always accept here
        self._masters.append(port)
        return port

    def attach_target(
        self, name: str,
        ranges: Optional[Callable[[], List[AddrRange]]] = None,
    ) -> MasterPort:
        """A port toward a target device; ``ranges`` overrides the
        peer's advertised address ranges when given."""
        self._check_loads()
        port = MasterPort(self, name)
        port.recv_timing_resp = self._recv_completion
        port.recv_req_retry = lambda: None
        self._targets.append(port)
        if ranges is not None:
            self._target_ranges[port] = ranges
        return port

    # -- arbitration -------------------------------------------------------------
    def _recv_request(self, src: SlavePort, pkt: Packet) -> bool:
        pending = sum(1 for t in self._queue if t.src is src)
        if pending >= self.queue_depth:
            return False
        self._queue.append(_Transaction(pkt, src))
        self._kick()
        return True

    def _kick(self) -> None:
        self._issue_retries()
        if self._busy or not self._queue:
            return
        self._busy = True
        transaction = self._queue.popleft()
        self.schedule(self.arbitration_cycles * self.period,
                      self._address_phase, transaction)

    def _issue_retries(self) -> None:
        for port in self._masters:
            if port.retry_owed:
                pending = sum(1 for t in self._queue if t.src is port)
                if pending < self.queue_depth:
                    port.send_retry_req()

    # -- transaction phases ----------------------------------------------------------
    def _find_target(self, addr: int) -> MasterPort:
        for port in self._targets:
            ranges_fn = self._target_ranges.get(port)
            ranges = ranges_fn() if ranges_fn else (
                port.peer.get_ranges() if port.peer else []
            )
            if any(addr in rng for rng in ranges):
                return port
        raise PortError(f"{self.full_name}: no target claims {addr:#x}")

    def _address_phase(self, transaction: _Transaction) -> None:
        transaction.start = self.curtick
        if not transaction.issued:
            target = self._find_target(transaction.pkt.addr)
            transaction.issued = True
            if transaction.pkt.needs_response:
                self._waiting_completion[transaction.pkt.req_id] = transaction
            accepted = target.send_timing_req(transaction.pkt)
            if not accepted:
                # Treat like a target-retry; the target owes us a port
                # retry we ignore — we re-arbitrate on a timer instead.
                transaction.issued = False
                self._waiting_completion.pop(transaction.pkt.req_id, None)
                self._bounce(transaction)
                return
        if not transaction.pkt.needs_response:
            # Posted write: data phases immediately after the address.
            self._data_phases(transaction, transaction.pkt)
            return
        completion = self._completions.pop(transaction.pkt.req_id, None)
        if completion is not None:
            self._data_phases(transaction, completion)
            return
        # Hold the bus in wait states until the deadline.
        deadline = self.max_wait_states * self.period
        self.schedule(self.period + deadline, self._deadline, transaction)

    def _deadline(self, transaction: _Transaction) -> None:
        completion = self._completions.pop(transaction.pkt.req_id, None)
        if completion is not None:
            self._data_phases(transaction, completion)
        else:
            self._bounce(transaction)

    def _bounce(self, transaction: _Transaction) -> None:
        """Target retry: release the bus, re-queue the master."""
        transaction.retries += 1
        self.retry_cycles.inc()
        self.busy_ticks.inc(self.curtick - transaction.start)
        self._queue.append(transaction)
        self._busy = False
        # Re-arbitrate after a polite masterhood gap.
        self.schedule(self.period, self._kick)

    def _data_cycles(self, pkt: Packet) -> int:
        return max(1, math.ceil(pkt.size / self.width_bytes))

    def _data_phases(self, transaction: _Transaction,
                     completion: Optional[Packet]) -> None:
        transaction.completion = completion
        self.schedule((1 + self._data_cycles(transaction.pkt)) * self.period,
                      self._finish, transaction)

    def _finish(self, transaction: _Transaction) -> None:
        """The last data phase ended: release the bus, answer the master."""
        pkt = transaction.pkt
        self.busy_ticks.inc(self.curtick - transaction.start)
        self._useful_ticks += self._data_cycles(pkt) * self.period
        self.transactions.inc()
        if transaction.completion is not None and pkt.needs_response:
            transaction.src.send_timing_resp(transaction.completion)
        self._busy = False
        self._kick()

    # -- checkpointing ----------------------------------------------------
    # The data-phase ticks behind ``efficiency``.
    state_fields = {"_useful_ticks": "accumulator"}
    in_flight = ("_busy", "_queue", "_completions", "_waiting_completion")

    # -- completions from targets ----------------------------------------------------
    def _recv_completion(self, pkt: Packet) -> bool:
        transaction = self._waiting_completion.pop(pkt.req_id, None)
        if transaction is None:
            return True  # stale
        self._completions[pkt.req_id] = pkt
        return True
