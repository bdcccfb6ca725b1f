"""Per-class credit-based flow control (posted / non-posted / completion).

Real PCI-Express never lets a receiver drop a TLP for want of buffer
space.  Instead each receiver *advertises* how many TLPs of each
flow-control class it can hold — **posted** (memory writes, messages),
**non-posted** (reads, config accesses) and **completion** — during
link initialisation (InitFC), the transmitter *consumes* one credit per
TLP it sends, and the receiver *returns* credits with UpdateFC DLLPs as
its buffers drain.  Because the classes have independent credit pools a
flood of non-posted requests can never occupy the buffers that
completions need: completions always have a reserved path forward,
which is the property that makes PCIe deadlock-free by construction.

This module is the shared vocabulary for that machinery:

* :class:`FlowClass` — the three classes, an ``IntEnum`` whose values
  match the plain ints stamped on every :class:`~repro.mem.packet.Packet`
  at construction (``repro.mem.packet`` cannot import us — we import
  it — so the packet layer carries ints and this enum mirrors them);
* :class:`CreditLedger` — one transmit-side and one receive-side
  account per link interface: advertised limits, cumulative consumed
  counts, receive-buffer occupancy and cumulative drain counts, plus
  the per-class credit-stall clocks behind the
  ``fc_stall_ticks_{p,np,cpl}`` statistics.

Credit arithmetic is *cumulative*, exactly like ACK sequence numbers:
the transmitter tracks ``consumed[cls]`` (total TLPs ever sent in the
class) against ``limit[cls]`` (total the receiver has ever allowed) and
may send while ``consumed < limit``.  An UpdateFC therefore carries an
absolute limit, later UpdateFCs subsume earlier ones, and a corrupted
(discarded) UpdateFC is healed by any subsequent one — no credit is
ever lost permanently, mirroring how the spec's sequence numbers
survive lost ACKs.
"""

import enum

from repro.mem.packet import FLOW_CPL, FLOW_NP, FLOW_P


class FlowClass(enum.IntEnum):
    """The three PCI-Express flow-control classes.

    Values equal the module-level ints in :mod:`repro.mem.packet`
    (``FLOW_P``/``FLOW_NP``/``FLOW_CPL``) so a packet's ``flow_class``
    slot indexes per-class arrays directly and converts to this enum
    for display.
    """

    P = FLOW_P
    NP = FLOW_NP
    CPL = FLOW_CPL

    @property
    def label(self) -> str:
        """Lower-case stat/trace suffix: ``"p"``, ``"np"``, ``"cpl"``."""
        return _LABELS[self]


_LABELS = {FlowClass.P: "p", FlowClass.NP: "np", FlowClass.CPL: "cpl"}

#: All classes in array order — index with ``Packet.flow_class``.
ALL_CLASSES = (FlowClass.P, FlowClass.NP, FlowClass.CPL)


class CreditLedger:
    """Both sides of one interface's credit accounting.

    The *transmit* account gates what we may put on the wire:
    ``tx_limit[cls]`` is the peer's cumulative advertisement and
    ``tx_consumed[cls]`` our cumulative sends; headroom is their
    difference.  The *receive* account tracks our own buffers:
    ``rx_capacity[cls]`` slots advertised at link-up, ``rx_held[cls]``
    TLPs currently buffered, and ``rx_drained[cls]`` cumulative drains
    — the absolute limit we re-advertise is ``capacity + drained``.

    The ledger also owns the per-class stall clocks: :meth:`stall_begin`
    stamps the tick a class first blocks on zero headroom,
    :meth:`stall_end` accumulates the elapsed ticks when credits
    return.  The accumulated ``stall_ticks`` feed the link interface's
    ``fc_stall_ticks_{p,np,cpl}`` statistics so a replay-storm analysis
    can attribute backpressure to the starved class.
    """

    __slots__ = (
        "rx_capacity",
        "rx_held",
        "rx_drained",
        "tx_limit",
        "tx_consumed",
        "stall_ticks",
        "_stall_since",
    )

    def __init__(self, p_credits: int, np_credits: int, cpl_credits: int):
        self.rx_capacity = [p_credits, np_credits, cpl_credits]
        self.rx_held = [0, 0, 0]
        self.rx_drained = [0, 0, 0]
        # InitFC: the peer installs our capacities as its tx limits at
        # link-up; start our own tx account empty until it does.
        self.tx_limit = [0, 0, 0]
        self.tx_consumed = [0, 0, 0]
        self.stall_ticks = [0, 0, 0]
        self._stall_since = [-1, -1, -1]

    # -- transmit side ----------------------------------------------------
    def tx_headroom(self, cls: int) -> int:
        """Credits left to send in ``cls`` (cumulative limit − consumed)."""
        return self.tx_limit[cls] - self.tx_consumed[cls]

    def try_consume(self, cls: int) -> bool:
        """Spend one ``cls`` credit for a first-time TLP transmission;
        False (nothing spent) when the class has no headroom.

        Replays never call this: the credit was consumed when the TLP
        first went on the wire and the receiver's buffer slot is still
        (or again) accounted to it.
        """
        consumed = self.tx_consumed
        if consumed[cls] >= self.tx_limit[cls]:
            return False
        consumed[cls] += 1
        return True

    def advertise(self, cls: int, limit: int) -> bool:
        """Install a cumulative credit limit from InitFC/UpdateFC.

        Returns True when the limit advanced.  Limits are monotone —
        UpdateFC DLLPs can arrive coalesced or be discarded by injected
        corruption, and a stale (lower) limit must never claw back
        credits already granted.
        """
        if limit <= self.tx_limit[cls]:
            return False
        self.tx_limit[cls] = limit
        return True

    # -- receive side -----------------------------------------------------
    def rx_accept(self, cls: int) -> None:
        """Account an accepted TLP into the ``cls`` receive buffer."""
        self.rx_held[cls] += 1

    def rx_drain(self, cls: int) -> int:
        """A buffered TLP left the ``cls`` receive buffer (credit frees);
        returns the new cumulative limit (:meth:`rx_limit`)."""
        self.rx_held[cls] -= 1
        drained = self.rx_drained[cls] = self.rx_drained[cls] + 1
        return self.rx_capacity[cls] + drained

    def rx_limit(self, cls: int) -> int:
        """The cumulative limit our next UpdateFC advertises."""
        return self.rx_capacity[cls] + self.rx_drained[cls]

    # -- stall attribution ------------------------------------------------
    def stall_begin(self, cls: int, now: int) -> None:
        """Start ``cls``'s stall clock (idempotent while stalled)."""
        if self._stall_since[cls] < 0:
            self._stall_since[cls] = now

    def stall_end(self, cls: int, now: int) -> None:
        """Stop ``cls``'s stall clock and accumulate the elapsed ticks."""
        since = self._stall_since[cls]
        if since >= 0:
            self.stall_ticks[cls] += now - since
            self._stall_since[cls] = -1

    def stalled(self, cls: int) -> bool:
        """True while ``cls``'s stall clock is running."""
        return self._stall_since[cls] >= 0

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """Both accounts plus the stall clocks, as JSON-safe lists.

        ``rx_capacity`` is construction-time configuration and is *not*
        captured — the rebuilt twin already has it, and restoring into a
        ledger with different capacities would silently corrupt the
        cumulative arithmetic, so :meth:`load_state_dict` only overlays
        the dynamic accounts.
        """
        return {
            "rx_held": list(self.rx_held),
            "rx_drained": list(self.rx_drained),
            "tx_limit": list(self.tx_limit),
            "tx_consumed": list(self.tx_consumed),
            "stall_ticks": list(self.stall_ticks),
            "stall_since": list(self._stall_since),
        }

    def load_state_dict(self, state: dict) -> None:
        """Overlay captured credit accounts onto this (rebuilt) ledger."""
        self.rx_held = [int(v) for v in state["rx_held"]]
        self.rx_drained = [int(v) for v in state["rx_drained"]]
        self.tx_limit = [int(v) for v in state["tx_limit"]]
        self.tx_consumed = [int(v) for v in state["tx_consumed"]]
        self.stall_ticks = [int(v) for v in state["stall_ticks"]]
        self._stall_since = [int(v) for v in state["stall_since"]]
