"""The ``pcie-pkt`` wrapper.

The paper: "Since we transmit both DLLPs and TLPs across the same link,
we create a new wrapper class, called pcie-pkt, to encapsulate both
DLLPs and TLPs.  A sequence number is assigned to a pcie-pkt
encapsulating a TLP prior to transmission.  Each pcie-pkt returns a size
depending on whether it encapsulates a TLP or a DLLP."

A :class:`PciePacket` therefore wraps either a memory packet (the TLP)
tagged with a data-link sequence number, or a DLLP.  DLLPs come in two
families: ACK/NAK carry the acknowledged data-link sequence number, and
the three UpdateFC types (one per flow-control class, see
:mod:`repro.pcie.fc`) carry a *cumulative credit limit* in the same
``seq`` field — both families are cumulative counters, so both coalesce
to the maximum when queued behind a busy transmitter.

TLP flow-class classification (posted / non-posted / completion) is
stamped on the wrapped :class:`~repro.mem.packet.Packet` at
construction; :attr:`PciePacket.flow_class` exposes it.
"""

import enum
from typing import Optional

from repro.mem.packet import Packet
from repro.pcie.fc import FlowClass
from repro.pcie.timing import DLLP_WIRE_BYTES, TLP_OVERHEAD_BYTES


class DllpType(enum.Enum):
    """Data-link-layer packet kinds.

    ``ACK``/``NAK`` acknowledge TLP sequence numbers; the ``UPDATE_FC_*``
    types return flow-control credits, carrying the cumulative per-class
    credit limit in the pcie-pkt's ``seq`` field.
    """

    ACK = "ack"
    NAK = "nak"
    UPDATE_FC_P = "updatefc_p"
    UPDATE_FC_NP = "updatefc_np"
    UPDATE_FC_CPL = "updatefc_cpl"


#: UpdateFC DllpType for each :class:`FlowClass`, in class order.
UPDATE_FC_FOR = (
    DllpType.UPDATE_FC_P,
    DllpType.UPDATE_FC_NP,
    DllpType.UPDATE_FC_CPL,
)

#: Inverse of :data:`UPDATE_FC_FOR`: DllpType -> flow-class int.
FLOW_CLASS_FOR_DLLP = {t: i for i, t in enumerate(UPDATE_FC_FOR)}


class PciePacket:
    """One unit of transmission on a unidirectional link."""

    __slots__ = ("tlp", "dllp_type", "seq", "is_replay")

    def __init__(
        self,
        tlp: Optional[Packet] = None,
        dllp_type: Optional[DllpType] = None,
        seq: int = -1,
    ):
        if (tlp is None) == (dllp_type is None):
            raise ValueError("a pcie-pkt wraps exactly one of a TLP or a DLLP")
        if dllp_type is not None and seq < -1:
            # seq == -1 is legal and means "nothing received yet" (it
            # acknowledges nothing); anything lower is a bug.
            raise ValueError("a DLLP must carry the sequence number it acknowledges")
        self.tlp = tlp
        self.dllp_type = dllp_type
        self.seq = seq
        # Marked when this transmission is a retransmission from the
        # replay buffer (statistics only).
        self.is_replay = False

    @classmethod
    def for_tlp(cls, tlp: Packet, seq: int) -> "PciePacket":
        """Wrap a TLP with its data-link sequence number."""
        return cls(tlp=tlp, seq=seq)

    @classmethod
    def ack(cls, seq: int) -> "PciePacket":
        """An ACK DLLP acknowledging every TLP up to ``seq``."""
        return cls(dllp_type=DllpType.ACK, seq=seq)

    @classmethod
    def nak(cls, seq: int) -> "PciePacket":
        """A NAK DLLP acknowledging up to ``seq``, rejecting the rest."""
        return cls(dllp_type=DllpType.NAK, seq=seq)

    @classmethod
    def update_fc(cls, flow_class: int, limit: int) -> "PciePacket":
        """An UpdateFC DLLP advertising a cumulative ``limit`` for
        ``flow_class`` (a :class:`FlowClass` or its int value)."""
        return cls(dllp_type=UPDATE_FC_FOR[flow_class], seq=limit)

    @property
    def is_tlp(self) -> bool:
        """True when this pcie-pkt wraps a TLP."""
        return self.tlp is not None

    @property
    def is_dllp(self) -> bool:
        """True when this pcie-pkt wraps a DLLP."""
        return self.dllp_type is not None

    @property
    def flow_class(self) -> FlowClass:
        """The wrapped TLP's flow-control class (TLP pcie-pkts only)."""
        return FlowClass(self.tlp.flow_class)

    def wire_bytes(self) -> int:
        """On-wire size per Table I (encoding cost lives in the symbol
        time, not here).  ``UnidirectionalLink.send`` inlines this
        expression on the per-packet path; keep the two in step."""
        if self.tlp is not None:
            return self.tlp.payload_size + TLP_OVERHEAD_BYTES
        return DLLP_WIRE_BYTES

    def __repr__(self) -> str:
        if self.is_tlp:
            replay = " replay" if self.is_replay else ""
            return f"<pcie-pkt TLP seq={self.seq}{replay} {self.tlp!r}>"
        return f"<pcie-pkt {self.dllp_type.value.upper()} seq={self.seq}>"
