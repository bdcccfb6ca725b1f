"""PCI-Express wire timing.

Everything here follows Table I of the paper and the PCI-Express base
specification:

* per-generation lane rates (2.5 / 5 / 8 Gbps) and encodings (8b/10b for
  Gen 1/2, 128b/130b for Gen 3);
* TLP overhead: 12 B header + 2 B sequence number + 4 B LCRC + 2 B
  framing = 20 B on the wire in addition to the payload;
* DLLP overhead: 6 B (type + content + CRC-16) + 2 B framing = 8 B;
* the replay-timer formula, in symbol times::

      ((MaxPayloadSize + TLPOverhead) / Width * AckFactor
        + InternalDelay) * 3 + RxL0sAdjustment

  with the AckFactor table from the specification, InternalDelay and
  RxL0sAdjustment both 0 (the paper models neither internal delay nor
  low-power states), and the ACK timer set to 1/3 of the replay value.

A *symbol time* is the time to move one byte across one lane, including
the encoding overhead: 4 ns for Gen 1, 2 ns for Gen 2, and
(130/128) ÷ 1 GB/s ≈ 1.016 ns for Gen 3.
"""

import enum
import functools
import math
from fractions import Fraction

from repro.sim import ticks

# Table I: TLP overheads (bytes added around the payload on the wire).
TLP_HEADER_BYTES = 12
TLP_SEQUENCE_BYTES = 2
TLP_LCRC_BYTES = 4
TLP_FRAMING_BYTES = 2
TLP_OVERHEAD_BYTES = (
    TLP_HEADER_BYTES + TLP_SEQUENCE_BYTES + TLP_LCRC_BYTES + TLP_FRAMING_BYTES
)

# A DLLP is 6 bytes (type, payload, CRC-16) plus 2 framing symbols.
DLLP_WIRE_BYTES = 8

# The spec's TLP overhead constant used *inside the replay-timer
# formula* (it assumes the larger 4-DW header plus digest).
REPLAY_FORMULA_TLP_OVERHEAD = 28

VALID_WIDTHS = (1, 2, 4, 8, 12, 16, 32)

#: Module-level transmission-tick memo, keyed by ``(gen, width)``.  Each
#: entry maps ``wire_bytes -> ticks`` and is *shared* by every
#: :class:`LinkTiming` with that geometry: a deep fabric builds hundreds
#: of links but only ever sees a handful of distinct (gen, width) pairs
#: and wire sizes, so one warm cache serves them all instead of every
#: interface re-deriving the same Fraction arithmetic.
_TX_TICKS_CACHE: dict = {}

#: Memoised exact symbol times per generation (``PcieGen.symbol_time_exact``
#: builds a Fraction on every property read; link construction wants a
#: plain dict hit).
_SYMBOL_TIME_CACHE: dict = {}


def _shared_tx_cache(gen: "PcieGen", width: int) -> dict:
    """The shared ``wire_bytes -> ticks`` memo for one link geometry."""
    cache = _TX_TICKS_CACHE.get((gen, width))
    if cache is None:
        cache = _TX_TICKS_CACHE[(gen, width)] = {}
    return cache


def _shared_symbol_time(gen: "PcieGen") -> Fraction:
    """Memoised exact symbol time for ``gen``."""
    cached = _SYMBOL_TIME_CACHE.get(gen)
    if cached is None:
        cached = _SYMBOL_TIME_CACHE[gen] = gen.symbol_time_exact
    return cached


class PcieGen(enum.Enum):
    """A PCI-Express generation: (megatransfers/s, encoded bits/byte).

    Both stored exactly (the encoding ratio as a :class:`Fraction`) so
    that wire times come out in exact integer ticks — 84 wire bytes on a
    Gen 2 x1 link is exactly 168 ns, never 168.000000001.
    """

    GEN1 = (2_500, Fraction(10))
    GEN2 = (5_000, Fraction(10))
    GEN3 = (8_000, Fraction(130, 16))  # 128b/130b: 130 bits per 16 bytes

    @property
    def mt_per_second(self) -> int:
        return self.value[0]

    @property
    def gt_per_second(self) -> float:
        return self.value[0] / 1000.0

    @property
    def encoded_bits_per_byte(self) -> Fraction:
        return self.value[1]

    @property
    def symbol_time_exact(self) -> Fraction:
        """Ticks (exact) to move one byte over one lane, encoding
        included: bits-per-byte / (bits-per-tick)."""
        bits_per_tick = Fraction(self.mt_per_second * 1_000_000, ticks.S)
        return self.encoded_bits_per_byte / bits_per_tick

    @property
    def symbol_time_ticks(self) -> float:
        return float(self.symbol_time_exact)

    @property
    def effective_gbps_per_lane(self) -> float:
        """Payload bit rate of one lane after encoding."""
        return float(self.gt_per_second * 8.0 / self.encoded_bits_per_byte)

    @property
    def speed_code(self) -> int:
        """Link-speed code used in the PCIe capability registers."""
        return {"GEN1": 1, "GEN2": 2, "GEN3": 3}[self.name]


# The AckFactor table from the PCI-Express base specification
# (max-payload-size rows × link-width columns).  Payloads below 128 B
# clamp to the 128 B row, as the paper does with its 64 B cache lines.
_ACK_FACTOR_TABLE = {
    128: {1: 1.4, 2: 1.4, 4: 1.4, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
    256: {1: 1.4, 2: 1.4, 4: 1.4, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
    512: {1: 1.4, 2: 1.4, 4: 1.4, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
    1024: {1: 2.4, 2: 2.4, 4: 2.4, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
    2048: {1: 1.8, 2: 1.8, 4: 1.8, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
    4096: {1: 1.5, 2: 1.5, 4: 1.5, 8: 2.5, 12: 3.0, 16: 3.0, 32: 3.0},
}


def ack_factor(max_payload: int, width: int) -> float:
    """The spec's AckFactor for a payload size and link width."""
    if width not in VALID_WIDTHS:
        raise ValueError(f"invalid link width x{width}")
    for row_payload in sorted(_ACK_FACTOR_TABLE):
        if max_payload <= row_payload:
            return _ACK_FACTOR_TABLE[row_payload][width]
    raise ValueError(f"max payload {max_payload} exceeds 4096 bytes")


@functools.lru_cache(maxsize=None)
def replay_timeout_ticks(gen: PcieGen, width: int, max_payload: int) -> int:
    """Replay-timer expiration per the spec formula, converted to ticks.

    InternalDelay and RxL0sAdjustment are zero, as in the paper.
    Memoised on its arguments, every input the formula reads: each link
    derives it three times (replay, ACK and watchdog periods) and a
    fabric's links share a handful of geometries.
    """
    symbols = (
        Fraction(max_payload + REPLAY_FORMULA_TLP_OVERHEAD, width)
        * Fraction(ack_factor(max_payload, width)).limit_denominator(100)
    ) * 3
    return max(1, math.ceil(symbols * _shared_symbol_time(gen)))


def ack_timer_ticks(gen: PcieGen, width: int, max_payload: int) -> int:
    """ACK-timer period: one third of the replay timeout (the paper)."""
    return max(1, replay_timeout_ticks(gen, width, max_payload) // 3)


def fc_watchdog_ticks(gen: PcieGen, width: int, max_payload: int) -> int:
    """Credit-stall watchdog period: twice the replay timeout.

    The PCIe spec obliges receivers to retransmit UpdateFC DLLPs
    periodically (at least every 30 µs) precisely so a corrupted,
    discarded UpdateFC cannot starve the transmitter forever.  Rather
    than streaming periodic DLLPs over idle links (which would defeat
    quiescence detection), the model arms this watchdog on the
    *transmitter* when it is credit-blocked with work pending; on
    expiry the peer re-advertises its current cumulative limits.  Two
    replay timeouts comfortably covers a full ACK/replay round trip, so
    the watchdog only fires when an UpdateFC genuinely went missing.
    """
    return 2 * replay_timeout_ticks(gen, width, max_payload)


class LinkTiming:
    """Wire timing of one link: a generation plus a lane count."""

    def __init__(self, gen: PcieGen, width: int):
        if width not in VALID_WIDTHS:
            raise ValueError(f"invalid link width x{width} (valid: {VALID_WIDTHS})")
        self.gen = gen
        self.width = width
        # transmission_ticks runs once per pcie-pkt and its exact
        # Fraction arithmetic is measurably hot; a run only ever sees a
        # handful of distinct wire sizes, so memoise per wire_bytes.
        # The memo lives at module level keyed by (gen, width): every
        # LinkTiming of the same geometry shares one warm cache instead
        # of rebuilding its own (deep fabrics construct hundreds).  It
        # is public so the link's per-packet send() can read a hit
        # without a call; only transmission_ticks() fills it.
        self._symbol_time = _shared_symbol_time(gen)
        self.tx_ticks_cache = _shared_tx_cache(gen, width)

    def transmission_ticks(self, wire_bytes: int) -> int:
        """Ticks a packet of ``wire_bytes`` occupies the link.

        Bytes are striped across the lanes, so the occupancy is
        ``ceil(bytes / width)`` symbol times.
        """
        cached = self.tx_ticks_cache.get(wire_bytes)
        if cached is not None:
            return cached
        symbols = -(-wire_bytes // self.width)
        result = max(1, math.ceil(symbols * self._symbol_time))
        self.tx_ticks_cache[wire_bytes] = result
        return result

    def tlp_wire_bytes(self, payload: int) -> int:
        return payload + TLP_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return f"<LinkTiming {self.gen.name} x{self.width}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinkTiming)
            and self.gen is other.gen
            and self.width == other.width
        )
