"""Memory-system substrate.

The Python stand-in for gem5's memory system: packets
(:mod:`repro.mem.packet`), the timing-port protocol with retries
(:mod:`repro.mem.port`), address ranges (:mod:`repro.mem.addr`),
the crossbar (:mod:`repro.mem.xbar`), the bridge between two buses
(:mod:`repro.mem.bridge`), a DMA-coherency IOCache
(:mod:`repro.mem.iocache`) and a simple DRAM controller
(:mod:`repro.mem.dram`).  Each model's timing and sizes are constants
of its module, not constructor keywords: the paper varies only
PCI-Express knobs, and those live in the spec records.

Everything the paper's PCI-Express model touches in gem5 is reproduced
here with the same semantics — in particular the *retry* flow control
(a receiver may refuse a packet and later call back with a retry),
which is what makes buffer backpressure, and therefore the paper's
x8-link collapse, emerge naturally.
"""

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, SlavePort, PacketQueue
from repro.mem.xbar import NoncoherentXBar
from repro.mem.bridge import Bridge
from repro.mem.dram import SimpleMemory
from repro.mem.iocache import IOCache

__all__ = [
    "AddrRange",
    "MemCmd",
    "Packet",
    "MasterPort",
    "SlavePort",
    "PacketQueue",
    "NoncoherentXBar",
    "Bridge",
    "SimpleMemory",
    "IOCache",
]
