"""The ``dd`` workload.

The paper benchmarks with ``dd`` reading a single block (64–512 MB)
from the storage device into ``/dev/zero`` with direct I/O — a simple
I/O-intensive program that floods the device with sequential reads, so
when the device's internal bandwidth exceeds the link's, the
PCI-Express interconnect is the measured bottleneck.

The model: a fixed startup cost (process exec, ``open(O_DIRECT)``,
buffer setup — the fixed software cost whose amortisation makes
throughput grow with block size), then one synchronous block-layer read
of the whole block, then the throughput report.  Writing to
``/dev/zero`` costs nothing, as on a real machine.

Benchmarks scale block size and startup cost down by a common factor,
which leaves the throughput-vs-blocksize curve unchanged (both the
numerator and the fixed term shrink together).  Speed is no longer the
reason: the block layer fast-forwards the repeated requests of a long
block, so even the paper's half-gigabyte blocks simulate in seconds.
"""

from typing import Optional

from repro.sim import ticks
from repro.sim.process import Delay


class DdResult:
    """What ``dd`` prints at the end: bytes moved and the elapsed time."""

    def __init__(self, nbytes: int, elapsed_ticks: int, transfer_ticks: int):
        self.nbytes = nbytes
        self.elapsed_ticks = elapsed_ticks
        self.transfer_ticks = transfer_ticks

    @property
    def throughput_gbps(self) -> float:
        """End-to-end throughput including startup — what dd reports."""
        return self.nbytes * 8 / ticks.to_ns(self.elapsed_ticks)

    @property
    def transfer_gbps(self) -> float:
        """Throughput of the transfer phase alone."""
        return self.nbytes * 8 / ticks.to_ns(self.transfer_ticks)

    def __repr__(self) -> str:
        mb = self.nbytes / (1 << 20)
        return (
            f"<DdResult {mb:.0f}MB in {ticks.to_ms(self.elapsed_ticks):.2f}ms "
            f"= {self.throughput_gbps:.2f} Gbps>"
        )


class DdWorkload:
    """``dd if=/dev/disk of=/dev/zero bs=<block_size> count=1 iflag=direct``.

    Args:
        kernel: the OS kernel (supplies the block layer).
        driver: the bound block-device driver.
        block_size: bytes per block.
        count: blocks to copy (the paper uses 1).
        buffer_addr: DRAM address of the direct-I/O buffer.
        startup_overhead: fixed software cost before the transfer.
    """

    def __init__(
        self,
        kernel,
        driver,
        block_size: int,
        count: int = 1,
        buffer_addr: int = 0x9000_0000,
        startup_overhead: int = ticks.from_us(500),
    ):
        sector = driver.sector_size
        if block_size % sector:
            raise ValueError(f"block size must be a multiple of {sector}-byte sectors")
        self.kernel = kernel
        self.driver = driver
        self.block_size = block_size
        self.count = count
        self.buffer_addr = buffer_addr
        self.startup_overhead = startup_overhead
        self.result: Optional[DdResult] = None

    def run(self):
        """The process generator: spawn with ``kernel.spawn``."""
        start = self.kernel.curtick
        yield Delay(self.startup_overhead)
        transfer_start = self.kernel.curtick
        sectors_per_block = self.block_size // self.driver.sector_size
        for block in range(self.count):
            yield from self.kernel.block_layer.read(
                self.driver,
                lba=block * sectors_per_block,
                n_sectors=sectors_per_block,
                buffer_addr=self.buffer_addr,
            )
        now = self.kernel.curtick
        self.result = DdResult(
            nbytes=self.block_size * self.count,
            elapsed_ticks=now - start,
            transfer_ticks=now - transfer_start,
        )
        return self.result
