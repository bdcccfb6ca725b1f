"""Shared benchmark configuration.

The paper's evaluation transfers single ``dd`` blocks of 64–512 MB.
The harness scales both the block sizes and the fixed startup cost
down by :data:`SCALE`; throughput depends on block size only through
the amortisation of fixed software costs, so the curve shape is
unchanged (see ``repro.workloads.dd``).  Reported block-size labels
stay in the paper's units.

The scale dates from when simulating half a gigabyte packet by packet
was unaffordable.  It no longer is: the block layer fast-forwards
repeated requests, so a point's cost no longer grows with its block
size.  :data:`SCALE` now only keeps the committed figure payloads
stable, and dropping it, which moves them in the fourth digit, is a
separate change.

The simulated machines' calibration (service interval, ACK policy,
datapath scope, ...) lives in the presets of :mod:`repro.system.spec`;
this module holds only the workload side: block sizes, dd's startup
cost and the paper's swept values.
"""

from repro.sim import ticks

# Block sizes are divided by this factor relative to the paper's.
SCALE = 64

#: Paper block sizes (labels) -> simulated bytes.
BLOCK_SIZES = {
    "64MB": (64 << 20) // SCALE,
    "128MB": (128 << 20) // SCALE,
    "256MB": (256 << 20) // SCALE,
    "512MB": (512 << 20) // SCALE,
}

#: dd's fixed startup cost on the paper's machine, scaled with the
#: block size so amortisation matches (≈ 29 ms unscaled).
DD_STARTUP = ticks.from_us(29_000 // SCALE)

# Sweep points straight from the paper.
SWITCH_LATENCIES_NS = (50, 100, 150)
LINK_WIDTHS = (1, 2, 4, 8)
REPLAY_BUFFER_SIZES = (1, 2, 3, 4)
PORT_BUFFER_SIZES = (16, 20, 24, 28)
RC_LATENCIES_NS = (50, 75, 100, 125, 150)
