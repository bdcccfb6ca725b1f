"""Multi-flow traffic engine.

The paper validates its model against single-stream ``dd`` transfers,
but its purpose is *future system exploration* — concurrent initiators
contending at shared switch uplinks.  This module drives N concurrent
**flows** against any :class:`~repro.system.spec.TopologySpec` fabric:

* each flow has its own initiator device, request shape (count, size,
  burst length), pacing (inter-burst gap with seeded jitter) and start
  offset;
* flows interleave deterministically through the event queue — same
  spec, same seeds, same fabric ⇒ byte-identical stats and traces;
* per-flow statistics (requests, bytes, and a
  :class:`~repro.sim.stats.Quantiles` of per-request latency) land in
  the simulator's stats tree under ``traffic.<flow>``, so they export
  and golden-compare like any other stat.

Flow kinds map onto the library's initiators:

=============  ====================================================
kind           what one request does
=============  ====================================================
``dd_read``    block-layer read of ``bytes_per_request`` from a disk
``dd_write``   block-layer write of the same shape
``nic_tx``     transmit one frame (optionally loopback to RX)
``mmio_read``  one timed 4-byte register read (latency probe)
``irq_storm``  raise one device interrupt (MSI/INTx pressure)
``accel_copy`` one accelerator memory-to-memory copy
=============  ====================================================

:class:`FlowSpec` is pure data (canonical-JSON-safe like the topology
specs); :class:`TrafficEngine` binds specs to a built
:class:`~repro.system.topology.PcieSystem` and spawns one kernel
process per flow.  The scenario library
(:mod:`repro.workloads.scenarios`) pairs flow lists with topologies
under stable names.
"""

import numbers
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.sim import ticks
from repro.sim.eventq import proxy
from repro.sim.process import Delay, Process, WaitFor
from repro.sim.simobject import SimObject
from repro.sim.stats import StatGroup
from repro.system.spec import Record

#: Flow kinds the engine can drive (see module docstring table).
FLOW_KINDS = ("dd_read", "dd_write", "nic_tx", "mmio_read", "irq_storm",
              "accel_copy")

#: Kinds that move payload bytes (the denominators of fairness shares).
DATA_KINDS = ("dd_read", "dd_write", "nic_tx", "accel_copy")

#: Base of the per-flow DRAM buffer carve-out (inside the VExpress DRAM
#: range, clear of the kernel's descriptor rings at 0x8100_0000).
BUFFER_BASE = 0x9000_0000
#: Address stride between flow buffers — 16 MB each, disjoint.
BUFFER_STRIDE = 0x0100_0000


class TrafficError(ValueError):
    """An inconsistent flow specification or flow/fabric mismatch."""


class FlowSpec(Record):
    """Declarative description of one traffic flow.

    Args:
        name: unique flow name (becomes the stats child group and the
            kernel process name).
        kind: one of :data:`FLOW_KINDS`.
        device: instance name of the initiator device in the fabric
            (``PcieSystem.devices`` key).
        requests: number of requests the flow issues.
        bytes_per_request: payload bytes per request (data kinds only;
            probes move a fixed 4 bytes, interrupts none).
        gap: inter-burst idle time in ticks (0 = saturating).
        jitter: fractional jitter on ``gap`` — each gap is drawn
            uniformly from ``gap * [1-jitter, 1+jitter]`` using the
            flow's own seeded RNG.
        burst: requests issued back-to-back between gaps.
        seed: seed of the flow's private RNG (jitter draws only, so
            equal seeds never couple two flows' data).
        start_delay: ticks before the flow's first request.
        loopback: ``nic_tx`` only — enable MAC loopback and require
            every transmitted frame to return on RX.
        mmio_offset: ``mmio_read`` only — BAR0 offset probed; the
            4-byte read must lie inside the device's BAR0.
    """

    what = "flow"
    error = TrafficError
    #: Integer fields and their least legal value (None: any int).
    INT_FIELDS = {"requests": 1, "bytes_per_request": 1, "gap": 0,
                  "burst": 1, "seed": None, "start_delay": 0,
                  "mmio_offset": 0}

    name: str
    kind: str
    device: str
    requests: int = 8
    bytes_per_request: int = 4096
    gap: int = 0
    jitter: float = 0.0
    burst: int = 1
    seed: int = 1
    start_delay: int = 0
    loopback: bool = False
    mmio_offset: int = 0x8

    def validate(self) -> None:
        """Check the flow spec in isolation (fabric checks happen when
        the engine binds it); a bad field raises :class:`TrafficError`
        naming it."""
        for field in ("name", "kind", "device"):
            value = getattr(self, field)
            self._require(field, isinstance(value, str) and value != "",
                          "a non-empty string")
        if self.kind not in FLOW_KINDS:
            raise TrafficError(f"{self.where}: unknown kind {self.kind!r} "
                               f"(expected one of {FLOW_KINDS})")
        for field, least in self.INT_FIELDS.items():
            value = getattr(self, field)
            self._require(field, type(value) is int
                          and (least is None or value >= least),
                          "an int" if least is None else f"an int >= {least}")
        jitter = self.jitter
        self._require("jitter", isinstance(jitter, numbers.Real)
                      and not isinstance(jitter, bool)
                      and 0.0 <= jitter <= 1.0, "a real number in [0, 1]")
        self._require("loopback", isinstance(self.loopback, bool), "a bool")
        if self.loopback and self.kind != "nic_tx":
            raise TrafficError(
                f"{self.where}: loopback is only valid for nic_tx")

    def _require(self, field: str, ok: bool, what: str) -> None:
        if not ok:
            raise TrafficError(f"{self.where}: {field} must be {what}, "
                               f"got {getattr(self, field)!r}")

    def __repr__(self) -> str:
        return f"<FlowSpec {self.kind} {self.name!r} -> {self.device}>"


class _FlowState:
    """Runtime bookkeeping the engine keeps per flow."""

    def __init__(self, spec: FlowSpec, driver, device, stats: StatGroup,
                 buffer_addr: int):
        self.spec = spec
        self.driver = driver
        self.device = device
        self.buffer_addr = buffer_addr
        self.rng = random.Random(spec.seed)
        self.process: Optional[Process] = None
        self.first_issue_tick: Optional[int] = None
        self.last_complete_tick: Optional[int] = None
        self.requests_issued = stats.scalar(
            "requests_issued", "requests handed to the initiator")
        self.requests_completed = stats.scalar(
            "requests_completed", "requests whose completion was observed")
        self.bytes_moved = stats.scalar(
            "bytes_moved", "payload bytes moved by completed requests")
        self.request_ticks = stats.quantiles(
            "request_ticks", "issue-to-completion latency per request")


class TrafficEngine(SimObject):
    """Drive a set of :class:`FlowSpec` flows against a built system.

    Args:
        system: the :class:`~repro.system.topology.PcieSystem` to load,
            held weakly: keep it while the engine runs or reports.
        flows: flow specs; validated against each other and the fabric
            at construction time, so a bad scenario fails before any
            event runs.
        name: SimObject name (stats prefix).
    """

    #: Kinds that require exclusive ownership of their device (their
    #: drivers hold single-request state; MMIO probes may share).
    EXCLUSIVE_KINDS = ("dd_read", "dd_write", "nic_tx", "irq_storm",
                      "accel_copy")

    def __init__(self, system, flows: Sequence[FlowSpec], name: str = "traffic"):
        # Flow-list shape is checked before the engine registers itself,
        # so a rejected scenario leaves the simulator registry untouched
        # (full names are unique; a corpse would block the next attempt).
        flows = list(flows)
        if not flows:
            raise TrafficError("traffic engine needs at least one flow")
        names = [spec.name for spec in flows]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TrafficError(f"duplicate flow names: {dupes}")
        super().__init__(system.sim, name)
        self.system = proxy(system)  # the system's simulator owns the engine
        self.flows: List[FlowSpec] = flows
        self._states: Dict[str, _FlowState] = {}
        #: Tick at which :meth:`start` spawned the flows (plain state,
        #: not a stat: flow start delays count from here).
        self.start_tick: Optional[int] = None
        self._validate_and_bind()

    # -- validation ---------------------------------------------------------
    def _validate_and_bind(self) -> None:
        owners: Dict[str, str] = {}
        for index, spec in enumerate(self.flows):
            spec.validate()
            if spec.device not in self.system.devices:
                raise TrafficError(
                    f"flow {spec.name!r}: no device {spec.device!r} in this "
                    f"fabric (have: {', '.join(sorted(self.system.devices))})")
            device = self.system.devices[spec.device]
            driver = self.system.drivers.get(spec.device)
            self._check_capability(spec, device, driver)
            if spec.kind in self.EXCLUSIVE_KINDS:
                if spec.device in owners:
                    raise TrafficError(
                        f"flows {owners[spec.device]!r} and {spec.name!r} "
                        f"both need exclusive use of device {spec.device!r} "
                        f"(only mmio_read flows may share)")
                owners[spec.device] = spec.name
            stats = self.stats.add_child(StatGroup(spec.name))
            self._states[spec.name] = _FlowState(
                spec, driver, device, stats,
                BUFFER_BASE + index * BUFFER_STRIDE)

    @staticmethod
    def _check_capability(spec: FlowSpec, device, driver) -> None:
        needs = {
            "dd_read": "start_request", "dd_write": "start_request",
            "nic_tx": "transmit", "accel_copy": "start_copy",
            "mmio_read": "bar0",
        }.get(spec.kind)
        if spec.kind == "irq_storm":
            if not hasattr(device, "raise_interrupt"):
                raise TrafficError(
                    f"flow {spec.name!r}: device {spec.device!r} cannot "
                    f"raise interrupts")
            return
        if driver is None or not hasattr(driver, needs):
            raise TrafficError(
                f"flow {spec.name!r}: device {spec.device!r} has no driver "
                f"with {needs!r} — wrong device kind for {spec.kind!r}?")
        if needs == "start_request" and (
                spec.bytes_per_request % driver.sector_size):
            raise TrafficError(
                f"flow {spec.name!r}: bytes_per_request "
                f"{spec.bytes_per_request} is not a multiple of "
                f"{spec.device!r}'s {driver.sector_size}-byte sector")
        if needs == "bar0" and spec.mmio_offset + 4 > device.BARS[0].size:
            raise TrafficError(
                f"flow {spec.name!r}: mmio_offset {spec.mmio_offset:#x} "
                f"puts its 4-byte read past {spec.device!r}'s "
                f"{device.BARS[0].size:#x}-byte BAR0")

    # -- execution ----------------------------------------------------------
    def start(self) -> None:
        """Spawn one kernel process per flow (call once, before run)."""
        if self.start_tick is not None:
            raise TrafficError("traffic engine already started")
        self.start_tick = self.curtick
        kernel = self.system.kernel
        for spec in self.flows:
            state = self._states[spec.name]
            state.process = kernel.spawn(
                f"flow_{spec.name}", self._run_flow(state),
                start_delay=spec.start_delay)

    def _next_gap(self, state: _FlowState) -> int:
        spec = state.spec
        if spec.gap <= 0:
            return 0
        if spec.jitter <= 0.0:
            return spec.gap
        scale = 1.0 - spec.jitter + 2.0 * spec.jitter * state.rng.random()
        return max(0, round(spec.gap * scale))

    def _run_flow(self, state: _FlowState):
        spec = state.spec
        issue = getattr(self, f"_issue_{spec.kind}")
        prepared = yield from self._prepare(state)
        for index in range(spec.requests):
            if index > 0 and index % spec.burst == 0:
                gap = self._next_gap(state)
                if gap > 0:
                    yield Delay(gap)
            if state.first_issue_tick is None:
                state.first_issue_tick = self.curtick
            issued_at = self.curtick
            state.requests_issued.inc()
            moved = yield from issue(state, index, prepared)
            state.request_ticks.sample(self.curtick - issued_at)
            state.requests_completed.inc()
            state.bytes_moved.inc(moved)
            state.last_complete_tick = self.curtick

    def _prepare(self, state: _FlowState):
        """Per-flow one-time setup (NIC bring-up); returns opaque state
        handed to every issue call."""
        if state.spec.kind == "nic_tx":
            yield from state.driver.bring_up()
            if state.spec.loopback:
                yield from state.driver.enable_loopback()
        return None
        yield  # pragma: no cover - makes this a generator when the body is empty

    # Each _issue_* is a generator completing one request and returning
    # the payload bytes it moved.
    def _issue_dd_read(self, state, index, prepared):
        return (yield from self._issue_dd(state, index, is_write=False))

    def _issue_dd_write(self, state, index, prepared):
        return (yield from self._issue_dd(state, index, is_write=True))

    def _issue_dd(self, state, index, is_write):
        kernel = self.system.kernel
        sector = state.driver.sector_size
        n_sectors = state.spec.bytes_per_request // sector
        lba = index * n_sectors
        if is_write:
            yield from kernel.block_layer.write(
                state.driver, lba, n_sectors, state.buffer_addr)
        else:
            yield from kernel.block_layer.read(
                state.driver, lba, n_sectors, state.buffer_addr)
        return n_sectors * sector

    def _issue_nic_tx(self, state, index, prepared):
        length = state.spec.bytes_per_request
        rx_done = None
        if state.spec.loopback:
            rx_done = state.driver.post_rx_buffer(
                state.buffer_addr + BUFFER_STRIDE // 2, length)
        tx_done = yield from state.driver.transmit(state.buffer_addr, length)
        yield WaitFor(tx_done)
        if rx_done is not None:
            yield WaitFor(rx_done)
        return length

    def _issue_mmio_read(self, state, index, prepared):
        cpu = self.system.kernel.cpu
        addr = state.driver.bar0 + state.spec.mmio_offset
        yield from cpu.timed_read(addr, 4)
        return 4

    def _issue_irq_storm(self, state, index, prepared):
        state.device.raise_interrupt()
        return 0
        yield  # pragma: no cover - interrupts post asynchronously

    def _issue_accel_copy(self, state, index, prepared):
        nbytes = state.spec.bytes_per_request
        done = yield from state.driver.start_copy(
            state.buffer_addr, state.buffer_addr + BUFFER_STRIDE // 2, nbytes)
        yield WaitFor(done)
        return nbytes

    # -- results ------------------------------------------------------------
    @property
    def completed(self) -> bool:
        """True once every flow's process has run to completion."""
        return all(state.process is not None and state.process.done
                   for state in self._states.values())

    def results(self) -> Dict[str, Any]:
        """Per-flow summary plus the Jain's-fairness-index headline.

        The fairness index is computed over the *throughputs* of the
        data-moving flows (``(Σx)² / (n·Σx²)``: 1.0 = perfectly fair,
        1/n = one flow starves all others); probe and interrupt flows
        are excluded since they move no payload.
        """
        flows: Dict[str, Any] = {}
        data_rates: List[float] = []
        total_gbps = 0.0
        for spec in self.flows:
            state = self._states[spec.name]
            elapsed = 0
            if (state.first_issue_tick is not None
                    and state.last_complete_tick is not None):
                elapsed = state.last_complete_tick - state.first_issue_tick
            nbytes = state.bytes_moved.value()
            gbps = (ticks.bytes_per_tick_to_gbps(nbytes / elapsed)
                    if elapsed > 0 else 0.0)
            latency = state.request_ticks
            flows[spec.name] = {
                "kind": spec.kind,
                "device": spec.device,
                "requests_issued": state.requests_issued.value(),
                "requests_completed": state.requests_completed.value(),
                "bytes": nbytes,
                "elapsed_ticks": elapsed,
                "finish_tick": state.last_complete_tick,
                "throughput_gbps": gbps,
                "mean_ns": ticks.to_ns(latency.mean),
                "p50_ns": ticks.to_ns(latency.percentile(0.50)),
                "p99_ns": ticks.to_ns(latency.percentile(0.99)),
                "p999_ns": ticks.to_ns(latency.percentile(0.999)),
            }
            if spec.kind in DATA_KINDS:
                data_rates.append(gbps)
                total_gbps += gbps
        for spec in self.flows:
            record = flows[spec.name]
            record["share"] = (record["throughput_gbps"] / total_gbps
                               if total_gbps > 0 else 0.0)
        return {
            "flows": flows,
            "fairness_index": jain_fairness(data_rates),
            "total_gbps": total_gbps,
            "completed": self.completed,
        }


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over ``values``.

    1.0 when all values are equal, 1/n when one value dominates; 0.0
    for an empty or all-zero input (no allocation to be fair about).
    """
    values = [float(v) for v in values]
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)
