"""Byte-identity battery: every registered backend vs the ``reference`` spec.

The backend contract (:mod:`repro.sim.backend`) is that the engine is
unobservable: the same statistics document (final tick and event count
included), the same checkpoint digest, and the same trace bytes as the
plain binary heap.  Every case runs one scenario under the backend
being judged and again under ``reference``, each in a fresh simulator,
and compares the artifacts byte for byte.

The scenarios are the ones that have caught ordering bugs before:
link-level bursts that saturate, hit a component-refusal boundary or
strictly alternate; deep MSI fabrics with concurrent flows, where
same-tick events from different subtrees must dispatch in insertion
order; and the golden validation-fabric runs with fault injection on
both TLPs and DLLPs.
"""

import json

import pytest

from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, SlavePort
from repro.obs.stats_export import export_stats
from repro.pcie.link import PcieLink
from repro.pcie.timing import PcieGen
from repro.sim.backend import BACKEND_ENV, backend_names
from repro.sim.checkpoint import checkpoint_digest
from repro.sim.simobject import SimObject, Simulator
from repro.system.spec import deep_hierarchy_spec
from repro.workloads.scenarios import Scenario
from repro.workloads.scenarios import run_scenario as run_traffic_scenario
from repro.workloads.traffic import FlowSpec

from benchmarks.core_perf import _LinkDriver, _LinkSink
from tests.golden.scenario import run_scenario as run_golden_scenario

#: ``reference`` against itself says nothing about the contract.
BACKENDS = [name for name in backend_names() if name != "reference"]


# ------------------------------------------------------ link-level drivers


class _ThrottledSink(SimObject):
    """Accepts ``burst`` TLPs, refuses, then retries after ``delay``.

    Drives the link across the component-refusal boundary: refused TLPs
    wait in the RX buffer, credits stop returning, and the retry resumes
    the drain at a tick no link event is scheduled for.
    """

    def __init__(self, sim, link, burst=3, delay=5_000_000):
        super().__init__(sim, "sink")
        self.received = 0
        self.burst = burst
        self.delay = delay
        self._credit = burst
        self.port = SlavePort(self, "port", recv_timing_req=self._accept,
                              recv_resp_retry=lambda: None)
        self.port.bind(link.downstream_if.master_port)

    def _accept(self, pkt):
        if self._credit == 0:
            return False
        self._credit -= 1
        self.received += 1
        if self._credit == 0:
            self.schedule(self.delay, self._refill, name="refill")
        return True

    def _refill(self):
        self._credit = self.burst
        if self.port.retry_owed:
            self.port.send_retry_req()


class _PingDriver(SimObject):
    """Sends one MESSAGE, waits for the echo, sends the next: strictly
    serialized traffic in both directions, a zero-delay event per hop."""

    def __init__(self, sim, link, n_tlps):
        super().__init__(sim, "driver")
        self.remaining = n_tlps
        self.echoes = 0
        self.tx = MasterPort(self, "tx", recv_timing_resp=lambda pkt: True,
                             recv_req_retry=lambda: None)
        self.tx.bind(link.upstream_if.slave_port)
        self.rx = SlavePort(self, "rx", recv_timing_req=self._echo,
                            recv_resp_retry=lambda: None)
        self.rx.bind(link.upstream_if.master_port)

    def _echo(self, pkt):
        self.echoes += 1
        if self.remaining > 0:
            self.schedule(0, self.send_one, name="next")
        return True

    def send_one(self):
        if self.remaining <= 0:
            return
        self.remaining -= 1
        pkt = Packet(MemCmd.MESSAGE, 0x1000, 64, data=bytes(64),
                     requestor=self.full_name, create_tick=self.curtick)
        assert self.tx.send_timing_req(pkt)


class _EchoSink(SimObject):
    """Bounces every delivered TLP back upstream."""

    def __init__(self, sim, link):
        super().__init__(sim, "sink")
        self.received = 0
        self.rx = SlavePort(self, "rx", recv_timing_req=self._accept,
                            recv_resp_retry=lambda: None)
        self.rx.bind(link.downstream_if.master_port)
        self.tx = MasterPort(self, "tx", recv_timing_resp=lambda pkt: True,
                             recv_req_retry=lambda: None)
        self.tx.bind(link.downstream_if.slave_port)

    def _accept(self, pkt):
        self.received += 1
        self.schedule(0, self._bounce, name="bounce")
        return True

    def _bounce(self):
        pkt = Packet(MemCmd.MESSAGE, 0x2000, 64, data=bytes(64),
                     requestor=self.full_name, create_tick=self.curtick)
        assert self.tx.send_timing_req(pkt)


def _artifacts(sim):
    """Everything a backend may not change: the stats document (with
    ``curtick`` and ``events_processed``) and the checkpoint digest."""
    return (json.dumps(export_stats(sim), sort_keys=True),
            checkpoint_digest(sim.checkpoint()))


def _link_sim():
    sim = Simulator("identity")
    link = PcieLink(sim, "link", gen=PcieGen.GEN2, width=1,
                    ack_policy="immediate")
    return sim, link


def _run_burst(n_tlps, sink_cls):
    sim, link = _link_sim()
    driver = _LinkDriver(sim, link, n_tlps)
    sink = sink_cls(sim, link)
    driver.pump()
    sim.run(max_events=5_000_000)
    assert sink.received == n_tlps
    return _artifacts(sim)


def _run_ping_pong(n_tlps=400):
    sim, link = _link_sim()
    driver = _PingDriver(sim, link, n_tlps)
    _EchoSink(sim, link)
    driver.send_one()
    sim.run(max_events=5_000_000)
    assert driver.echoes == n_tlps
    return _artifacts(sim)


# --------------------------------------------------- deep MSI fabrics


def _four_flow_scenario():
    """Two readers and two writers, one per level of the depth-4
    fan-out-2 fabric, all contending for the root link."""
    topo = deep_hierarchy_spec(4, 2, enable_msi=True)
    flows = [
        FlowSpec(name=f"f{i}", kind="dd_write" if i % 2 else "dd_read",
                 device=f"sw{i + 1}_disk0", requests=6,
                 bytes_per_request=16384, seed=7 + i)
        for i in range(4)
    ]
    return Scenario(name="deep_msi", topology=topo, flows=flows)


def _dense_scenario():
    """Eight readers, two per level.  Replay-timer descheduling leaves
    far-future squashed keys beside live same-tick deliveries from both
    branches of every switch; an insert that mis-places one of them
    shifts an UpdateFC DLLP by 2000 ticks and moves five stats."""
    topo = deep_hierarchy_spec(4, 2, enable_msi=True)
    flows = [
        FlowSpec(name=f"r{i}", kind="dd_read",
                 device=f"sw{(i % 4) + 1}_disk{i // 4}",
                 requests=6, bytes_per_request=16384, seed=7 + i)
        for i in range(8)
    ]
    return Scenario(name="dense_msi", topology=topo, flows=flows)


def _run_fabric(scenario, check=None):
    system, engine = run_traffic_scenario(scenario, check=check)
    assert engine.completed
    return _artifacts(system.sim)


# ---------------------------------------------------------------- the tests


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("run", [
    pytest.param(lambda: _run_burst(120, _LinkSink), id="saturated_burst"),
    pytest.param(lambda: _run_burst(40, _ThrottledSink),
                 id="refusal_boundary"),
    pytest.param(_run_ping_pong, id="ping_pong"),
    pytest.param(lambda: _run_fabric(_four_flow_scenario()),
                 id="deep_four_flow", marks=pytest.mark.slow),
    pytest.param(lambda: _run_fabric(_four_flow_scenario(), check=True),
                 id="deep_four_flow_checked", marks=pytest.mark.slow),
    pytest.param(lambda: _run_fabric(_dense_scenario()),
                 id="dense_fanout", marks=pytest.mark.slow),
    # Trace bytes.  error_rate=0.2 exercises NAK/replay;
    # dllp_error_rate additionally corrupts the ACK and UpdateFC DLLPs,
    # arming the FC watchdogs.
    pytest.param(lambda: run_golden_scenario("dd_gen2x1", enable_msi=True),
                 id="golden_clean"),
    pytest.param(lambda: run_golden_scenario(
        "dd_gen2x1_err", enable_msi=True, dllp_error_rate=0.05),
        id="golden_dllp_errors"),
])
def test_matches_reference(backend, run, monkeypatch):
    # The system builders create their own Simulator, so the engine is
    # selected through the environment for every scenario alike.
    monkeypatch.setenv(BACKEND_ENV, backend)
    got = run()
    monkeypatch.setenv(BACKEND_ENV, "reference")
    assert got == run()
