"""A memory budget for one built machine.

What the call budget in ``tests/sim/test_hot_path_budget.py`` does for
interpreter work, this does for memory: the bytes ``tracemalloc`` sees
one ``build_system`` of the depth-4 fan-out-2 timer-ACK MSI fabric
retain.  A dead machine is cyclic garbage until the collector runs, so
a sweep or benchmark that builds many of them pays this per machine in
peak RSS.  Like the call count, the byte count repeats from run to run
(on one interpreter version), so the ceiling is the measurement plus
10 %.

It also pins how the link's lazily built error-injection RNG stays
invisible: an error-free link never builds one, and its checkpoint
state is still the fresh seed's, so checkpoint documents and digests
do not change.
"""

import gc
import tracemalloc

from repro.pcie.link import PcieLink
from repro.sim.simobject import Simulator
from repro.system.spec import LinkSpec, deep_hierarchy_spec
from repro.system.topology import build_system

from benchmarks.perf.layers import _LinkDriver, _LinkSink

#: Bytes one depth-4 fan-out-2 machine retains after ``build_system``:
#: 614,020 measured on CPython 3.11 (880,188 before the link queues
#: became lists, the RNG lazy and the config write masks sparse), plus
#: 10 %.
MACHINE_BYTES_CEILING = 675_000


def _machine_bytes():
    spec = deep_hierarchy_spec(4, 2, ack_policy="timer", enable_msi=True)
    build_system(spec, check=False)  # fill process-wide memos first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = build_system(spec, check=False)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert system.spec is not None
    return retained


def test_deep4_machine_within_memory_budget():
    assert _machine_bytes() <= MACHINE_BYTES_CEILING


def test_error_free_link_builds_no_rng():
    sim = Simulator("footprint", check=False)
    link = PcieLink.from_spec(sim, "link", LinkSpec(gen="GEN2", width=1))
    driver = _LinkDriver(sim, link, 40)
    sink = _LinkSink(sim, link)
    driver.pump()
    sim.run()
    assert sink.received == 40
    for iface in (link.upstream_if, link.downstream_if):
        assert iface._rng is None
        assert iface.state_dict()["rng"] is None


def test_lossy_link_builds_its_rng_on_first_draw():
    sim = Simulator("footprint", check=False)
    link = PcieLink.from_spec(sim, "link", LinkSpec(
        gen="GEN2", width=1, error_rate=0.1))
    driver = _LinkDriver(sim, link, 40)
    _LinkSink(sim, link)
    driver.pump()
    sim.run()
    # Only the receiving end of the TLPs drew; the other end received
    # nothing but DLLPs and has no DLLP error rate.
    assert link.downstream_if._rng is not None
    assert link.upstream_if._rng is None
