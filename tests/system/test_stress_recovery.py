"""Worst-case link-recovery test (the campaign's hardest corner).

Combined TLP and DLLP corruption with a single-entry replay buffer and
input queue forces every recovery path at once — NAK-triggered
replays, timeout-triggered replays of lost ACKs, and source throttling
— while the runtime invariant checker (armed in raise mode) proves the
link layer never breaks a protocol rule getting through it.
"""

from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload

BLOCK_BYTES = 64 * 1024


def test_worst_case_recovery_completes_with_zero_violations():
    system = build_system(validation_spec(error_rate=0.2, dllp_error_rate=0.1,
                                          replay_buffer_size=1,
                                          input_queue_size=1),
                          check=True)
    dd = DdWorkload(system.kernel, system.drivers["disk"], BLOCK_BYTES)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=50_000_000)

    assert process.done, "dd wedged under worst-case fault injection"
    assert system.sim.checker.violations == []
    assert dd.result.throughput_gbps > 0.0

    # The run really exercised the recovery machinery on the error-prone
    # fabric, not a lucky clean path.
    disk, root = system.links["disk"], system.links["root"]
    ifaces = [disk.upstream_if, disk.downstream_if,
              root.upstream_if, root.downstream_if]
    assert sum(i.corrupted.value() for i in ifaces) > 0
    assert sum(i.dllp_corrupted.value() for i in ifaces) > 0
    assert sum(i.tlp_replays.value() for i in ifaces) > 0
    assert sum(i.timeouts.value() for i in ifaces) > 0
    # Quiescence: nothing stranded anywhere in the link layer.
    for iface in ifaces:
        assert not iface.replay_buffer
        assert not iface.input_queue
        assert not iface.dllp_queue
