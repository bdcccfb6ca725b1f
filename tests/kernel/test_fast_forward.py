"""The block layer's fast-forward of repeated requests.

The oracle is the run with the proof switched off: every fast-forwarded
run must end with the same statistics document, final tick, event
count, next insertion sequence number and checkpoint digest as the run
that simulates every request.  The decline tests pin the cases where
the proof must not hold, and the horizon tests the runs that end, or
fail, inside the span that would be skipped.
"""

from unittest import mock

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.kernel.blockio import BlockLayer
from repro.kernel.kernel import KernelConfig
from repro.mem.port import PortError
from repro.obs.trace import MemorySink
from repro.sim.checkpoint import checkpoint_digest
from repro.system.spec import deep_hierarchy_spec
from repro.system.topology import (build_classic_pci_system, build_system,
                                   build_validation_system)

BUFFER = 0x9000_0000
SECTOR = 4096

#: Sectors per block-layer request in most tests: small requests keep
#: the full runs cheap, and eight of them are plenty to skip.
PER_REQUEST = 4


def _no_proof(self, cur, driver):
    return None


def _read(system, n_sectors, driver=None, lba=0, buffer_addr=BUFFER):
    """Spawn a process reading ``n_sectors`` through the block layer."""
    driver = driver or system.disk_driver

    def body():
        yield from system.kernel.block_layer.read(driver, lba, n_sectors,
                                                  buffer_addr)

    return system.kernel.spawn("reader", body())


def _outcome(system, checkpoint=True):
    sim = system.sim
    queue = sim.eventq
    return (sim.dump_stats(), queue.curtick, queue.events_processed,
            queue._next_seq,
            checkpoint_digest(sim.checkpoint()) if checkpoint else None)


def _both(scenario):
    """``scenario()`` fast-forwarded, then with the proof switched off."""
    fast = scenario()
    with mock.patch.object(BlockLayer, "_snapshot", _no_proof):
        full = scenario()
    return fast, full


_CONFIG = KernelConfig(max_sectors_per_request=PER_REQUEST)


def _classic():
    return build_classic_pci_system(check=False, kernel_config=_CONFIG)


def _gen2x1(**kwargs):
    return build_validation_system(root_link_width=1, device_link_width=1,
                                   check=False, kernel_config=_CONFIG,
                                   **kwargs)


# -- the oracle ---------------------------------------------------------------
_MACHINES = st.one_of(
    st.just(None),  # the classic PCI bus
    st.fixed_dictionaries({
        "depth": st.integers(1, 2),
        "fanout": st.integers(1, 2),
        "gen": st.sampled_from(["GEN1", "GEN2", "GEN3"]),
        "width": st.sampled_from([1, 2, 4, 8]),
        "root_link_width": st.sampled_from([1, 4, 8]),
        "buffer_size": st.sampled_from([4, 16, 28]),
        "replay_buffer_size": st.integers(1, 4),
        "ack_policy": st.sampled_from(["immediate", "timer"]),
        "enable_msi": st.booleans(),
    }),
)


@settings(max_examples=12, deadline=None)
@given(machine=_MACHINES, per_request=st.integers(1, 4),
       requests=st.integers(1, 12), partial=st.integers(0, 3))
def test_fast_forward_matches_the_full_run(machine, per_request, requests,
                                           partial):
    n_sectors = requests * per_request + partial % per_request
    config = KernelConfig(max_sectors_per_request=per_request)

    def scenario():
        if machine is None:
            system = build_classic_pci_system(check=False, kernel_config=config)
            driver = system.disk_driver
        else:
            system = build_system(deep_hierarchy_spec(**machine), check=False,
                                  kernel_config=config)
            driver = system.drivers[
                f"sw{machine['depth']}_disk{machine['fanout'] - 1}"]
        process = _read(system, n_sectors, driver)
        system.run()
        assert process.done
        return _outcome(system), system.kernel.block_layer.requests_fast_forwarded

    (fast, skipped), (full, __) = _both(scenario)
    note(f"skipped {skipped} of {requests + bool(partial % per_request)}")
    assert fast == full


@pytest.mark.parametrize("build, expected", [
    (_classic, 6),
    (_gen2x1, 6),
    # A coalesced ACK is still pending when the hardware reports a
    # request done, so the proof moves to the next submission and the
    # third request is simulated too.
    (lambda: _gen2x1(ack_policy="timer"), 5),
], ids=["classic", "gen2x1", "gen2x1_timer_ack"])
def test_every_full_request_after_the_proof_is_skipped(build, expected):
    def scenario():
        system = build()
        process = _read(system, 8 * PER_REQUEST + 3)
        system.run()
        assert process.done
        return _outcome(system), system.kernel.block_layer.requests_fast_forwarded

    (fast, skipped), (full, none) = _both(scenario)
    assert (skipped, none) == (expected, 0)
    assert fast == full


# -- declines -----------------------------------------------------------------
def _traced(system):
    system.sim.tracer.attach(MemorySink())
    return system


def _checked(system):
    system.sim.checker.enable()
    return system


@pytest.mark.parametrize("build", [
    lambda: _traced(_classic()),
    lambda: _checked(_classic()),
    lambda: _gen2x1(error_rate=0.01),
], ids=["tracer", "checker", "lossy_link"])
def test_no_proof_holds(build):
    def scenario():
        system = build()
        process = _read(system, 8 * PER_REQUEST)
        system.run()
        assert process.done
        return _outcome(system), system.kernel.block_layer.requests_fast_forwarded

    (fast, skipped), (full, __) = _both(scenario)
    assert skipped == 0
    assert fast == full


def test_a_write_is_never_skipped():
    # The written-LBA set grows instead of translating.
    def scenario():
        system = _classic()

        def body():
            yield from system.kernel.block_layer.write(
                system.disk_driver, 0, 8 * PER_REQUEST, BUFFER)

        process = system.kernel.spawn("writer", body())
        system.run()
        assert process.done
        return _outcome(system), system.kernel.block_layer.requests_fast_forwarded

    (fast, skipped), (full, __) = _both(scenario)
    assert skipped == 0
    assert fast == full


def test_two_concurrent_readers_are_never_skipped():
    def scenario():
        system = build_system(deep_hierarchy_spec(1, 2), check=False,
                              kernel_config=_CONFIG)
        readers = [_read(system, 8 * PER_REQUEST, system.drivers[f"sw1_disk{i}"],
                         buffer_addr=BUFFER + i * (8 << 20))
                   for i in range(2)]
        system.run()
        assert all(reader.done for reader in readers)
        return _outcome(system), system.kernel.block_layer.requests_fast_forwarded

    (fast, skipped), (full, __) = _both(scenario)
    assert skipped == 0
    assert fast == full


# -- horizons -----------------------------------------------------------------
@pytest.mark.parametrize("limit", ["max_events", "until"])
def test_a_run_ending_inside_the_skippable_span_stops_where_the_full_run_does(
        limit):
    def scenario():
        system = _classic()
        process = _read(system, 8 * PER_REQUEST)
        # Somewhere in the fifth request, well past the proof.
        system.run(**{limit: {"max_events": 11_000,
                              "until": 1_100_000_000}[limit]})
        stopped = _outcome(system, checkpoint=False)
        system.run()
        assert process.done
        return stopped, _outcome(system), \
            system.kernel.block_layer.requests_fast_forwarded

    fast, full = _both(scenario)
    assert 0 < fast[2] < 6, "the skip must still engage, shrunk to fit"
    assert fast[:2] == full[:2]


def test_a_buffer_past_the_end_of_dram_fails_as_the_full_run_does():
    dram_end = 0x1_8000_0000

    def scenario():
        system = _classic()
        _read(system, 8 * PER_REQUEST, buffer_addr=dram_end - 5 * PER_REQUEST * SECTOR)
        with pytest.raises(PortError) as failure:
            system.run()
        return str(failure.value), _outcome(system, checkpoint=False)

    fast, full = _both(scenario)
    assert fast == full


def test_lbas_past_capacity_fail_as_the_full_run_does():
    # The disk refuses the sixth request with an error status its
    # driver never acknowledges: the reader waits forever.
    def scenario():
        system = _classic()
        system.disk.capacity_sectors = 5 * PER_REQUEST
        process = _read(system, 8 * PER_REQUEST)
        system.run()
        assert not process.done
        return _outcome(system, checkpoint=False)

    fast, full = _both(scenario)
    assert fast == full
    assert fast[0]["disk.commands_completed"] == 5
