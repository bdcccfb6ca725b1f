"""The block layer's fast-forward of repeated requests and sectors.

The oracle is the run with the proof switched off at both boundaries:
every fast-forwarded run must end with the same statistics document,
final tick, event count, next insertion sequence number and checkpoint
digest as the run that simulates every request and every sector.  The
decline tests pin the cases where the proof must not hold, and the
horizon tests the runs that end, or fail, inside the span that would be
skipped.
"""

from unittest import mock

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.kernel.blockio import _Prover
from repro.mem.port import PortError
from repro.obs.trace import MemorySink
from repro.sim.checkpoint import checkpoint_digest
from repro.sim.stats import Replayable
from repro.system.spec import classic_pci_spec, deep_hierarchy_spec, validation_spec
from repro.system.topology import build_system

BUFFER = 0x9000_0000
SECTOR = 4096

#: Sectors per block-layer request in most tests: small requests keep
#: the full runs cheap, and eight of them are plenty to skip.
PER_REQUEST = 4

#: The block layer's default request size.
FULL_REQUEST = 32


def _transfer(system, n_sectors, driver=None, lba=0, buffer_addr=BUFFER,
              is_write=False):
    """Spawn a process moving ``n_sectors`` through the block layer."""
    driver = driver or system.drivers["disk"]
    layer = system.kernel.block_layer
    move = layer.write if is_write else layer.read

    def body():
        yield from move(driver, lba, n_sectors, buffer_addr)

    return system.kernel.spawn("writer" if is_write else "reader", body())


def _outcome(system, checkpoint=True):
    sim = system.sim
    queue = sim.eventq
    return (sim.dump_stats(), queue.curtick, queue.events_processed,
            queue._next_seq,
            checkpoint_digest(sim.checkpoint()) if checkpoint else None)


def _skipped(system):
    layer = system.kernel.block_layer
    return layer.requests_fast_forwarded, layer.sectors_fast_forwarded


def _recalls():
    """Patch :class:`_Prover` to count, in the list returned, the spans
    each skip from a remembered period skipped."""
    skips, skip = [], _Prover._skip

    def counted(self, snap, period, *args):
        times = skip(self, snap, period, *args)
        if times and period.b is not snap[1]:
            skips.append(times)
        return times

    return skips, mock.patch.object(_Prover, "_skip", counted)


def _both(scenario):
    """``scenario()`` fast-forwarded, then with the proof switched off
    at request and sector boundaries alike."""
    fast = scenario()
    with mock.patch.object(_Prover, "_snapshot", lambda self, origin: None):
        full = scenario()
    return fast, full


def _finished(system, *processes):
    """Run to the end; the transfers left no tape armed and no sector
    boundary behind."""
    system.run()
    assert all(process.done for process in processes)
    assert all(stat.tape is None for __, stat in system.sim.stats.walk("")
               if isinstance(stat, Replayable))
    assert all(getattr(device, "sector_boundary", None) is None
               for device in system.devices.values())
    return _outcome(system), _skipped(system)


def _built(spec, per_request=PER_REQUEST):
    """``spec`` built unchecked, its block layer cutting requests of
    ``per_request`` sectors."""
    system = build_system(spec, check=False)
    system.kernel.block_layer.max_sectors_per_request = per_request
    return system


def _classic(per_request=PER_REQUEST):
    return _built(classic_pci_spec(), per_request)


def _gen2x1(per_request=PER_REQUEST, **kwargs):
    return _built(validation_spec(root_link_width=1, device_link_width=1,
                                  **kwargs), per_request)


# -- the oracle ---------------------------------------------------------------
_LINKS = {
    "gen": st.sampled_from(["GEN1", "GEN2", "GEN3"]),
    "replay_buffer_size": st.integers(1, 4),
    "ack_policy": st.sampled_from(["immediate", "timer"]),
    "enable_msi": st.booleans(),
}
_MACHINES = st.one_of(
    st.just(("classic", {})),
    st.tuples(st.just("validation"), st.fixed_dictionaries(dict(
        _LINKS, root_link_width=st.sampled_from([1, 4, 8]),
        device_link_width=st.sampled_from([1, 2, 4, 8]),
        buffer_size=st.sampled_from([4, 16, 28])))),
    st.tuples(st.just("deep"), st.fixed_dictionaries(dict(
        _LINKS, depth=st.integers(1, 3), fanout=st.integers(1, 2),
        width=st.sampled_from([1, 2, 4, 8]),
        root_link_width=st.sampled_from([1, 4, 8]),
        buffer_size=st.sampled_from([4, 16, 28])))),
)
_DISKS = st.fixed_dictionaries({
    "dma_outstanding": st.sampled_from([1, 4, 64]),
    "posted_writes": st.booleans(),
})


def _machine_doc(kind, knobs, disk_params):
    """A spec document with ``disk_params`` set on every disk, and the
    name of the disk the transfer drives."""
    if kind == "classic":
        doc, target = classic_pci_spec().to_dict(), "disk"
    elif kind == "validation":
        doc, target = validation_spec(**knobs).to_dict(), "disk"
    else:
        doc = deep_hierarchy_spec(**knobs).to_dict()
        target = f"sw{knobs['depth']}_disk{knobs['fanout'] - 1}"

    def visit(node):
        if node.get("kind") == "disk":
            node["params"].update(disk_params)
        for child in node.get("children", []):
            visit(child)
        if "device" in node:  # the classic bus's one slot
            visit(node["device"])

    visit(doc)
    return doc, target


@settings(max_examples=16, deadline=None)
@given(machine=_MACHINES, disk=_DISKS, per_request=st.integers(1, 32),
       requests=st.integers(1, 8), partial=st.integers(0, 31),
       is_write=st.booleans())
def test_fast_forward_matches_the_full_run(machine, disk, per_request,
                                           requests, partial, is_write):
    # Long requests with many of them are the pinned cases' job: bound
    # the full runs here to about a hundred sectors.
    requests = min(requests, max(1, 96 // per_request))
    n_sectors = requests * per_request + partial % per_request
    doc, target = _machine_doc(*machine, disk)

    def scenario():
        system = _built(doc, per_request)
        process = _transfer(system, n_sectors, system.drivers[target],
                            is_write=is_write)
        return _finished(system, process)

    recalled, counting = _recalls()
    with counting:
        (fast, skipped), (full, none) = _both(scenario)
    note(f"skipped {skipped} (requests, sectors) of {n_sectors} sectors, "
         f"{len(recalled)} skips from a remembered period")
    assert none == (0, 0)
    assert fast == full


def test_a_two_request_read_skips_all_but_four_sectors():
    # Command 1: sector 1 starts cold, sectors 2 and 3 prove the period,
    # 29 are skipped and the last one is simulated.  Command 2 starts
    # where that period started, so its first 31 sectors are skipped at
    # once and only its last one is simulated.
    def scenario():
        system = _gen2x1(FULL_REQUEST)
        return _finished(system, _transfer(system, 64))

    (fast, skipped), (full, none) = _both(scenario)
    assert (skipped, none) == ((0, 60), (0, 0))
    assert fast == full


@pytest.mark.parametrize("build", [_classic, _gen2x1], ids=["classic", "gen2x1"])
def test_both_levels_engage_in_one_transfer(build):
    # Requests 1 and 2 prove the request period while 29 and 31 of
    # their sectors are skipped; requests 3-8 are skipped whole.
    def scenario():
        system = build(FULL_REQUEST)
        return _finished(system, _transfer(system, 8 * 32))

    (fast, skipped), (full, none) = _both(scenario)
    assert (skipped, none) == ((6, 60), (0, 0))
    assert fast == full


@pytest.mark.parametrize("build, expected", [
    # Sector 3 of the first full request is skipped too, sectors 1-3 of
    # each later one from the period the first proved, and sectors 1-2
    # of the last, three-sector request from that same period.
    (_classic, (6, 6)),
    (_gen2x1, (6, 6)),
    # A coalesced ACK is still pending when the hardware reports a
    # request done, so the proof moves to the next submission and the
    # third request is simulated too.
    (lambda: _gen2x1(ack_policy="timer"), (5, 9)),
], ids=["classic", "gen2x1", "gen2x1_timer_ack"])
def test_every_full_request_after_the_proof_is_skipped(build, expected):
    def scenario():
        system = build()
        return _finished(system, _transfer(system, 8 * PER_REQUEST + 3))

    (fast, skipped), (full, none) = _both(scenario)
    assert (skipped, none) == (expected, (0, 0))
    assert fast == full


def test_a_write_is_skipped_like_a_read():
    # Writes store nothing, so their state translates as a read's does.
    def scenario():
        system = _classic(FULL_REQUEST)
        return _finished(system, _transfer(system, 4 * 32, is_write=True))

    (fast, skipped), (full, none) = _both(scenario)
    assert (skipped, none) == ((2, 60), (0, 0))
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
    # Posted writes leave a sector's data queued when the next sector's
    # medium access ends: no sector boundary is quiescent.
    lambda: _gen2x1(posted_writes=True),
], ids=["tracer", "checker", "lossy_link", "posted_writes"])
def test_no_proof_holds(build):
    def scenario():
        system = build()
        return _finished(system, _transfer(system, 8 * PER_REQUEST))

    (fast, skipped), (full, __) = _both(scenario)
    assert skipped == (0, 0)
    assert fast == full


def test_no_pause_is_requested_while_observed():
    system = _traced(_classic(FULL_REQUEST))
    with mock.patch.object(system.sim, "pause") as pause:
        _finished(system, _transfer(system, 4 * 32))
    pause.assert_not_called()


def test_two_concurrent_readers_are_never_skipped():
    def scenario():
        system = _built(deep_hierarchy_spec(1, 2))
        readers = [_transfer(system, 8 * PER_REQUEST,
                             system.drivers[f"sw1_disk{i}"],
                             buffer_addr=BUFFER + i * (8 << 20))
                   for i in range(2)]
        return _finished(system, *readers)

    (fast, skipped), (full, __) = _both(scenario)
    assert skipped == (0, 0)
    assert fast == full


def test_msi_after_posted_writes_follows_the_data():
    # The command's last posted writes still fill the DMA queue when it
    # completes: the MSI waits behind them instead of overrunning it.
    system = build_system(validation_spec(posted_writes=True, enable_msi=True),
                          check=False)
    doorbell = system.msi_doorbell.range
    port = system.iocache.cpu_side  # where the fabric hands writes to the host
    receive, arrivals = port.recv_timing_req, []

    def record(pkt):
        accepted = receive(pkt)
        if accepted:
            arrivals.append("msi" if pkt.addr in doorbell else "data")
        return accepted

    port.recv_timing_req = record
    process = _transfer(system, 64)
    system.run()
    assert process.done
    assert system.msi_doorbell.msis_received.value() == 2
    assert arrivals.count("data") == 64 * SECTOR // 64
    # Each command's MSI lands after every one of its data writes.
    assert arrivals.index("msi") == arrivals.count("data") // 2
    assert arrivals[-1] == "msi"


# -- horizons -----------------------------------------------------------------
@pytest.mark.parametrize("limit", ["max_events", "until"])
def test_a_run_ending_inside_the_skippable_span_stops_where_the_full_run_does(
        limit):
    def scenario():
        system = _classic()
        process = _transfer(system, 8 * PER_REQUEST)
        # Somewhere in the fifth request, well past the proof.
        system.run(**{limit: {"max_events": 11_000,
                              "until": 1_100_000_000}[limit]})
        stopped = _outcome(system, checkpoint=False)
        system.run()
        assert process.done
        return stopped, _outcome(system), _skipped(system)

    fast, full = _both(scenario)
    assert 0 < fast[2][0] < 6, "the skip must still engage, shrunk to fit"
    assert fast[:2] == full[:2]


@pytest.mark.parametrize("limit", ["max_events", "until"])
def test_a_run_ending_inside_a_skippable_command_stops_where_the_full_run_does(
        limit):
    def scenario():
        system = _gen2x1(FULL_REQUEST)
        process = _transfer(system, 32)
        # Somewhere near the middle of the only command.
        system.run(**{limit: {"max_events": 40_000,
                              "until": 250_000_000}[limit]})
        stopped = _outcome(system, checkpoint=False)
        system.run()
        assert process.done
        return stopped, _outcome(system), _skipped(system)

    fast, full = _both(scenario)
    assert 0 < fast[2][1] < 29, "the skip must still engage, shrunk to fit"
    assert fast[:2] == full[:2]


def test_a_buffer_past_the_end_of_dram_fails_as_the_full_run_does():
    dram_end = 0x1_8000_0000

    def scenario():
        system = _classic()
        _transfer(system, 8 * PER_REQUEST,
                  buffer_addr=dram_end - 5 * PER_REQUEST * SECTOR)
        with pytest.raises(PortError) as failure:
            system.run()
        return str(failure.value), _outcome(system, checkpoint=False)

    fast, full = _both(scenario)
    assert fast == full


def test_a_command_crossing_the_end_of_dram_fails_as_the_full_run_does():
    # The sector proof holds from sector 3, but sector 21 is past DRAM.
    dram_end = 0x1_8000_0000

    def scenario():
        system = _classic(FULL_REQUEST)
        _transfer(system, 32, buffer_addr=dram_end - 20 * SECTOR)
        with pytest.raises(PortError) as failure:
            system.run()
        return str(failure.value), _outcome(system, checkpoint=False)

    fast, full = _both(scenario)
    assert fast == full


def test_a_second_command_crossing_the_end_of_dram_fails_as_the_full_run_does():
    # Command 2 starts where command 1's sector period started, but the
    # sectors that period would skip run past DRAM from the ninth on.
    dram_end = 0x1_8000_0000

    def scenario():
        system = _classic(FULL_REQUEST)
        _transfer(system, 64, buffer_addr=dram_end - 40 * SECTOR)
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
        system.devices["disk"].capacity_sectors = 5 * PER_REQUEST
        process = _transfer(system, 8 * PER_REQUEST)
        system.run()
        assert not process.done
        return _outcome(system, checkpoint=False)

    fast, full = _both(scenario)
    assert fast == full
    assert fast[0]["disk.commands_completed"] == 5
