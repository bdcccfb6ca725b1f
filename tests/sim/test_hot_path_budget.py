"""The event schedule is pinned, and the hot path has a call budget.

Performance work on the one engine must not move an event: every
scheduled event keeps its ``(tick, priority, seq)``.  Part (a) makes
that a tier-1 fact — the number of events dispatched, the final tick
and the queue's next insertion sequence number of two scenarios equal
constants recorded at the commit before the hot-path pass (PR 14), so
any change that adds, drops, fuses or reorders an insertion shows up
here before it shows up as a moved statistic.

The same golden run also pins how many dispatches fall in each class
of the benchmark ledger's dispatch labels (``tx_done``, ``deliver``,
``processed``, ``drain``, ...), so a change to how work is scheduled
cannot quietly move work between classes.

Part (b) bounds the interpreter work per TLP from above: the number of
function calls (Python and C, as ``sys.setprofile`` reports them) per
TLP delivered across a saturated link.  The count repeats exactly from
run to run, so the ceiling is the measurement plus 10 %, not a timing.
A second ceiling holds the same burst with the checker armed, so arming
it cannot quietly start paying for the tracer again.
A saturated link in steady state also builds no :class:`Event` at all:
its per-packet work is fire-and-forget calls, its timers are handles
built once.
"""

import gc
import sys

import pytest

from repro.pcie.link import PcieLink
from repro.sim.eventq import Event
from repro.sim.simobject import Simulator
from repro.system.spec import LinkSpec, classic_pci_spec, validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.scenarios import run_scenario

from benchmarks.perf.layers import LabelCounter, _LinkDriver, _LinkSink
from tests.golden.scenario import SCENARIOS, four_flow_scenario, run_dd_system

#: ``(events_processed, final tick, next insertion seq)`` at the parent
#: of PR 14.  A deliberate model change re-records them; a perf change
#: never does.
GOLDEN_CLEAN_SCHEDULE = (2601, 28_635_006, 2881)
DEEP_FOUR_FLOW_SCHEDULE = (393_527, 542_762_021, 448_410)

#: An eight-request (1 MiB) ``dd`` with no startup cost, recorded before
#: the block layer learned to fast-forward repeated requests: the
#: skipped requests must still count every event and insertion.
CLASSIC_DD_SCHEDULE = (143_570, 14_507_022_736, 143_570)
GEN2X1_DD_SCHEDULE = (625_122, 4_091_184_048, 690_850)

#: Dispatches per label class on the golden clean ``dd``, recorded
#: while the four hot kinds were still pooled Event subclasses.
GOLDEN_CLEAN_LABEL_CLASSES = {
    "tx_done": 840, "deliver": 840, "ack": 0, "fc": 0, "processed": 280,
    "drain": 626, "timer": 0, "other": 15}

#: Calls per delivered TLP on the saturated burst below: 95.91 measured
#: once fire-and-forget work became ``(fn, arg)`` queue entries and the
#: link's call chains were trimmed (117.87 with pooled Event subclasses
#: on the binary heap, 125.53 on the hybrid calendar queue after the
#: PR 14 pass, 179.52 before it), plus 10 %.
CALLS_PER_TLP_CEILING = 106

#: The same burst with the checker armed: 133.88 measured once the
#: dispatch loop rang the checker's entries itself instead of calling
#: its hook per event (140.87 with the hook, once the checker kept its
#: own ring of raw dispatch entries instead of arming the tracer;
#: 227.80 while a ring sink on the tracer turned on every trace point),
#: plus 10 %.
ARMED_CALLS_PER_TLP_CEILING = 147


def _schedule(sim):
    queue = sim.eventq
    return queue.events_processed, queue.curtick, queue._next_seq


def test_golden_clean_dd_schedule_is_pinned():
    system, __ = run_dd_system("dd_gen2x1", **SCENARIOS["dd_gen2x1"])
    assert _schedule(system.sim) == GOLDEN_CLEAN_SCHEDULE


def test_golden_clean_dd_label_classes_are_pinned():
    counter = LabelCounter()
    run_dd_system("dd_gen2x1", **SCENARIOS["dd_gen2x1"], sink=counter,
                  categories=("eventq",))
    assert counter.by_class() == GOLDEN_CLEAN_LABEL_CLASSES
    assert sum(counter.labels.values()) == GOLDEN_CLEAN_SCHEDULE[0]


def test_deep_four_flow_schedule_is_pinned():
    system, engine = run_scenario(four_flow_scenario())
    assert engine.completed
    assert _schedule(system.sim) == DEEP_FOUR_FLOW_SCHEDULE


@pytest.mark.parametrize("build, pinned", [
    (lambda: build_system(classic_pci_spec(),
                          check=False), CLASSIC_DD_SCHEDULE),
    (lambda: build_system(validation_spec(root_link_width=1,
                                          device_link_width=1),
                          check=False), GEN2X1_DD_SCHEDULE),
], ids=["classic", "gen2x1"])
def test_eight_request_dd_schedule_is_pinned(build, pinned):
    system = build()
    dd = DdWorkload(system.kernel, system.drivers["disk"], 8 * 128 * 1024,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run()
    assert process.done
    assert system.kernel.block_layer.requests_fast_forwarded == 6
    assert _schedule(system.sim) == pinned


def _count_calls(func):
    """Run ``func`` and return how many Python and C calls it made.

    The cyclic collector is paused so that none of its passes lands in
    the window.  A dropped machine no longer needs one (it is freed by
    reference counting), but a pass would still run any ``gc.callbacks``
    hook and the finalizers of whatever cyclic garbage the process holds
    (a traceback's frames, a process suspended mid-body in a machine
    dropped mid-run: closing its generator is a call), and make the
    count vary.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        func()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def _saturated_burst_calls(n_tlps, check=False):
    # The checker is set explicitly whatever the environment says, and
    # the tracer is never armed.
    sim = Simulator("budget", check=check)
    link = PcieLink.from_spec(sim, "link", LinkSpec(
        gen="GEN2", width=1, ack_policy="immediate"))
    driver = _LinkDriver(sim, link, n_tlps)
    sink = _LinkSink(sim, link)

    def burst():
        driver.pump()
        sim.run(max_events=200 * n_tlps)

    calls = _count_calls(burst)
    assert sink.received == n_tlps
    return calls


def test_calls_per_delivered_tlp_within_budget():
    n_tlps = 400
    _saturated_burst_calls(50)  # fill the process-wide wire-time memo
    calls = _saturated_burst_calls(n_tlps)
    assert calls == _saturated_burst_calls(n_tlps), "count must repeat exactly"
    assert calls / n_tlps <= CALLS_PER_TLP_CEILING


def test_armed_checker_calls_per_delivered_tlp_within_budget():
    n_tlps = 400
    _saturated_burst_calls(50)  # fill the process-wide wire-time memo
    calls = _saturated_burst_calls(n_tlps, check=True)
    assert calls == _saturated_burst_calls(n_tlps, check=True), \
        "count must repeat exactly"
    assert calls / n_tlps <= ARMED_CALLS_PER_TLP_CEILING


def test_steady_state_link_dispatch_builds_no_event(monkeypatch):
    sim = Simulator("steady", check=False)
    link = PcieLink.from_spec(sim, "link", LinkSpec(
        gen="GEN2", width=1, ack_policy="immediate"))
    driver = _LinkDriver(sim, link, 200)
    sink = _LinkSink(sim, link)
    driver.pump()
    sim.run(max_events=50)  # warm up: the link is now saturated
    built = []
    real_init = Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim.run(max_events=200 * 200)
    assert sink.received == 200
    assert built == []
