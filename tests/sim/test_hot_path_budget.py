"""The event schedule is pinned, and the hot path has a call budget.

Performance work on the one engine must not move an event: every
scheduled event keeps its ``(tick, priority, seq)``.  Part (a) makes
that a tier-1 fact — the number of events dispatched, the final tick
and the queue's next insertion sequence number of two scenarios equal
constants recorded at the commit before the hot-path pass (PR 14), so
any change that adds, drops, fuses or reorders an insertion shows up
here before it shows up as a moved statistic.

Part (b) bounds the interpreter work per TLP from above: the number of
function calls (Python and C, as ``sys.setprofile`` reports them) per
TLP delivered across a saturated link.  The count repeats exactly from
run to run, so the ceiling is the measurement plus 10 %, not a timing.
"""

import sys

from repro.pcie.link import PcieLink
from repro.pcie.timing import PcieGen
from repro.sim.simobject import Simulator
from repro.workloads.scenarios import run_scenario

from benchmarks.core_perf import _LinkDriver, _LinkSink
from tests.golden.scenario import SCENARIOS, four_flow_scenario, run_dd_system

#: ``(events_processed, final tick, next insertion seq)`` at the parent
#: of PR 14.  A deliberate model change re-records them; a perf change
#: never does.
GOLDEN_CLEAN_SCHEDULE = (2601, 28_635_006, 2881)
DEEP_FOUR_FLOW_SCHEDULE = (393_527, 542_762_021, 448_410)

#: Calls per delivered TLP on the saturated burst below: 117.87 measured
#: on the binary-heap queue with list-backed link queues (125.53 on the
#: hybrid calendar queue after the PR 14 pass, 179.52 before it), plus
#: 10 %.
CALLS_PER_TLP_CEILING = 130


def _schedule(sim):
    queue = sim.eventq
    return queue.events_processed, queue.curtick, queue._next_seq


def test_golden_clean_dd_schedule_is_pinned():
    system, __ = run_dd_system("dd_gen2x1", **SCENARIOS["dd_gen2x1"])
    assert _schedule(system.sim) == GOLDEN_CLEAN_SCHEDULE


def test_deep_four_flow_schedule_is_pinned():
    system, engine = run_scenario(four_flow_scenario())
    assert engine.completed
    assert _schedule(system.sim) == DEEP_FOUR_FLOW_SCHEDULE


def _count_calls(func):
    """Run ``func`` and return how many Python and C calls it made."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        func()
    finally:
        sys.setprofile(previous)
    return calls


def _saturated_burst_calls(n_tlps):
    # Checker and tracer off whatever the environment says: the budget
    # is for the plain hot path.
    sim = Simulator("budget", check=False)
    link = PcieLink(sim, "link", gen=PcieGen.GEN2, width=1,
                    ack_policy="immediate")
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
