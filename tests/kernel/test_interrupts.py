"""Unit tests for the interrupt controller."""

import pytest

from repro.kernel.interrupts import InterruptController
from repro.sim import ticks
from repro.sim.process import Delay
from repro.sim.simobject import Simulator


def test_handler_runs_after_dispatch_latency():
    assert InterruptController.DISPATCH_LATENCY == ticks.from_ns(500)
    sim = Simulator()
    intc = InterruptController(sim)
    fired = []

    def handler():
        fired.append(sim.curtick)
        yield Delay(0)

    intc.register(40, handler)
    intc.raise_irq(40)
    sim.run()
    assert fired == [ticks.from_ns(500)]
    assert intc.dispatched.value() == 1


def test_unhandled_line_is_spurious():
    sim = Simulator()
    intc = InterruptController(sim)
    intc.raise_irq(99)
    sim.run()
    assert intc.spurious.value() == 1
    assert intc.dispatched.value() == 0


def test_double_registration_rejected():
    sim = Simulator()
    intc = InterruptController(sim)
    intc.register(1, lambda: iter(()))
    with pytest.raises(ValueError):
        intc.register(1, lambda: iter(()))


def test_unregister_then_reregister():
    sim = Simulator()
    intc = InterruptController(sim)
    intc.register(1, lambda: iter(()))
    intc.unregister(1)
    intc.register(1, lambda: iter(()))


def test_pending_assertions_coalesce():
    sim = Simulator()
    intc = InterruptController(sim)
    count = []

    def handler():
        count.append(1)
        yield Delay(0)

    intc.register(7, handler)
    intc.raise_irq(7)
    intc.raise_irq(7)  # still pending: coalesces
    sim.run()
    assert sum(count) == 1
    assert intc.coalesced.value() == 1
    # A later assertion dispatches again.
    intc.raise_irq(7)
    sim.run()
    assert sum(count) == 2


def test_distinct_lines_dispatch_independently():
    sim = Simulator()
    intc = InterruptController(sim)
    hits = []

    def make(line):
        def handler():
            hits.append(line)
            yield Delay(0)
        return handler

    intc.register(1, make(1))
    intc.register(2, make(2))
    intc.raise_irq(1)
    intc.raise_irq(2)
    sim.run()
    assert sorted(hits) == [1, 2]
