"""Generator-based processes for modelling software on top of the
event queue.

The paper's evaluation runs real software (the Linux kernel's
enumeration code, the IDE driver, ``dd``) on gem5's simulated CPU.  We
model that software directly as *processes*: Python generators that
yield timing directives.  A process may yield:

* :class:`Delay` — consume simulated time (models computation,
  syscall overhead, interrupt handling cost, ...).
* :class:`WaitFor` — block until a :class:`Signal` fires (models
  sleeping on an I/O completion / interrupt).

Example::

    def dd_like(kernel):
        yield Delay(ticks.from_us(50))        # setup cost
        kernel.issue_read(...)                # kick off hardware
        yield WaitFor(kernel.io_done)         # sleep until the IRQ
        ...

Processes make the software side of the simulation readable while
remaining fully event-driven and deterministic.
"""

from typing import Any, Generator, List, Optional, Union

from repro.sim.simobject import SimObject, Simulator


class Delay:
    """Yield from a process to advance simulated time by ``ticks``."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int):
        if ticks < 0:
            raise ValueError(f"delay must be non-negative, got {ticks}")
        self.ticks = ticks


class Signal:
    """A broadcast condition processes can wait on.

    :meth:`notify` wakes every waiter, delivering an optional value as
    the result of the ``yield``.  By default signals are edge-triggered:
    a notify with no waiters is not remembered.  A *latched* signal
    (``latch=True``) instead stays fired after its first notify, waking
    late waiters immediately — the right shape for one-shot completion
    events (DMA done, request finished) where the waiter may arrive
    after the hardware does.
    """

    def __init__(self, name: str = "signal", latch: bool = False):
        self.name = name
        self.latch = latch
        self._waiters: List["Process"] = []
        self.notify_count = 0
        self._fired = False
        self._value: Any = None

    @property
    def fired(self) -> bool:
        """True once a latched signal has notified."""
        return self._fired

    def notify(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        self.notify_count += 1
        if self.latch:
            self._fired = True
            self._value = value
        for process in waiters:
            process._resume_soon(value)
        return len(waiters)

    def _add_waiter(self, process: "Process") -> None:
        if self.latch and self._fired:
            process._resume_soon(self._value)
            return
        self._waiters.append(process)

    def subscribe(self, callback) -> None:
        """Register a one-shot plain callback fired (synchronously) on
        the next :meth:`notify` — for event-driven hardware models that
        are not generator processes."""
        self._waiters.append(_CallbackWaiter(callback))

    @property
    def waiter_count(self) -> int:
        """Processes/callbacks currently blocked on this signal."""
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class _CallbackWaiter:
    """Adapts a plain callback to the waiter protocol."""

    __slots__ = ("_callback",)

    def __init__(self, callback):
        self._callback = callback

    def _resume_soon(self, value):
        self._callback(value)


class WaitFor:
    """Yield from a process to sleep until ``signal`` notifies."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


Directive = Union[Delay, WaitFor]


class Process(SimObject):
    """A software activity driven by the event queue.

    Wraps a generator; each yielded :class:`Delay` or :class:`WaitFor`
    suspends the generator and arranges for it to resume later.  When
    the generator returns, :attr:`done` becomes True, :attr:`result`
    holds its return value, and :attr:`completed` notifies (so processes
    can wait on each other).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        generator: Generator[Directive, Any, Any],
        parent: Optional[SimObject] = None,
        start_delay: int = 0,
    ):
        super().__init__(sim, name, parent)
        self._generator = generator
        self.done = False
        self.result: Any = None
        self.completed = Signal(f"{name}.completed")
        self.start_tick: Optional[int] = None
        self.end_tick: Optional[int] = None
        self.schedule(start_delay, self._start)

    def _start(self) -> None:
        self.start_tick = self.curtick
        self._resume(None)

    def _resume_soon(self, value: Any) -> None:
        # Resume via a zero-delay event so that a Signal.notify from deep
        # inside hardware code does not reenter the process synchronously.
        self.schedule(0, self._resume, value)

    def _resume(self, value: Any) -> None:
        if self.done:
            return
        try:
            directive = self._generator.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.end_tick = self.curtick
            self.completed.notify(self.result)
            return
        if isinstance(directive, Delay):
            self.schedule(directive.ticks, self._resume, None)
        elif isinstance(directive, WaitFor):
            directive.signal._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.full_name} yielded {directive!r}; expected Delay or WaitFor"
            )

    # A suspended process's generator frame has no description, so its
    # pending resume (a describable call of _resume) must not be restored
    # into a twin whose generator would start over.
    in_flight = ("_suspended",)

    @property
    def _suspended(self) -> bool:
        """Started and not yet finished."""
        return self.start_tick is not None and not self.done

    @property
    def elapsed(self) -> Optional[int]:
        """Ticks from start to completion, if the process has finished."""
        if self.start_tick is None or self.end_tick is None:
            return None
        return self.end_tick - self.start_tick
