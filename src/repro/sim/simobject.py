"""Simulation objects and the simulator root.

A :class:`SimObject` is a named node in a tree of hardware/software
models, each holding a reference to the shared :class:`Simulator` (event
queue + statistics root).  This mirrors gem5's SimObject hierarchy
closely enough that the paper's component descriptions translate
one-to-one.

Strong references point down (the Simulator owns its queue, tracer,
checker, statistics and objects; a parent its children), so a dropped
machine is freed by reference counting: an object's ``sim`` and
``parent`` are weak proxies, so keep the Simulator while using them.
"""

import os
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.check.checker import InvariantChecker
from repro.obs.trace import Tracer
from repro.sim.checkpoint import CheckpointError, capture, restore
from repro.sim.eventq import Event, EventQueue, call, proxy
from repro.sim.stats import StatGroup

#: Environment variable consulted when ``Simulator(check=None)``: set to
#: ``on``/``1``/``true``/``yes`` to enable invariant checking process-wide
#: (how CI runs the tier-1 suite under the checker).
CHECK_ENV = "REPRO_CHECK"

#: ``SimObject.schedule``'s "no argument" marker (None is a payload).
_NO_ARG = object()


def _key(attr: str) -> str:
    """The document key of a ``state_fields`` attribute."""
    return attr[1:] if attr.startswith("_") else attr


def _owned(value: Any) -> Any:
    """A field's value, a dict one copied: a document never aliases
    live state."""
    return dict(value) if type(value) is dict else value


def _ahead(horizon: Any, tick: int) -> Any:
    """A horizon (a tick, or a dict of ticks) as its offset past
    ``tick``; a past one reads 0, like one never set."""
    if type(horizon) is dict:
        return {key: max(value - tick, 0) for key, value in horizon.items()}
    return max(horizon - tick, 0)


def _busy(value: Any) -> bool:
    """Whether an ``in_flight`` attribute holds work."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_busy(item) for item in value)
    return bool(value)


def _check_default() -> bool:
    """Whether :data:`CHECK_ENV` asks for checking to default on."""
    return os.environ.get(CHECK_ENV, "").strip().lower() in (
        "on", "1", "true", "yes")


class Origin(NamedTuple):
    """A fast-forward boundary — a block-layer request boundary, or a
    sector boundary inside a disk command: its tick, and the cursor's
    buffer address and LBA on the device it drives (the transfer's at a
    request boundary, the command's at a sector boundary)."""

    tick: int
    addr: int
    lba: int
    device: Any


class Simulator:
    """Owns the event queue, the root of the statistics tree, the
    tracer, and the invariant checker.

    Every :class:`SimObject` is constructed with a reference to a
    Simulator, keeping time and statistics explicit rather than global
    (the library never uses module-level simulation state, so several
    simulations can coexist in one Python process — the benchmark
    harness relies on this).

    Args:
        name: root name for the event queue and statistics tree.
        tracer: a pre-built tracer to use instead of a fresh disabled
            one (tests inject pre-filtered tracers this way).
        check: enable the runtime invariant checker
            (:mod:`repro.check`); None consults the ``REPRO_CHECK``
            environment variable (default off).
        backend: must be None.  There is one engine; the keyword
            survives only because the frozen ``benchmarks/perf/runner.py``
            still passes it, and goes when a ``benchmark`` PR drops that
            argument.
    """

    def __init__(self, name: str = "sim", tracer: Optional[Tracer] = None,
                 check: Optional[bool] = None,
                 backend: Optional[str] = None):
        if backend is not None:
            raise ValueError(f"Simulator(backend={backend!r}): must be None")
        self.name = name
        # The tracer is created disabled; attaching a sink enables it.
        # Components cache the reference, so it is never replaced.
        self.tracer = tracer if tracer is not None else Tracer()
        #: Always None; read by the frozen benchmark runner.
        self.backend = None
        self.eventq = EventQueue(f"{name}.eventq")
        self.eventq.tracer = self.tracer
        # The checker mirrors the tracer's lifecycle: always present,
        # created disabled, cached by components — so the hot paths pay
        # one attribute load and branch while it is off.  It leaves this
        # Simulator its dispatch ring to own.
        self.checker = InvariantChecker(self)
        self.eventq.checker = self.checker
        if _check_default() if check is None else check:
            self.checker.enable()
        self.stats = StatGroup()
        self._objects: List["SimObject"] = []
        # Dict mirror of the registry: restore-by-name (repro.sim.
        # checkpoint) depends on full names being unique, so lookups are
        # O(1) and duplicate registration is an error instead of a
        # silent first-match.
        self._by_name: Dict[str, "SimObject"] = {}
        # Set by pause(): called between events by run().
        self._pause_hook: Optional[Callable] = None
        self._running = False  # whether run() is draining the queue

    # -- time --------------------------------------------------------------
    @property
    def curtick(self) -> int:
        """The current simulated tick."""
        return self.eventq.curtick

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` at absolute tick ``when``."""
        return self.eventq.schedule(event, when)

    def schedule_after(self, event: Event, delay: int) -> Event:
        """Schedule ``event`` ``delay`` ticks from now."""
        return self.eventq.schedule_after(event, delay)

    def schedule_callback(self, delay: int, callback: Callable[[], None]) -> None:
        """Call ``callback()`` ``delay`` ticks from now (fire-and-forget)."""
        self.eventq.schedule_callback(delay, callback)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation; see :meth:`EventQueue.run`.

        When the invariant checker is enabled and the run ends with the
        event queue fully drained, the quiescence watchdog fires: a
        non-empty replay buffer with no event left to drain it is
        reported as a deadlock rather than silently swallowed.

        A :meth:`pause` hook runs between events, with exact counters.
        """
        eventq = self.eventq
        self._pause_hook = None  # one left by a failed run is stale
        limit = None if max_events is None else eventq.events_processed + max_events
        self._running = True
        try:
            while True:
                tick = eventq.run(until=until, max_events=(
                    None if limit is None else limit - eventq.events_processed))
                hook, self._pause_hook = self._pause_hook, None
                if hook is None:
                    break
                hook(until, limit)
        finally:
            self._running = False
        if self.checker.enabled and self.eventq.empty():
            self.checker.check_quiescence()
        return tick

    def stop(self) -> None:
        """Ask a run in progress to stop after the current event."""
        self._pause_hook = None
        self.eventq.stop()

    def pause(self, hook: Callable[[Optional[int], Optional[int]], None]) -> bool:
        """Have :meth:`run` call ``hook(until, limit)`` after the current
        event, then carry on; ``limit`` is the ``events_processed`` the
        run stops at (None: unbounded).  Returns whether the hook will
        run: it will not outside :meth:`run` (an event the queue
        dispatches directly), nor once a stop was requested — a requested
        stop wins."""
        if not self._running or self.eventq._stop_requested:
            return False
        self._pause_hook = hook
        self.eventq.stop()
        return True

    # -- object registry ---------------------------------------------------
    def register(self, obj: "SimObject") -> None:
        """Record ``obj`` in the object registry (done by SimObject).

        Raises:
            ValueError: if another object already registered the same
                full name — checkpoint restore resolves components by
                path, so paths must be unique.
        """
        full_name = obj.full_name
        existing = self._by_name.get(full_name)
        if existing is not None:
            raise ValueError(
                f"duplicate SimObject full name {full_name!r}: "
                f"{existing!r} is already registered")
        self._by_name[full_name] = obj
        self._objects.append(obj)

    def find(self, full_name: str) -> Optional["SimObject"]:
        """Look an object up by its dotted full name (O(1))."""
        return self._by_name.get(full_name)

    @property
    def objects(self) -> List["SimObject"]:
        """Snapshot of every registered simulation object."""
        return list(self._objects)

    # -- stats ---------------------------------------------------------
    def dump_stats(self) -> Dict[str, float]:
        """Flatten the whole statistics tree to ``{dotted.name: value}``."""
        return self.stats.dump()

    def reset_stats(self) -> None:
        """Reset every statistic in the tree."""
        self.stats.reset()

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self) -> Dict:
        """Snapshot the whole simulation into a JSON-safe document.

        Captures the event queue (pending events described as
        owner-path + method-name, never pickled), every registered
        object's :meth:`SimObject.state_dict`, the statistics tree, the
        tracer's sequence counters, and the invariant checker's
        ledgers.  See :mod:`repro.sim.checkpoint` for the format and
        the describability rules.
        """
        return capture(self)

    def restore(self, snapshot: Dict) -> None:
        """Overlay a :meth:`checkpoint` document onto this simulator.

        The simulator must be a freshly built twin of the captured one
        (same topology spec, nothing yet run): restore rebuilds the
        event queue, reloads object state by full name, and resets
        stats/tracer/checker so a subsequent run is byte-identical to
        continuing the captured simulation.
        """
        restore(self, snapshot)


class SimObject:
    """A named model component.

    Args:
        sim: the owning :class:`Simulator`.
        name: this object's leaf name; the full name is formed by
            joining parent names with dots, as in gem5
            (``system.pcie.switch.port0``).
        parent: optional parent object for naming/statistics nesting.
    """

    def __init__(self, sim: Simulator, name: str, parent: Optional["SimObject"] = None):
        if not name:
            raise ValueError("SimObject name must be non-empty")
        # Edges up are weak; the tracer and checker hold nothing of the
        # machine strongly.
        self.sim = proxy(sim)
        self.name = name
        self.tracer = sim.tracer
        self.checker = sim.checker
        # Cached like the tracer/checker: the Simulator never replaces
        # its event queue, and the hot paths (per-packet scheduling,
        # curtick reads) shouldn't pay a two-hop property chain.  The
        # one strong edge up that closes a cycle, while work is pending.
        self.eventq = sim.eventq
        self.parent = None if parent is None else proxy(parent)
        #: Dotted gem5-style path from the root to this object, fixed at
        #: construction: the registry is keyed by it and nothing renames
        #: an object afterwards, so trace emits and requestor stamps
        #: read a plain attribute instead of walking the parent chain.
        self.full_name: str = (
            f"{parent.full_name}.{name}" if parent is not None else name)
        self.children: List["SimObject"] = []
        self.stats = StatGroup(name)
        # Registering first refuses a duplicate name before the parent
        # gains a child or a stat group.
        sim.register(self)
        if parent is not None:
            parent.children.append(self)
            parent.stats.add_child(self.stats)
        else:
            sim.stats.add_child(self.stats)

    # -- convenience passthroughs ------------------------------------------
    @property
    def curtick(self) -> int:
        """The current simulated tick."""
        return self.eventq.curtick

    def schedule(self, delay: int, callback: Callable, arg: Any = _NO_ARG,
                 name: str = "") -> None:
        """Call ``callback(arg)`` — or ``callback()`` when no ``arg`` is
        given — ``delay`` ticks from now.

        Fire-and-forget: no handle is built and nothing can cancel the
        call.  Pass a bound method and its payload rather than a closure:
        a bound method of a registered object with a JSON-scalar ``arg``
        is what a checkpoint can describe.  The tracer labels the
        dispatch ``<owner>.<method>``; ``name`` is accepted for older
        callers and unused.
        """
        eventq = self.eventq
        if arg is _NO_ARG:
            eventq.call_at(eventq.curtick + delay, call, callback)
        else:
            eventq.call_at(eventq.curtick + delay, callback, arg)

    # -- checkpoint protocol ----------------------------------------------
    #: The attributes that steer the future, each with how the period
    #: proof reads it: "exact"; "horizon", a tick (or a dict of ticks)
    #: that the model reads only through ``max(now, horizon)``, so the
    #: proof reads it as its offset past the boundary tick and a past
    #: one as 0; or "accumulator", which nothing reads back and the
    #: relative state leaves out.  The document key is the name less
    #: one leading underscore.
    state_fields: Dict[str, str] = {}
    #: Attributes that must be empty or zero at a checkpoint: packet
    #: lists and queues, counters and ledgers.  A list or dict is empty
    #: when each of its values is.
    in_flight: Tuple[str, ...] = ()

    def state_dict(self) -> Dict:
        """The :attr:`state_fields`, as a JSON-safe dict that
        :meth:`load_state_dict` accepts back.

        Raises:
            CheckpointError: naming each :attr:`in_flight` attribute
                that holds work: a live packet has no description, so a
                checkpoint never silently drops one.
        """
        busy = [attr for attr in self.in_flight if _busy(getattr(self, attr))]
        if busy:
            raise CheckpointError(
                f"{self.full_name} has work in flight in {', '.join(busy)}; "
                f"checkpoints require it quiescent")
        return {_key(attr): _owned(getattr(self, attr))
                for attr in self.state_fields}

    def relative_state(self, state: Dict, origin: Origin) -> Dict:
        """``state`` (this :meth:`state_dict`) as seen from a fast-forward
        boundary, read as :attr:`state_fields` declares; equal relative
        states at two boundaries mean translated futures (see
        :mod:`repro.kernel.blockio`).  Undeclared keys must match
        exactly."""
        relative = dict(state)
        for attr, kind in self.state_fields.items():
            key = _key(attr)
            if kind == "accumulator":
                del relative[key]
            elif kind == "horizon":
                relative[key] = _ahead(relative[key], origin.tick)
        return relative

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output captured from a twin object.

        A key no :attr:`state_fields` entry names means the checkpoint
        and the rebuilt topology disagree, which is an error rather
        than data loss.
        """
        fields = {_key(attr): attr for attr in self.state_fields}
        unknown = sorted(state.keys() - fields.keys())
        if unknown:
            raise ValueError(
                f"{self.full_name} ({type(self).__name__}) declares no "
                f"checkpointable state {unknown}")
        for key, attr in fields.items():
            setattr(self, attr, _owned(state[key]))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.full_name!r}>"
