"""The block layer.

Splits a read/write into hardware requests of at most
``max_sectors_per_request`` sectors (Linux's ``max_sectors`` bound —
with 4 KB sectors the default of 32 gives 128 KB requests), drives the
block-device driver one request at a time (``dd`` issues synchronous
sequential reads, so there is never queue depth to exploit), and charges
the software costs around each request:

* ``submit_overhead`` — request construction, driver entry;
* ``per_sector_overhead`` — per-page block/bio bookkeeping;
* ``complete_overhead`` — end-of-request processing after the IRQ.

These constants are the calibration knobs standing in for the "OS
overheads in gem5 for setting up the transfer" that the paper holds
responsible for its throughput gap against the physical machine.

**Fast-forward.**  ``dd`` is synchronous, so a long transfer is one
request repeated, and a disk command one sector repeated.  At each
request boundary, and at each sector boundary of a disk command, a
:class:`_Prover` pauses the run (spending no event and no sequence
number) and snapshots every object's
:meth:`~repro.sim.simobject.SimObject.relative_state`, in which a
horizon already past reads as 0: the model reads it only through
``max(now, horizon)``.  When two consecutive boundaries agree, every
later span up to the last is a translate of the last one: the queue,
every ``state_dict`` leaf and every linear statistic move by that many
times the measured step, a horizon lands as the last span left it, and
moment statistics replay the span's samples.  A proven period is a fact
about a relative state, so the transfer remembers it, and a later
boundary of the same kind that starts it (the same sector of the next
disk command) skips at once.  ARCHITECTURE.md "Fast-forwarding a
repeated request" gives the argument.
"""

from typing import Any, NamedTuple, Optional

from repro.sim import ticks
from repro.sim.checkpoint import CheckpointError, _describe_event
from repro.sim.process import Delay, Process, WaitFor
from repro.sim.simobject import Origin, SimObject, Simulator, _key
from repro.sim.stats import Replayable


class _Differs(Exception):
    """Two snapshots differ in more than numbers."""


def _extrapolate(now, new, old, times: int):
    """``now + times * (new - old)`` leaf by leaf; a float only by an
    integral step (exact), and nothing else may move."""
    if isinstance(now, dict):
        if not (isinstance(new, dict) and isinstance(old, dict)
                and now.keys() == new.keys() == old.keys()):
            raise _Differs
        return {key: _extrapolate(now[key], new[key], old[key], times)
                for key in now}
    if isinstance(now, list):
        if not (isinstance(new, list) and isinstance(old, list)
                and len(now) == len(new) == len(old)):
            raise _Differs
        return [_extrapolate(*leaves, times) for leaves in zip(now, new, old)]
    if type(now) in (int, float) and type(new) is type(now) is type(old):
        step = new - old
        if type(step) is float and not step.is_integer():
            raise _Differs
        return now + times * step
    if not now == new == old:
        raise _Differs
    return now


def _horizon(now, new, old, shift: int):
    """A horizon that did not move over the period keeps ``now``; one
    that did lands ``shift`` past ``new``.  Per value of a dict."""
    if type(now) is dict:
        return {key: _horizon(now[key], new[key], old[key], shift)
                for key in now}
    return now if new == old else new + shift


def _land(now: dict, new: dict, old: dict, times: int, shift: int) -> dict:
    """Every owner's raw state ``times`` periods on from ``now``, for a
    period proven from ``old`` to ``new``: horizons by
    :func:`_horizon`, every other leaf by :func:`_extrapolate`."""
    ahead = _extrapolate(now, new, old, times)
    for owner, state in ahead.items():
        for attr, kind in getattr(owner, "state_fields", {}).items():
            if kind == "horizon":
                key = _key(attr)
                state[key] = _horizon(now[owner][key], new[owner][key],
                                      old[owner][key], shift)
    return ahead


def _observed(sim: Simulator) -> bool:
    """An armed tracer or checker: its output cannot be extrapolated."""
    return sim.tracer.enabled or sim.checker.enabled


def _one_process(sim: Simulator) -> Optional[Process]:
    """The only started, unfinished process, or None."""
    running = [obj for obj in sim._objects
               if isinstance(obj, Process) and obj._suspended]
    return running[0] if len(running) == 1 else None


class _Period(NamedTuple):
    """A period proven from boundary a to boundary b: the relative state
    both share, the raw ``(queue, states)`` at a and at b, the span's
    replayable stats and tapes, and the memory object that served it."""

    start: tuple
    a: tuple
    b: tuple
    replayables: list
    spans: dict
    memory: Any


class _Prover:
    """The period proof of one kind of boundary: a transfer's requests,
    or one command's sectors.  Holds the snapshot at the last boundary,
    between boundaries the tapes recording the span's samples, and the
    transfer's list of the periods this kind of boundary has proven.

    Tapes nest: arming saves the tape already armed (an enclosing
    span's), and disarming hands the samples on to it, so the request
    a skipped sector belongs to still records every sample."""

    def __init__(self, sim: Simulator, periods: Optional[list] = None):
        self.sim = sim
        self.periods = [] if periods is None else periods
        self.last: Optional[tuple] = None
        self._outer: dict = {}  # Replayable stat -> the tape it had

    def _arm(self, stats) -> None:
        for stat in stats:
            self._outer[stat], stat.tape = stat.tape, []

    def _disarm(self) -> dict:
        spans = {}
        for stat, outer in self._outer.items():
            spans[stat] = stat.tape
            if outer is not None:
                outer.extend(stat.tape)
            stat.tape = outer
        self._outer = {}
        return spans

    def worth_pausing(self, later: int) -> bool:
        """Whether a boundary with ``later`` full spans after the current
        one could still lead to a skip."""
        return later >= 2 or (later == 1 and (self.last is not None
                                              or bool(self.periods)))

    def close(self) -> None:
        """Disarm, and forget the last snapshot."""
        self._disarm()
        self.last = None

    def _snapshot(self, origin: Origin) -> Optional[tuple]:
        """``(relative, raw, replayables)`` at a boundary; None with the
        tracer or checker armed, another process unfinished, or anything
        a checkpoint would refuse."""
        sim, eventq = self.sim, self.sim.eventq
        process = None if _observed(sim) else _one_process(sim)
        if process is None:
            return None
        tick, seq = eventq.curtick, eventq._next_seq
        relative, states = {}, {}
        try:
            for obj in sim._objects:
                state = obj.state_dict() if obj is not process else None
                if state:
                    states[obj] = state
                    relative[obj] = obj.relative_state(state, origin)
            pending = [_describe_event(sim, entry) for entry in
                       sorted(eventq.live_entries(), key=lambda e: e[:3])]
        except CheckpointError:
            return None
        for doc in pending:  # as offsets from now
            doc["when"] -= tick
            doc["seq"] -= seq
        replayables = []
        for __, stat in sim.stats.walk(""):
            if isinstance(stat, Replayable):
                replayables.append(stat)
                continue
            state = stat.state_dict()
            if state is not None:
                states[stat] = state
        queue = [tick, seq, eventq.events_processed]
        return (relative, pending), (queue, states), replayables

    def boundary(self, origin: Origin, span: int, later: int, first: int,
                 until: Optional[int], limit: Optional[int]) -> Optional[int]:
        """Snapshot; if the last boundary agrees, or this one starts a
        remembered period, skip up to ``later`` spans of ``span`` sectors
        that fit before ``until`` and the event ``limit``, unless they
        pass the disk's end or leave the memory object that served the
        proven span.  ``first`` is where the span just ended starts, in
        spans from the cursor.  Returns the spans skipped, None on a
        decline."""
        spans = self._disarm()
        last, snap = self.last, self._snapshot(origin)
        self.last = snap
        if snap is None:
            return None
        if (last is not None and snap[0] == last[0]
                and len(spans) == len(snap[2])):
            span_bytes = span * origin.device.sector_size
            lo = origin.addr + first * span_bytes
            period = _Period(snap[0], last[1], snap[1], snap[2], spans,
                             self._memory(lo, lo + span_bytes))
            self.periods.append(period)
        else:
            period = next((p for p in self.periods if p.replayables == snap[2]
                           and p.start == snap[0]), None)
        times = 0 if period is None else self._skip(
            snap, period, origin, span, later, first, until, limit)
        if times:
            self.last = None  # its raw half is stale now: prove afresh
        self._arm(snap[2])
        return times

    def _skip(self, snap, period: _Period, origin: Origin, span: int,
              later: int, first: int, until: Optional[int],
              limit: Optional[int]) -> int:
        (queue, states), (queue_a, states_a) = snap[1], period.a
        queue_b, states_b = period.b
        step = [b - a for b, a in zip(queue_b, queue_a)]
        times = later
        if until is not None:
            times = min(times, (until - queue[0]) // max(step[0], 1))
        if limit is not None:
            times = min(times, (limit - queue[2]) // max(step[2], 1))
        # The skipped spans, counted from the cursor.
        end = first + times + 1
        span_bytes = span * origin.device.sector_size
        if (times < 1 or period.memory is None
                or origin.lba + end * span > origin.device.capacity_sectors
                or self._memory(origin.addr + (first + 1) * span_bytes,
                                origin.addr + end * span_bytes)
                is not period.memory):
            return 0
        try:
            ahead = _land(states, states_b, states_a, times,
                          queue[0] + times * step[0] - queue_b[0])
        except _Differs:
            return 0
        self.sim.eventq.advance(*(times * d for d in step))
        for owner, state in ahead.items():
            owner.load_state_dict(state)
        for stat, samples in period.spans.items():  # the proven span's
            stat.replay(samples, times)
        return times

    def _memory(self, lo: int, hi: int) -> Optional[SimObject]:
        """The memory object whose range holds all of [lo, hi), or None."""
        for obj in self.sim._objects:
            rng = getattr(obj, "range", None)
            if rng is not None and rng.start <= lo and hi <= rng.end:
                return obj
        return None


class _Cursor:
    """A transfer's position, which a skip moves forward."""

    def __init__(self, sim: Simulator, lba: int, buf: int, remaining: int):
        self.lba, self.buf, self.remaining, self.start = lba, buf, remaining, 0
        # The request prover's periods are those of completions, then
        # of submissions; these are those of the sectors of any command.
        self.sectors: list = []
        self.prover = _Prover(sim)
        # Boundaries sit where a request completes until that point is
        # not quiescent (a coalesced ACK pending), then at submissions.
        self.at_completion = True


class BlockLayer(SimObject):
    """See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "block_layer",
        parent: Optional[SimObject] = None,
        max_sectors_per_request: int = 32,
        submit_overhead: int = ticks.from_us(4),
        complete_overhead: int = ticks.from_us(3),
        per_sector_overhead: int = ticks.from_us(1.0),
    ):
        super().__init__(sim, name, parent)
        if max_sectors_per_request < 1:
            raise ValueError("requests must carry at least one sector")
        self.max_sectors_per_request = max_sectors_per_request
        self.submit_overhead = submit_overhead
        self.complete_overhead = complete_overhead
        self.per_sector_overhead = per_sector_overhead

        self.requests_submitted = self.stats.scalar("requests_submitted")
        self.sectors_moved = self.stats.scalar("sectors_moved")
        self.request_ticks = self.stats.distribution(
            "request_ticks", "submit-to-complete time per hardware request"
        )
        #: Requests and sectors skipped, not simulated (not stats: stats
        #: documents must not depend on them).
        self.requests_fast_forwarded = 0
        self.sectors_fast_forwarded = 0

    def read(self, driver, lba: int, n_sectors: int, buffer_addr: int):
        """Generator: read ``n_sectors`` starting at ``lba`` into the
        buffer.  ``yield from`` it inside a process."""
        return self._transfer(driver, lba, n_sectors, buffer_addr, is_write=False)

    def write(self, driver, lba: int, n_sectors: int, buffer_addr: int):
        return self._transfer(driver, lba, n_sectors, buffer_addr, is_write=True)

    def _transfer(self, driver, lba: int, n_sectors: int, buffer_addr: int,
                  is_write: bool):
        if n_sectors < 1:
            raise ValueError("transfer needs at least one sector")
        cur = _Cursor(self.sim, lba, buffer_addr, n_sectors)
        per_request = self.max_sectors_per_request
        sector_bytes = driver.sector_size
        device = getattr(driver, "device", None)
        while cur.remaining:
            chunk = min(cur.remaining, per_request)
            cur.start = self.curtick
            self.requests_submitted.inc()
            if not cur.at_completion:
                self._maybe_pause(cur, device)
            yield Delay(self.submit_overhead + chunk * self.per_sector_overhead)
            sectors = self._arm_sectors(cur, device, chunk)
            completion = yield from driver.start_request(
                cur.lba, chunk, cur.buf, is_write
            )
            yield WaitFor(completion)
            if sectors is not None:
                device.sector_boundary = None
                sectors.close()
            if cur.at_completion:
                self._maybe_pause(cur, device)
            yield Delay(self.complete_overhead)
            self.request_ticks.sample(self.curtick - cur.start)
            self.sectors_moved.inc(chunk)
            cur.remaining -= chunk
            cur.lba += chunk
            cur.buf += chunk * sector_bytes
        cur.prover.close()

    # -- fast-forward ------------------------------------------------------
    def _maybe_pause(self, cur: _Cursor, device) -> None:
        """Pause here if a snapshot could still lead to a skip."""
        later = cur.remaining // self.max_sectors_per_request - 1
        if (device is not None and cur.prover.worth_pausing(later)
                and not _observed(self.sim)):
            self.sim.pause(
                lambda until, limit: self._request_boundary(cur, device,
                                                            until, limit))

    def _request_boundary(self, cur: _Cursor, device, until: Optional[int],
                          limit: Optional[int]) -> None:
        """Prove and skip requests; the cursor follows a skip."""
        per_request = self.max_sectors_per_request
        before = self.curtick
        times = cur.prover.boundary(
            Origin(before, cur.buf, cur.lba, device), per_request,
            cur.remaining // per_request - 1,
            0 if cur.at_completion else -1, until, limit)
        if times is None:
            cur.at_completion = False
            cur.prover.periods = []
            return
        cur.start += self.curtick - before
        cur.lba += times * per_request
        cur.buf += times * per_request * device.sector_size
        cur.remaining -= times * per_request
        self.requests_fast_forwarded += times

    def _arm_sectors(self, cur: _Cursor, device,
                     chunk: int) -> Optional[_Prover]:
        """Give a command that could skip sectors a sector boundary."""
        if (chunk < 3 or not hasattr(device, "sector_boundary")
                or _observed(self.sim) or _one_process(self.sim) is None):
            return None
        prover = _Prover(self.sim, cur.sectors)

        def boundary(origin: Origin, later: int, until: Optional[int],
                     limit: Optional[int]) -> None:
            # The disk's cursor is already at the sector about to start:
            # the proven sector is the one before it.
            times = prover.boundary(origin, 1, later, -1, until, limit)
            self.sectors_fast_forwarded += times or 0
            if times is None or not prover.worth_pausing(later - times - 1):
                device.sector_boundary = None  # for the rest of the command

        device.sector_boundary = boundary
        return prover
