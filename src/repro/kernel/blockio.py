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
request repeated.  At each request boundary the transfer pauses the run
(spending no event and no sequence number) and snapshots every object's
:meth:`~repro.sim.simobject.SimObject.relative_state`.  When two
consecutive boundaries agree, every later full-size request is a
translate of the last one: the queue, every ``state_dict`` leaf and
every linear statistic move by that many times the measured step, and
moment statistics replay the request's samples.  ARCHITECTURE.md
"Fast-forwarding a repeated request" gives the argument.
"""

from typing import Optional

from repro.sim import ticks
from repro.sim.checkpoint import CheckpointError, _describe_event
from repro.sim.process import Delay, Process, WaitFor
from repro.sim.simobject import Origin, SimObject, Simulator
from repro.sim.stats import Replayable


class _Differs(Exception):
    """Two snapshots differ in more than numbers."""


def _extrapolate(new, old, times: int):
    """``new + times * (new - old)`` leaf by leaf; a float only by an
    integral step (exact), and nothing else may move."""
    if isinstance(new, dict):
        if not isinstance(old, dict) or new.keys() != old.keys():
            raise _Differs
        return {key: _extrapolate(new[key], old[key], times) for key in new}
    if isinstance(new, list):
        if not isinstance(old, list) or len(new) != len(old):
            raise _Differs
        return [_extrapolate(a, b, times) for a, b in zip(new, old)]
    if type(new) in (int, float) and type(old) is type(new):
        step = new - old
        if type(step) is float and not step.is_integer():
            raise _Differs
        return new + times * step
    if new != old:
        raise _Differs
    return new


class _Cursor:
    """A transfer's position, which a skip moves forward."""

    def __init__(self, lba: int, buf: int, remaining: int):
        self.lba, self.buf, self.remaining, self.start = lba, buf, remaining, 0
        self.last: Optional[tuple] = None  # snapshot at the last boundary
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
        #: Requests skipped, not simulated (not a stat: stats documents
        #: must not depend on it).
        self.requests_fast_forwarded = 0

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
        cur = _Cursor(lba, buffer_addr, n_sectors)
        per_request = self.max_sectors_per_request
        sector_bytes = driver.sector_size
        while cur.remaining:
            chunk = min(cur.remaining, per_request)
            cur.start = self.curtick
            self.requests_submitted.inc()
            if not cur.at_completion:
                self._maybe_pause(cur, driver)
            yield Delay(self.submit_overhead + chunk * self.per_sector_overhead)
            completion = yield from driver.start_request(
                cur.lba, chunk, cur.buf, is_write
            )
            yield WaitFor(completion)
            if cur.at_completion:
                self._maybe_pause(cur, driver)
            yield Delay(self.complete_overhead)
            self.request_ticks.sample(self.curtick - cur.start)
            self.sectors_moved.inc(chunk)
            cur.remaining -= chunk
            cur.lba += chunk
            cur.buf += chunk * sector_bytes
        if cur.last is not None:
            self._harvest_tapes()

    # -- fast-forward ------------------------------------------------------
    def _maybe_pause(self, cur: _Cursor, driver) -> None:
        """Pause here if a snapshot could still lead to a skip."""
        later = cur.remaining // self.max_sectors_per_request - 1
        if later >= 2 or (later == 1 and cur.last is not None):
            self.sim.pause(
                lambda until, limit: self._boundary(cur, driver, until, limit))

    def _harvest_tapes(self) -> dict:
        """Disarm every replayable stat's tape; return what each holds."""
        tapes = {}
        for __, stat in self.sim.stats.walk(""):
            if isinstance(stat, Replayable):
                tapes[stat], stat.tape = stat.tape, None
        return tapes

    def _snapshot(self, cur: _Cursor, driver) -> Optional[tuple]:
        """``(relative, raw, tapes)`` at a boundary; None with the tracer
        or checker armed, another process unfinished, or anything a
        checkpoint would refuse."""
        sim, eventq = self.sim, self.eventq
        tapes = self._harvest_tapes()
        if sim.tracer.enabled or sim.checker.enabled:
            return None
        running = [obj for obj in sim._objects if isinstance(obj, Process)
                   and obj.start_tick is not None and not obj.done]
        if len(running) != 1:  # this transfer's own process, and no other
            return None
        tick, seq = eventq.curtick, eventq._next_seq
        origin = Origin(tick, cur.buf, cur.lba, getattr(driver, "device", None))
        relative, states = {}, {}
        try:
            for obj in sim._objects:
                state = obj.state_dict() if obj is not running[0] else None
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
        for __, stat in sim.stats.walk(""):
            if stat in tapes:
                stat.tape = []  # records the coming request's samples
            elif stat.state_dict() is not None:
                states[stat] = stat.state_dict()
        queue = [tick, seq, eventq.events_processed]
        return (relative, pending), (queue, states), tapes

    def _boundary(self, cur: _Cursor, driver, until: Optional[int],
                  limit: Optional[int]) -> None:
        """Snapshot; if the last boundary agrees, skip every later
        full-size request that fits before ``until`` and the event
        ``limit``, unless they leave the proven request's memory range or
        the disk."""
        last, snap = cur.last, self._snapshot(cur, driver)
        cur.last = snap
        if snap is None:
            cur.at_completion = False
        if last is None or snap is None or snap[0] != last[0]:
            return
        (queue, states), (last_queue, last_states) = snap[1], last[1]
        step = [a - b for a, b in zip(queue, last_queue)]
        per_request = self.max_sectors_per_request
        request_bytes = per_request * driver.sector_size
        times = cur.remaining // per_request - 1
        if until is not None:
            times = min(times, (until - queue[0]) // max(step[0], 1))
        if limit is not None:
            times = min(times, (limit - queue[2]) // max(step[2], 1))
        # The proven and skipped requests, counted from the cursor.
        first = 0 if cur.at_completion else -1
        end = first + times + 1
        capacity = getattr(getattr(driver, "device", None), "capacity_sectors", 0)
        if (times < 1 or cur.lba + end * per_request > capacity
                or not self._one_memory(cur.buf + first * request_bytes,
                                        cur.buf + end * request_bytes)):
            return
        try:
            ahead = _extrapolate(states, last_states, times)
        except _Differs:
            return
        self.eventq.advance(*(times * d for d in step))
        for owner, state in ahead.items():
            owner.load_state_dict(state)
        for stat, samples in snap[2].items():  # the proven request's
            stat.replay(samples, times)
        cur.start += times * step[0]
        cur.lba += times * per_request
        cur.buf += times * request_bytes
        cur.remaining -= times * per_request
        cur.last = None  # its raw half is stale now: prove afresh
        self.requests_fast_forwarded += times

    def _one_memory(self, lo: int, hi: int) -> bool:
        """True when one memory object's range holds all of [lo, hi)."""
        for obj in self.sim._objects:
            rng = getattr(obj, "range", None)
            if rng is not None and rng.start <= lo and hi <= rng.end:
                return True
        return False
