"""The IOCache.

gem5 places a small cache between the IO world and the memory bus: it
keeps DMA accesses coherent with the processor caches and acts as a
bandwidth buffer between connections of different widths.  The paper's
root complex sends all DMA-generated memory requests through an IOCache
before they reach the MemBus (Figure 6).

The model is a set-associative, write-back, write-allocate cache with
LRU replacement:

* **read hit** — respond after ``hit_latency``;
* **read miss** — forward a line fill to memory, respond when it
  returns (one MSHR per outstanding miss, bounded);
* **full-line write** — allocate without fetching (DMA streams write
  whole cache lines), mark dirty, respond after ``hit_latency``;
* **partial write** — write-through: forward to memory and respond when
  memory acknowledges;
* **dirty eviction** — emit a writeback through a bounded writeback
  buffer; a full buffer stalls new allocations (backpressure).
"""

from collections import OrderedDict
from typing import Dict, Optional

from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, PacketQueue, SlavePort
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool):
        self.tag = tag
        self.dirty = dirty


class IOCache(SimObject):
    """A small DMA-coherency cache (gem5's IOCache).

    Args:
        size: capacity in bytes (gem5 default is tiny: 1 KiB).
        line_size: cache line size in bytes.
        assoc: set associativity.
        hit_latency: ticks from acceptance to response on a hit.
        lookup_latency: ticks consumed before a miss is forwarded.
        mshrs: maximum outstanding misses.
        writeback_entries: bounded dirty-eviction buffer.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Optional[SimObject] = None,
        size: int = 1024,
        line_size: int = 64,
        assoc: int = 4,
        hit_latency: int = ticks.from_ns(5),
        lookup_latency: int = ticks.from_ns(2),
        mshrs: int = 16,
        writeback_entries: int = 8,
    ):
        super().__init__(sim, name, parent)
        if size % (line_size * assoc) != 0:
            raise ValueError("size must be a multiple of line_size * assoc")
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = size // (line_size * assoc)
        self.hit_latency = hit_latency
        self.lookup_latency = lookup_latency
        self.mshrs = mshrs

        # sets[index] maps tag -> _Line, ordered by recency (LRU first).
        self._sets: Dict[int, OrderedDict] = {
            i: OrderedDict() for i in range(self.num_sets)
        }
        # Outstanding misses / write-throughs keyed by forwarded req id.
        self._outstanding: Dict[int, Packet] = {}
        self._writebacks_in_flight = 0
        self._writeback_entries = writeback_entries

        self.cpu_side = SlavePort(
            self,
            "cpu_side",
            recv_timing_req=self._recv_request,
        )
        self.mem_side = MasterPort(
            self,
            "mem_side",
            recv_timing_resp=self._recv_mem_response,
        )
        self._resp_queue = PacketQueue(
            self, "respq", self.cpu_side.send_timing_resp, mshrs + writeback_entries
        )
        self._resp_queue.on_space_freed = self._maybe_retry_cpu
        self._mem_queue = PacketQueue(
            self, "memq", self.mem_side.send_timing_req, mshrs + writeback_entries
        )
        self._mem_queue.on_space_freed = self._maybe_retry_cpu
        self.cpu_side.recv_resp_retry = self._resp_queue.retry
        self.mem_side.recv_req_retry = self._mem_queue.retry

        self.hits = self.stats.scalar("hits")
        self.misses = self.stats.scalar("misses")
        self.writebacks = self.stats.scalar("writebacks")
        self.allocations = self.stats.scalar("allocations")

    # -- geometry ------------------------------------------------------------
    def _index_tag(self, addr: int):
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def _is_full_line(self, pkt: Packet) -> bool:
        return pkt.size >= self.line_size and pkt.addr % self.line_size == 0

    def _trace_access(self, pkt: Packet, ev: str) -> None:
        trc = self.tracer
        if trc.enabled:
            trc.emit(self.eventq.curtick, "cache", self.full_name, ev,
                     tlp=trc.tlp_id(pkt.req_id),
                     inflight=len(self._outstanding))

    # -- request path ----------------------------------------------------------
    def _recv_request(self, pkt: Packet) -> bool:
        if pkt.is_read:
            return self._handle_read(pkt)
        return self._handle_write(pkt)

    def _handle_read(self, pkt: Packet) -> bool:
        index, tag = self._index_tag(pkt.addr)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits.total += 1
            self._trace_access(pkt, "read_hit")
            return self._resp_queue.push(pkt.make_response(), self.hit_latency)
        if len(self._outstanding) >= self.mshrs or self._mem_queue.full:
            return False
        self.misses.total += 1
        self._outstanding[pkt.req_id] = pkt
        self._trace_access(pkt, "read_miss")
        pushed = self._mem_queue.push(pkt, self.lookup_latency)
        assert pushed
        return True

    def _handle_write(self, pkt: Packet) -> bool:
        index, tag = self._index_tag(pkt.addr)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            cache_set[tag].dirty = True
            self.hits.total += 1
            self._trace_access(pkt, "write_hit")
            return self._respond_to_write(pkt, self.hit_latency)
        if self._is_full_line(pkt):
            # Allocate without fetching; may need a writeback slot.
            if not self._can_allocate(cache_set):
                return False
            if self._resp_queue.full:
                return False
            self._allocate(index, tag, dirty=True)
            self.allocations.total += 1
            self._trace_access(pkt, "write_alloc")
            return self._respond_to_write(pkt, self.hit_latency)
        # Posted partial write (an MSI message): forward and forget.
        # Nothing will ever acknowledge it, so holding an MSHR would
        # leak the slot and wedge all DMA after ``mshrs`` interrupts.
        if not pkt.needs_response:
            if self._mem_queue.full:
                return False
            self.misses.total += 1
            self._trace_access(pkt, "write_through")
            pushed = self._mem_queue.push(pkt, self.lookup_latency)
            assert pushed
            return True
        # Partial write: write-through, respond on memory's ack.
        if len(self._outstanding) >= self.mshrs or self._mem_queue.full:
            return False
        self.misses.total += 1
        self._outstanding[pkt.req_id] = pkt
        self._trace_access(pkt, "write_through")
        pushed = self._mem_queue.push(pkt, self.lookup_latency)
        assert pushed
        return True

    def _respond_to_write(self, pkt: Packet, delay: int) -> bool:
        if not pkt.needs_response:
            return True
        return self._resp_queue.push(pkt.make_response(), delay)

    # -- allocation / eviction ---------------------------------------------------
    def _can_allocate(self, cache_set: OrderedDict) -> bool:
        if len(cache_set) < self.assoc:
            return True
        victim = next(iter(cache_set.values()))
        if not victim.dirty:
            return True
        return (
            self._writebacks_in_flight < self._writeback_entries
            and not self._mem_queue.full
        )

    def _allocate(self, index: int, tag: int, dirty: bool) -> None:
        cache_set = self._sets[index]
        if len(cache_set) >= self.assoc:
            victim_tag, victim = cache_set.popitem(last=False)
            if victim.dirty:
                self._emit_writeback(victim_tag, index)
        cache_set[tag] = _Line(tag, dirty)

    def _emit_writeback(self, tag: int, index: int) -> None:
        # Reconstruct the victim line address from its tag and set index.
        addr = (tag * self.num_sets + index) * self.line_size
        writeback = Packet(
            MemCmd.WRITE_REQ,
            addr,
            self.line_size,
            data=bytes(self.line_size),
            requestor=self.full_name,
            create_tick=self.eventq.curtick,
        )
        self._writebacks_in_flight += 1
        self.writebacks.total += 1
        self._outstanding[writeback.req_id] = writeback
        self._trace_access(writeback, "writeback")
        pushed = self._mem_queue.push(writeback, self.lookup_latency)
        assert pushed, "_can_allocate reserved a slot"

    # -- checkpointing ----------------------------------------------------
    # Outstanding misses and writebacks hold live packets.
    in_flight = ("_outstanding", "_writebacks_in_flight", "_resp_queue",
                 "_mem_queue")

    def state_dict(self) -> dict:
        """Cache contents: per-set ``[tag, dirty]`` pairs in LRU order.

        Tag arrays persist across quiescence and determine every future
        hit/miss, so they must be captured exactly — including the LRU
        recency ordering, which JSON lists preserve.
        """
        state = super().state_dict()
        state["sets"] = {
            str(index): [[line.tag, line.dirty] for line in lines.values()]
            for index, lines in self._sets.items() if lines
        }
        return state

    def relative_state(self, state: dict, origin) -> dict:
        """Tags relative to the cursor's tag, plus the cursor's offset
        within one tag's span, so equal states also map the coming
        addresses onto the same sets."""
        span = self.line_size * self.num_sets
        base = origin.addr // span
        return dict(
            super().relative_state(state, origin),
            phase=origin.addr % span,
            sets={index: [[tag - base, dirty] for tag, dirty in lines]
                  for index, lines in state["sets"].items()})

    def load_state_dict(self, state: dict) -> None:
        """Repopulate the tag arrays captured by :meth:`state_dict`."""
        state = dict(state)
        sets = state.pop("sets")
        super().load_state_dict(state)
        for lines in self._sets.values():
            lines.clear()
        for index, entries in sets.items():
            cache_set = self._sets[int(index)]
            for tag, dirty in entries:
                cache_set[tag] = _Line(tag, dirty)

    # -- response path -----------------------------------------------------------
    def _recv_mem_response(self, pkt: Packet) -> bool:
        original = self._outstanding.get(pkt.req_id)
        if original is None:
            return True  # stale (shouldn't happen, but don't wedge the bus)
        if original.requestor == self.full_name:
            # Writeback acknowledgement.
            del self._outstanding[pkt.req_id]
            self._writebacks_in_flight -= 1
            self._maybe_retry_cpu()
            return True
        if self._resp_queue.full:
            return False
        del self._outstanding[pkt.req_id]
        if original.is_read:
            index, tag = self._index_tag(original.addr)
            cache_set = self._sets[index]
            if tag not in cache_set and self._can_allocate(cache_set):
                self._allocate(index, tag, dirty=False)
                self.allocations.total += 1
        pushed = self._resp_queue.push(pkt, 0)
        assert pushed
        self._maybe_retry_cpu()
        return True

    def _maybe_retry_cpu(self) -> None:
        if self.cpu_side.retry_owed:
            self.cpu_side.send_retry_req()
        # A full response queue also refuses memory-side responses; now
        # that space freed, let the memory bus re-deliver them.
        if self.mem_side.resp_retry_owed and not self._resp_queue.full:
            self.mem_side.send_retry_resp()
