"""A small statistics framework in the spirit of gem5's.

Simulation objects register named statistics; at the end of a run the
whole tree can be dumped to a flat ``dict`` or pretty-printed.  Four stat
kinds cover everything the library needs:

* :class:`Scalar` — a counter or gauge (packets sent, bytes moved).
* :class:`Average` — running mean of samples (queue occupancy).
* :class:`Distribution` — min/max/mean/stddev plus sample count
  (latency distributions).
* :class:`Quantiles` — exact percentiles from retained samples
  (tail latencies: p50/p99/p999 of per-request times).
* :class:`Formula` — a value computed from other stats at dump time
  (throughput = bytes / seconds).
"""

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Stat:
    """Base class: a named, described statistic."""

    def __init__(self, name: str, desc: str = ""):
        if not name:
            raise ValueError("stat name must be non-empty")
        self.name = name
        self.desc = desc

    def value(self) -> Number:
        """The stat's headline value (subclasses define its meaning)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return the stat to its just-constructed state."""
        raise NotImplementedError

    def dump(self) -> Dict[str, Number]:
        """Return the stat as a flat {suffix: value} mapping."""
        return {"": self.value()}

    def state_dict(self) -> Optional[Dict]:
        """Checkpointable state, or None for derived/stateless stats."""
        return None

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output (stateless stats refuse)."""
        raise ValueError(f"stat {self.name!r} ({type(self).__name__}) "
                         f"holds no checkpointable state")


class Scalar(Stat):
    """A simple accumulating counter / settable gauge.

    The running value is the public attribute :attr:`total`; per-packet
    code adds to it in place (``stat.total += n``) instead of paying a
    Python call to :meth:`inc` on every TLP hop.
    """

    def __init__(self, name: str, desc: str = "", init: Number = 0):
        # Stat.__init__ inlined: a machine builds hundreds of counters.
        if not name:
            raise ValueError("stat name must be non-empty")
        self.name = name
        self.desc = desc
        self._init = init
        self.total: Number = init

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (counter usage)."""
        self.total += amount

    def set(self, value: Number) -> None:
        """Overwrite the value (gauge usage)."""
        self.total = value

    def value(self) -> Number:
        """Current count / gauge value."""
        return self.total

    def reset(self) -> None:
        """Restore the initial value."""
        self.total = self._init

    def __iadd__(self, amount: Number) -> "Scalar":
        self.inc(amount)
        return self

    def state_dict(self) -> Dict:
        """The current value (the initial value is reconstructed)."""
        return {"value": self.total}

    def load_state_dict(self, state: Dict) -> None:
        """Restore the captured value."""
        self.total = state["value"]


class Average(Stat):
    """Arithmetic mean of all samples.

    The running sum and sample count are the public attributes
    ``total`` and ``count``, so per-packet code samples in place
    (``avg.total += x; avg.count += 1``), as it bumps a
    :class:`Scalar`'s ``total``.
    """

    def __init__(self, name: str, desc: str = ""):
        super().__init__(name, desc)
        self.total: float = 0.0
        self.count: int = 0

    def sample(self, value: Number) -> None:
        """Fold one observation into the mean."""
        self.total += value
        self.count += 1

    def value(self) -> float:
        """The running mean (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Discard all samples."""
        self.total = 0.0
        self.count = 0

    def state_dict(self) -> Dict:
        """The running sum and sample count."""
        return {"sum": self.total, "count": self.count}

    def load_state_dict(self, state: Dict) -> None:
        """Restore the captured sum/count."""
        self.total = state["sum"]
        self.count = state["count"]


class Replayable:
    """A stat not linear in its samples: while :attr:`tape` is a list
    every sample is also recorded there, and :meth:`replay` feeds
    recorded samples back in order, reproducing the state bit for bit
    (how a skipped, repeated span is accounted)."""

    tape: Optional[List[Number]] = None

    def replay(self, samples: Sequence[Number], times: int) -> None:
        """Sample ``samples`` ``times`` over.  Replayed samples land on
        the tape armed now, so a span skipped inside a longer taped span
        is recorded there too."""
        for __ in range(times):
            for value in samples:
                self.sample(value)  # type: ignore[attr-defined]


class Distribution(Replayable, Stat):
    """Streaming min / max / mean / standard deviation of samples.

    Uses Welford's online algorithm, which stays numerically stable
    even for tightly-clustered samples at large magnitudes (the naive
    sum-of-squares formula cancels catastrophically there)."""

    def __init__(self, name: str, desc: str = ""):
        super().__init__(name, desc)
        self.reset()

    def sample(self, value: Number) -> None:
        """Fold one observation into the running moments."""
        tape = self.tape
        if tape is not None:
            tape.append(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 before any sample)."""
        return self._mean if self._count else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return math.sqrt(max(self._m2 / (self._count - 1), 0.0))

    @property
    def minimum(self) -> Optional[Number]:
        """Smallest sample seen, or None before any sample."""
        return self._min

    @property
    def maximum(self) -> Optional[Number]:
        """Largest sample seen, or None before any sample."""
        return self._max

    def value(self) -> float:
        """Headline value: the mean."""
        return self.mean

    def reset(self) -> None:
        """Discard all samples and moments."""
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None

    def dump(self) -> Dict[str, Number]:
        """All moments, gem5-style ``::suffix`` keyed."""
        return {
            "::count": self._count,
            "::mean": self.mean,
            "::stddev": self.stddev,
            "::min": self._min if self._min is not None else 0,
            "::max": self._max if self._max is not None else 0,
        }

    def state_dict(self) -> Dict:
        """Welford moments plus extrema (None extrema survive as null)."""
        return {"count": self._count, "mean": self._mean, "m2": self._m2,
                "min": self._min, "max": self._max}

    def load_state_dict(self, state: Dict) -> None:
        """Restore the captured moments."""
        self._count = state["count"]
        self._mean = state["mean"]
        self._m2 = state["m2"]
        self._min = state["min"]
        self._max = state["max"]


def percentile(samples: Sequence[Number], fraction: float) -> Number:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of ``samples`` at or below it (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(max(1, math.ceil(fraction * len(ordered))), len(ordered))
    return ordered[rank - 1]


#: Default percentile points of a :class:`Quantiles` stat: the tail
#: percentiles fairness analysis reports (``p999`` = 99.9th).
QUANTILE_POINTS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p99", 0.99), ("p999", 0.999),
)


class Quantiles(Replayable, Stat):
    """Exact percentiles over every retained sample.

    Tail percentiles cannot be recovered from streaming moments, so
    this stat keeps its samples — use it for *bounded* sample counts
    (per-request latencies of a flow), never per-packet event streams.
    Percentiles use the nearest-rank definition on the sorted samples,
    which is exact, deterministic, and never interpolates a value that
    was not observed.
    """

    def __init__(self, name: str, desc: str = "",
                 points: Sequence[Tuple[str, float]] = QUANTILE_POINTS):
        super().__init__(name, desc)
        self.points: Tuple[Tuple[str, float], ...] = tuple(points)
        for label, fraction in self.points:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"quantile {label!r}: fraction {fraction} outside (0, 1]")
        self._samples: List[Number] = []

    def sample(self, value: Number) -> None:
        """Retain one observation."""
        tape = self.tape
        if tape is not None:
            tape.append(value)
        self._samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples retained."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 before any sample)."""
        return (sum(self._samples) / len(self._samples)
                if self._samples else 0.0)

    @property
    def minimum(self) -> Optional[Number]:
        """Smallest sample seen, or None before any sample."""
        return min(self._samples) if self._samples else None

    @property
    def maximum(self) -> Optional[Number]:
        """Largest sample seen, or None before any sample."""
        return max(self._samples) if self._samples else None

    def percentile(self, fraction: float) -> Number:
        """The :func:`percentile` of the retained samples."""
        return percentile(self._samples, fraction)

    def value(self) -> Number:
        """Headline value: the median."""
        return self.percentile(0.5)

    def reset(self) -> None:
        """Discard all samples."""
        self._samples = []

    def dump(self) -> Dict[str, Number]:
        """Count, mean, configured percentiles and max, ``::``-keyed."""
        out: Dict[str, Number] = {"::count": self.count, "::mean": self.mean}
        for label, fraction in self.points:
            out[f"::{label}"] = self.percentile(fraction)
        out["::max"] = self.maximum if self.maximum is not None else 0
        return out

    def state_dict(self) -> Dict:
        """The retained samples, in observation order."""
        return {"samples": list(self._samples)}

    def load_state_dict(self, state: Dict) -> None:
        """Restore the captured samples."""
        self._samples = list(state["samples"])


class Formula(Stat):
    """A stat computed on demand from a callable (usually a lambda
    closing over other stats)."""

    def __init__(self, name: str, func: Callable[[], Number], desc: str = ""):
        super().__init__(name, desc)
        self._func = func

    def value(self) -> Number:
        """Evaluate the formula now (division by zero reads as 0.0)."""
        try:
            return self._func()
        except ZeroDivisionError:
            return 0.0

    def reset(self) -> None:
        """No state of its own; the stats it reads reset themselves."""
        pass


class StatGroup:
    """A named collection of stats and child groups, forming a tree that
    mirrors the :class:`~repro.sim.simobject.SimObject` hierarchy."""

    def __init__(self, name: str = ""):
        self.name = name
        self._stats: List[Stat] = []
        self._children: List["StatGroup"] = []

    def add(self, stat: Stat) -> Stat:
        """Register an existing stat in this group; returns it."""
        self._stats.append(stat)
        return stat

    def scalar(self, name: str, desc: str = "") -> Scalar:
        """Create and register a :class:`Scalar`."""
        stat = Scalar(name, desc)
        self._stats.append(stat)
        return stat

    def average(self, name: str, desc: str = "") -> Average:
        """Create and register an :class:`Average`."""
        stat = Average(name, desc)
        self._stats.append(stat)
        return stat

    def distribution(self, name: str, desc: str = "") -> Distribution:
        """Create and register a :class:`Distribution`."""
        return self.add(Distribution(name, desc))  # type: ignore[return-value]

    def quantiles(self, name: str, desc: str = "",
                  points: Sequence[Tuple[str, float]] = QUANTILE_POINTS) -> Quantiles:
        """Create and register a :class:`Quantiles`."""
        return self.add(Quantiles(name, desc, points))  # type: ignore[return-value]

    def formula(self, name: str, func: Callable[[], Number], desc: str = "") -> Formula:
        """Create and register a :class:`Formula` over ``func``."""
        stat = Formula(name, func, desc)
        self._stats.append(stat)
        return stat

    def add_child(self, child: "StatGroup") -> "StatGroup":
        """Nest another group under this one; returns the child."""
        self._children.append(child)
        return child

    def reset(self) -> None:
        """Reset every stat in this group and all children."""
        for stat in self._stats:
            stat.reset()
        for child in self._children:
            child.reset()

    def walk(self, prefix: str = ""):
        """Yield ``(dotted_name, stat)`` for every stat in the tree.

        Unlike :meth:`dump` this keeps the typed :class:`Stat` objects,
        so consumers (the structured exporter) can record kind,
        description and distribution moments rather than one number.
        """
        base = f"{prefix}{self.name}." if self.name else prefix
        for stat in self._stats:
            yield f"{base}{stat.name}", stat
        for child in self._children:
            yield from child.walk(base)

    def dump(self, prefix: str = "") -> Dict[str, Number]:
        """Flatten the tree into ``{dotted.name: value}``."""
        base = f"{prefix}{self.name}." if self.name else prefix
        out: Dict[str, Number] = {}
        for stat in self._stats:
            for suffix, value in stat.dump().items():
                out[f"{base}{stat.name}{suffix}"] = value
        for child in self._children:
            out.update(child.dump(base))
        return out

    def pretty(self) -> str:
        """Human-readable multi-line dump, aligned like gem5's stats.txt."""
        flat = self.dump()
        if not flat:
            return ""
        width = max(len(key) for key in flat)
        lines = []
        for key, value in sorted(flat.items()):
            if isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"{key.ljust(width)}  {rendered}")
        return "\n".join(lines)
