"""The structured error raised (or recorded) on a protocol violation.

An :class:`InvariantViolation` is deliberately more than an assert: it
carries the *rule* that fired, the dotted path of the component it
fired on, the simulated tick, a human-readable detail string, and the
most recent event dispatches the checker's ring captured, formatted as
the tracer's ``eventq`` ``dispatch`` events.  The run is deterministic,
so the full TLP-level trace of the lead-up is one traced rerun to the
violation's tick away.
"""

from typing import List, Optional, Sequence


class InvariantViolation(RuntimeError):
    """A machine-checked protocol rule was broken.

    Attributes:
        rule: dotted rule identifier (``"link.replay_deadlock"``,
            ``"port.resp_conservation"``, ``"eventq.time_monotonic"``…).
        component: full dotted name of the component the rule fired on.
        tick: simulated tick at which the violation was observed.
        detail: human-readable description of what went wrong.
        context: the most recent dispatch events (oldest first) from the
            checker's ring, or an empty list when context capture is off.
    """

    #: How many trailing context events :meth:`__str__` renders.
    CONTEXT_LINES = 10

    def __init__(self, rule: str, component: str, tick: int, detail: str,
                 context: Optional[Sequence[dict]] = None):
        self.rule = rule
        self.component = component
        self.tick = tick
        self.detail = detail
        self.context: List[dict] = list(context or [])
        super().__init__(self.__str__())

    def __str__(self) -> str:
        lines = [
            f"invariant {self.rule!r} violated by {self.component} "
            f"at tick {self.tick}: {self.detail}"
        ]
        if self.context:
            tail = self.context[-self.CONTEXT_LINES:]
            lines.append(f"last {len(tail)} trace events:")
            for event in tail:
                t = event.get("t")
                comp = event.get("comp")
                ev = event.get("ev")
                rest = {k: v for k, v in event.items()
                        if k not in ("t", "cat", "comp", "ev")}
                lines.append(f"  t={t} {comp} {ev} {rest}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<InvariantViolation {self.rule!r} comp={self.component!r} "
                f"tick={self.tick}>")
