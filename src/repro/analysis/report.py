"""Tables and series in the shape the paper reports them.

The benchmark harness uses these to print each figure/table as rows
(one per x-axis point, one column per series), which is also what
EXPERIMENTS.md records.

This module also holds the trace-analysis side of the observability
layer: :func:`trace_latency_breakdown` turns a JSONL TLP-lifecycle
trace (:mod:`repro.obs.trace`) into a per-TLP attribution of where time
went — on the wire, waiting for replays, or resident in root-complex /
switch port buffers — and :func:`reconcile_trace_with_link` checks the
trace-derived event counts against a live link's statistics.
"""

from typing import Dict, Iterable, List, Optional, Union

from repro.sim.stats import percentile  # noqa: F401 (re-export)
from repro.workloads.traffic import jain_fairness  # noqa: F401 (re-export)


class Series:
    """One line of a figure: a name plus y-values keyed by x."""

    def __init__(self, name: str, points: Optional[Dict] = None):
        self.name = name
        self.points: Dict = dict(points or {})

    def add(self, x, y) -> None:
        self.points[x] = y

    def __getitem__(self, x):
        return self.points[x]

    def xs(self) -> List:
        return sorted(self.points)


class Table:
    """A figure/table: several series over a shared x-axis."""

    def __init__(self, title: str, x_label: str, y_label: str):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series: List[Series] = []

    def new_series(self, name: str) -> Series:
        series = Series(name)
        self.series.append(series)
        return series

    def xs(self) -> List:
        out = []
        for series in self.series:
            for x in series.points:
                if x not in out:
                    out.append(x)
        return sorted(out)

    def render(self, fmt: str = "{:.3f}") -> str:
        return format_table(self, fmt)


def format_table(table: Table, fmt: str = "{:.3f}") -> str:
    """Fixed-width text rendering of a :class:`Table`."""
    headers = [table.x_label] + [s.name for s in table.series]
    rows = []
    for x in table.xs():
        row = [str(x)]
        for series in table.series:
            value = series.points.get(x)
            row.append(fmt.format(value) if value is not None else "-")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        f"# {table.title}  ({table.y_label})",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


#: Schema of :func:`trace_latency_breakdown`'s result.  Additive keys
#: keep the version; renames/removals/semantic changes bump it.
LATENCY_SCHEMA = "repro-latency/1"

#: Link-interface statistics reconciled against trace-derived counts,
#: mapped to the trace events that count them.
_RECONCILED_STATS = {
    "acks_sent": ("dllp_tx", "ack"),
    "naks_sent": ("dllp_tx", "nak"),
    "replays": ("tlp_tx_replay", None),
    "delivery_refused": ("tlp_refused", None),
    "timeouts": ("replay_timeout", None),
}


def _tlp_key(tlp: int, resp: bool) -> str:
    return f"{tlp}/{'resp' if resp else 'req'}"


def trace_latency_breakdown(
    trace: Union[str, Iterable[str], List[dict]],
) -> dict:
    """Per-TLP latency attribution from a lifecycle trace.

    ``trace`` is a path to a JSONL trace, an iterable of its lines, or
    an already-parsed event list (``MemorySink.events``).

    A TLP's journey decomposes into *link traversals* (first ``tlp_tx``
    at an interface until ``tlp_deliver`` at its peer; time between the
    first and last transmission is replay/recovery, the remainder is
    serialization and flight) and *engine residencies* (``ingress`` to
    ``egress`` of a root-complex or switch port).  Requests and
    responses of one transaction share a tracer-local TLP id and are
    kept apart by the ``resp`` flag.

    Returns a dict with:

    * ``tlps`` — per-TLP records keyed ``"<id>/req"`` / ``"<id>/resp"``
      with ``link_ticks``, ``replay_ticks``, ``serialization_ticks``,
      ``engine_ticks``, ``replays``, ``refusals`` and ``traversals``;
    * ``totals`` — the same fields summed, plus ``tlps`` and
      ``unresolved`` (transmissions never delivered — wasted
      retransmissions of already-delivered TLPs, or in-flight at trace
      end);
    * ``event_counts`` — per-component counters of the link events the
      statistics track, for reconciliation;
    * ``engine_residency`` — per-component queueing summary
      (``count``/``ticks``/``max``) of the engine residencies, so the
      queueing delay at a shared uplink's ports reads directly off the
      trace.
    """
    if isinstance(trace, str) or (trace and isinstance(trace, list)
                                  and isinstance(trace[0], str)):
        from repro.obs.trace import load_trace

        __, events = load_trace(trace)
    elif trace and isinstance(trace, list) and isinstance(trace[0], dict):
        events = trace
    else:
        events = list(trace)

    tlps: Dict[str, dict] = {}
    counts: Dict[str, Dict[str, int]] = {}
    # Open link traversals / engine residencies, keyed by TLP identity.
    open_tx: Dict[str, dict] = {}
    open_ingress: Dict[tuple, int] = {}
    residency: Dict[str, Dict[str, int]] = {}
    unresolved = 0

    def record(key: str) -> dict:
        rec = tlps.get(key)
        if rec is None:
            rec = tlps[key] = {
                "first_seen": None, "delivered": None,
                "link_ticks": 0, "replay_ticks": 0,
                "serialization_ticks": 0, "engine_ticks": 0,
                "replays": 0, "refusals": 0, "traversals": 0,
            }
        return rec

    def bump(comp: str, what: str) -> None:
        comp_counts = counts.setdefault(comp, {})
        comp_counts[what] = comp_counts.get(what, 0) + 1

    for event in events:
        cat = event.get("cat")
        ev = event["ev"]
        t = event["t"]
        comp = event["comp"]
        if cat == "link":
            if ev == "tlp_tx":
                key = _tlp_key(event["tlp"], event.get("resp", False))
                rec = record(key)
                if rec["first_seen"] is None:
                    rec["first_seen"] = t
                if event.get("replay"):
                    rec["replays"] += 1
                    bump(comp, "tlp_tx_replay")
                traversal = open_tx.get(key)
                if traversal is None:
                    open_tx[key] = {"first": t, "last": t, "comp": comp}
                else:
                    traversal["last"] = t
            elif ev == "tlp_deliver":
                key = _tlp_key(event["tlp"], event.get("resp", False))
                rec = record(key)
                rec["delivered"] = t
                traversal = open_tx.pop(key, None)
                if traversal is not None:
                    rec["traversals"] += 1
                    rec["link_ticks"] += t - traversal["first"]
                    rec["replay_ticks"] += traversal["last"] - traversal["first"]
                    rec["serialization_ticks"] += t - traversal["last"]
            elif ev == "tlp_refused":
                # Refusal events carry no direction flag; charge the
                # side with an open traversal (a request and its
                # response are never in flight on a link at once).
                for resp in (False, True):
                    key = _tlp_key(event["tlp"], resp)
                    if key in open_tx:
                        record(key)["refusals"] += 1
                        break
                else:
                    record(_tlp_key(event["tlp"], False))["refusals"] += 1
                bump(comp, "tlp_refused")
            elif ev == "dllp_tx":
                bump(comp, "dllp_tx_" + event["kind"])
            elif ev == "replay_timeout":
                bump(comp, "replay_timeout")
            elif ev in ("tlp_corrupt", "tlp_out_of_seq", "dllp_corrupt",
                        "dllp_rx"):
                bump(comp, ev)
        elif cat == "engine":
            if ev == "ingress":
                open_ingress[(event["tlp"], event.get("resp", False), comp)] = t
            elif ev == "egress":
                start = open_ingress.pop(
                    (event["tlp"], event.get("resp", False), comp), None
                )
                if start is not None:
                    key = _tlp_key(event["tlp"], event.get("resp", False))
                    record(key)["engine_ticks"] += t - start
                    summary = residency.setdefault(
                        comp, {"count": 0, "ticks": 0, "max": 0})
                    summary["count"] += 1
                    summary["ticks"] += t - start
                    summary["max"] = max(summary["max"], t - start)

    unresolved = len(open_tx) + len(open_ingress)
    totals = {
        "tlps": len(tlps),
        "link_ticks": sum(r["link_ticks"] for r in tlps.values()),
        "replay_ticks": sum(r["replay_ticks"] for r in tlps.values()),
        "serialization_ticks": sum(
            r["serialization_ticks"] for r in tlps.values()
        ),
        "engine_ticks": sum(r["engine_ticks"] for r in tlps.values()),
        "replays": sum(r["replays"] for r in tlps.values()),
        "refusals": sum(r["refusals"] for r in tlps.values()),
        "unresolved": unresolved,
    }
    return {
        "schema": LATENCY_SCHEMA,
        "tlps": tlps,
        "totals": totals,
        "event_counts": counts,
        "engine_residency": residency,
    }


def reconcile_trace_with_link(breakdown: dict, link) -> Dict[str, dict]:
    """Compare a breakdown's event counts against a link's statistics.

    Returns ``{interface_full_name: {stat: {"stat": v, "trace": v}}}``
    for every reconciled counter of both interfaces.  The two columns
    agree exactly when the trace covered the whole run — this is the
    acceptance check the golden suite automates.
    """
    out: Dict[str, dict] = {}
    for interface in (link.upstream_if, link.downstream_if):
        comp_counts = breakdown["event_counts"].get(interface.full_name, {})
        stats = {
            "acks_sent": interface.acks_sent.value(),
            "naks_sent": interface.naks_sent.value(),
            "replays": interface.tlp_replays.value(),
            "delivery_refused": interface.delivery_refused.value(),
            "timeouts": interface.timeouts.value(),
        }
        entry = {}
        for stat_name, (ev, kind) in _RECONCILED_STATS.items():
            trace_name = f"dllp_tx_{kind}" if kind else ev
            entry[stat_name] = {
                "stat": stats[stat_name],
                "trace": comp_counts.get(trace_name, 0),
            }
        out[interface.full_name] = entry
    return out


def format_latency_breakdown(breakdown: dict) -> str:
    """Human-readable one-screen summary of a latency breakdown."""
    totals = breakdown["totals"]
    lines = [
        f"# TLP latency breakdown ({totals['tlps']} TLP journeys)",
        f"link total        : {totals['link_ticks']} ticks",
        f"  replay/recovery : {totals['replay_ticks']} ticks",
        f"  serialization   : {totals['serialization_ticks']} ticks",
        f"port buffers      : {totals['engine_ticks']} ticks",
        f"replayed tx       : {totals['replays']}",
        f"refused deliveries: {totals['refusals']}",
        f"unresolved        : {totals['unresolved']}",
    ]
    return "\n".join(lines)


def flow_table(results: dict) -> Table:
    """Render a traffic engine's :meth:`results
    <repro.workloads.traffic.TrafficEngine.results>` as a per-flow
    :class:`Table` (one row per flow, throughput/share/tails as
    columns)."""
    table = Table("per-flow traffic", "flow", "throughput and tail latency")
    columns = {
        "gbps": "throughput_gbps",
        "share": "share",
        "p50_us": "p50_ns",
        "p99_us": "p99_ns",
        "p999_us": "p999_ns",
    }
    series = {label: table.new_series(label) for label in columns}
    for name, record in sorted(results["flows"].items()):
        for label, field in columns.items():
            value = record[field]
            if label.endswith("_us"):
                value = value / 1000.0
            series[label].add(name, value)
    return table


def link_replay_stats(link) -> Dict[str, float]:
    """Replay/timeout and credit-stall statistics of a link's
    upstream-bound interface (the disk-to-switch direction the paper
    instruments).

    ``fc_stall_ticks`` sums the per-class credit-starvation clocks:
    with credit-based flow control, congestion backpressure shows up
    here (the transmitter waits for UpdateFC) rather than as replay
    storms, which are reserved for actual transmission errors.
    """
    interface = link.downstream_if
    sent = interface.tlps_sent.value()
    replays = interface.tlp_replays.value()
    total = sent + replays
    fc = interface.fc
    return {
        "tlps_sent": sent,
        "replays": replays,
        "timeouts": interface.timeouts.value(),
        "replay_fraction": replays / total if total else 0.0,
        "delivery_refused": interface.peer.delivery_refused.value(),
        "fc_stall_ticks": float(fc.stall_ticks[0] + fc.stall_ticks[1]
                                + fc.stall_ticks[2]),
    }
