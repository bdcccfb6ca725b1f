"""Versioned simulation checkpoints: snapshot a live simulator, restore
a freshly built twin, continue byte-identically.

A checkpoint is a JSON-safe document produced by :func:`capture` and
consumed by :func:`restore`.  It deliberately contains **no pickled
objects**: everything in it is either a scalar, a name, or a small
structure of scalars, so checkpoints survive code changes that pickle
would not and can be diffed, digested and cached like any other result
artifact.

**Rebuild + overlay.**  Restoring does not resurrect Python objects
from bytes.  Instead the caller rebuilds the simulated system fresh
from its topology spec (a deterministic, purely functional step — boot
enumeration schedules nothing), then calls :func:`restore` to overlay
the captured dynamic state onto the rebuilt twin:

* the event queue's clock, sequence counter and pending events;
* every registered :class:`~repro.sim.simobject.SimObject`'s
  ``state_dict()``, matched by dotted full name;
* every statistic's value, matched by dotted stat path;
* the tracer's dense TLP-id counter;
* the invariant checker's per-port and per-link ledgers.

After the overlay, running the restored simulator produces the same
events at the same ticks with the same insertion sequence numbers as
the captured simulator would have — stats, traces and golden outputs
are byte-identical to never having checkpointed at all.

**Describable events.**  A pending queue entry ``(when, priority,
seq, fn, arg)`` is captured as its ``(when, priority, seq)`` plus an
*owner path + method name* pair: ``fn`` must be a bound method of a
registered SimObject, and an ``arg`` it carries must be a JSON scalar,
recorded as ``arg``.  A no-argument callback is described by the
callback itself.  An event handle (a timer the component later
deschedules) is described by the method its
:class:`~repro.sim.eventq.CallbackEvent` wraps plus, when the owner
holds the handle, the attribute that holds it (``handle``): restore
re-arms that very instance, so a component that later deschedules
``self._ack_event`` deschedules the entry the checkpoint restored.
Every other entry is rebuilt directly.  Lambdas, closures, calls on
objects outside the registry and calls carrying packets are not
describable and raise :class:`CheckpointError`.

**Declared state.**  An object's ``state_dict()`` is computed from two
class attributes of :class:`~repro.sim.simobject.SimObject`:
``state_fields``, the attributes that steer the future, and
``in_flight``, the packet lists, ``PacketQueue``s, counters and ledgers
that must be empty or zero.  A live packet has no description, so an
object with any ``in_flight`` attribute busy raises one
:class:`CheckpointError` naming the object and each busy attribute,
rather than dropping the packet.  That is why the natural checkpoint
boundary is **software quiescence** (a drained run).  Mid-run
checkpoints work whenever nothing is in flight and every pending entry
is describable (the property-test suite exercises this).
"""

import hashlib
import json
from typing import Dict, List

from repro.sim.eventq import Event, call, fire

#: Identifies checkpoint documents; consumers reject anything else.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Bumped whenever the document layout or the meaning of a field
#: changes; restore refuses versions it does not understand rather than
#: silently misreading state.  Version 2: event records gained ``arg``
#: and ``handle`` and lost ``name``.  Version 3: the disk's state lost
#: ``written_lbas``, and a link's never-built error RNG is null.
#: Version 4: a crossbar's state holds its layers' horizons.  Version
#: 5: an accelerator's state holds its register file and start tick.
CHECKPOINT_VERSION = 5


class CheckpointError(RuntimeError):
    """A simulation state that cannot be captured, or a snapshot that
    cannot be applied to the rebuilt simulator it was offered to."""


#: The JSON scalars an entry's ``arg`` may be.
_SCALARS = (type(None), bool, int, float, str)

#: The type each field of a document, of its ``eventq`` and of each of
#: its ``events`` must hold; :func:`restore` checks them all first.
_DOCUMENT_FIELDS = (("eventq", dict), ("events", list), ("objects", dict),
                    ("stats", dict), ("tracer", dict), ("checker", dict))
_EVENTQ_FIELDS = (("curtick", int), ("next_seq", int),
                  ("events_processed", int))
_EVENT_FIELDS = (("when", int), ("priority", int), ("seq", int),
                 ("owner", str), ("method", str))


def _owner_and_method(sim, fn, when: int):
    """The registered owner and method name of the bound method ``fn``."""
    owner = getattr(fn, "__self__", None)
    owner_name = getattr(owner, "full_name", None)
    if owner is None or owner_name is None or sim.find(owner_name) is not owner:
        raise CheckpointError(
            f"cannot checkpoint the call pending at tick {when}: {fn!r} is "
            f"not a bound method of a registered SimObject")
    method = getattr(fn, "__name__", "")
    if getattr(owner, method, None) != fn:
        raise CheckpointError(
            f"cannot checkpoint the call pending at tick {when}: "
            f"{owner_name}.{method} does not resolve back to it")
    return owner, method


def _describe_event(sim, entry) -> Dict:
    """Describe one live ``(when, priority, seq, fn, arg)`` queue entry
    as owner-path + method-name (plus ``arg`` or ``handle``).

    Raises :class:`CheckpointError` for entries that cannot be rebuilt
    by name on the restore side.
    """
    when, priority, seq, fn, arg = entry
    doc = {"when": when, "priority": priority, "seq": seq}
    if fn is fire:
        callback = getattr(arg, "callback", None)
        if callback is None:
            raise CheckpointError(
                f"cannot checkpoint pending event {arg!r} at tick {when}: "
                f"only handles wrapping a bound method are describable "
                f"(this is a {type(arg).__name__})")
        owner, doc["method"] = _owner_and_method(sim, callback, when)
        for attr, value in vars(owner).items():
            if value is arg:
                doc["handle"] = attr
                break
    elif fn is call:
        owner, doc["method"] = _owner_and_method(sim, arg, when)
    else:
        if not isinstance(arg, _SCALARS):
            raise CheckpointError(
                f"cannot checkpoint the call to {fn!r} pending at tick "
                f"{when}: it carries a {type(arg).__name__}, not a JSON "
                f"scalar")
        owner, doc["method"] = _owner_and_method(sim, fn, when)
        doc["arg"] = arg
    doc["owner"] = owner.full_name
    return doc


def capture(sim) -> Dict:
    """Snapshot ``sim`` into a JSON-safe checkpoint document.

    Raises:
        CheckpointError: when a pending event is not describable or a
            component has an ``in_flight`` attribute busy — checkpoints
            never silently drop simulation state.
    """
    entries = sorted(sim.eventq.live_entries(),
                     key=lambda e: (e[0], e[1], e[2]))
    events = [_describe_event(sim, entry) for entry in entries]
    objects: Dict[str, Dict] = {}
    for obj in sim.objects:
        state = obj.state_dict()
        if state:
            objects[obj.full_name] = state
    stats: Dict[str, Dict] = {}
    for name, stat in sim.stats.walk(""):
        state = stat.state_dict()
        if state is not None:
            stats[name] = state
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "sim_name": sim.name,
        "eventq": sim.eventq.state_dict(),
        "events": events,
        "objects": objects,
        "stats": stats,
        "tracer": sim.tracer.state_dict(),
        "checker": sim.checker.state_dict(),
    }


def _reconstruct_event(sim, doc: Dict) -> tuple:
    """Turn one captured event description back into a queue entry:
    the owner's own handle re-armed, or the call rebuilt directly."""
    owner = sim.find(doc["owner"])
    if owner is None:
        raise CheckpointError(
            f"checkpoint schedules an event on {doc['owner']!r} but the "
            f"rebuilt system has no such object")
    method = getattr(owner, doc["method"], None)
    if method is None:
        raise CheckpointError(
            f"checkpoint schedules {doc['owner']}.{doc['method']} but the "
            f"rebuilt object has no such method")
    key = (doc["when"], doc["priority"], doc["seq"])
    if "handle" in doc:
        event = getattr(owner, doc["handle"], None)
        if not isinstance(event, Event):
            raise CheckpointError(
                f"checkpoint re-arms {doc['owner']}.{doc['handle']} but the "
                f"rebuilt object holds no such event")
        return key + (fire, event)
    if "arg" in doc:
        return key + (method, doc["arg"])
    return key + (call, method)


def _check_fields(doc: Dict, fields, where: str) -> None:
    """Each ``(name, type)`` of ``fields`` is present in ``doc`` with
    that type."""
    for name, kind in fields:
        value = doc.get(name)
        if not isinstance(value, kind):
            raise CheckpointError(
                f"checkpoint field {where + name!r} must be of type "
                f"{kind.__name__}, got {value!r}")


def _check_shape(snapshot: Dict) -> None:
    """Refuse a malformed document before any of it is applied."""
    _check_fields(snapshot, _DOCUMENT_FIELDS, "")
    _check_fields(snapshot["eventq"], _EVENTQ_FIELDS, "eventq.")
    for i, event in enumerate(snapshot["events"]):
        if not isinstance(event, dict):
            raise CheckpointError(
                f"checkpoint field 'events[{i}]' must be of type dict, "
                f"got {event!r}")
        _check_fields(event, _EVENT_FIELDS, f"events[{i}].")


def restore(sim, snapshot: Dict) -> None:
    """Overlay a :func:`capture` document onto a freshly built twin.

    ``sim`` must be rebuilt from the same topology spec as the captured
    simulator and must not have run yet: its event queue has to be
    empty (construction schedules nothing) so the restored entries are
    the only pending work.

    Raises:
        CheckpointError: on format/version mismatch, a field missing
            or of the wrong type, a non-empty target queue, or any name
            in the snapshot that the rebuilt system cannot resolve
            (object, stat, port or method).
    """
    if snapshot.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a checkpoint document (format="
            f"{snapshot.get('format')!r}, expected {CHECKPOINT_FORMAT!r})")
    if snapshot.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {snapshot.get('version')!r} is not "
            f"supported (this build reads version {CHECKPOINT_VERSION})")
    _check_shape(snapshot)
    if not sim.eventq.empty():
        raise CheckpointError(
            "restore target must be a freshly built simulator with an "
            "empty event queue — rebuild the system from its spec, then "
            "restore before running")
    for full_name, state in snapshot["objects"].items():
        obj = sim.find(full_name)
        if obj is None:
            raise CheckpointError(
                f"checkpoint carries state for {full_name!r} but the "
                f"rebuilt system has no such object — topology mismatch")
        obj.load_state_dict(state)
    stat_map = dict(sim.stats.walk(""))
    for name, state in snapshot["stats"].items():
        stat = stat_map.get(name)
        if stat is None:
            raise CheckpointError(
                f"checkpoint carries statistic {name!r} but the rebuilt "
                f"system has no such stat — topology mismatch")
        stat.load_state_dict(state)
    sim.tracer.load_state_dict(snapshot["tracer"])
    sim.checker.load_state_dict(snapshot["checker"])
    entries = [_reconstruct_event(sim, doc) for doc in snapshot["events"]]
    sim.eventq.load_state_dict(snapshot["eventq"], entries)


def checkpoint_json(snapshot: Dict) -> str:
    """Canonical serialization: sorted keys, no whitespace.

    Two captures of identical simulation states produce identical
    bytes, which is what makes :func:`checkpoint_digest` a usable
    identity.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def checkpoint_digest(snapshot: Dict) -> str:
    """SHA-256 of the canonical serialization: equal digests mean
    byte-identical documents, which is how the checkpoint and
    fast-forward tests compare a restored or skipped run with a cold
    one."""
    return hashlib.sha256(checkpoint_json(snapshot).encode()).hexdigest()


def write_checkpoint(snapshot: Dict, path: str) -> None:
    """Write a checkpoint document to ``path`` (canonical JSON)."""
    with open(path, "w") as fh:
        fh.write(checkpoint_json(snapshot))
        fh.write("\n")


def read_checkpoint(path: str) -> Dict:
    """Read a checkpoint document written by :func:`write_checkpoint`."""
    with open(path) as fh:
        snapshot = json.load(fh)
    if snapshot.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint document")
    return snapshot


__all__: List[str] = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "capture",
    "restore",
    "checkpoint_json",
    "checkpoint_digest",
    "write_checkpoint",
    "read_checkpoint",
]
