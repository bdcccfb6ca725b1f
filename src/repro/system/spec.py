"""Declarative topology specifications.

A :class:`TopologySpec` is a pure-data tree describing one complete
machine: the root complex, arbitrarily deep and arbitrarily fanned
switch hierarchies, per-edge PCI-Express link parameters, and any mix
of devices.  :func:`repro.system.topology.build_system` turns a spec
into an assembled, booted :class:`~repro.system.topology.PcieSystem`;
the paper's machines are the preset constructors at the bottom of this
module (``build_system(validation_spec())`` is the validation
topology).

Every record is a :class:`Record` whose fields are declared once.
Records hold canonical-JSON-safe values only — strings, ints, floats,
bools, None — so that:

* a spec round-trips losslessly through :meth:`Record.to_json` /
  :meth:`Record.from_json` (a sweep point, a trace artifact and a bug
  report can all *name the exact machine* they ran on);
* :meth:`Record.canonical` is a stable byte string, so the sweep result
  cache (:mod:`repro.exp.cache`) keys on the full machine shape;
* :meth:`Record.digest` gives a short content hash for artifact names
  and report headers.

The grammar (see ARCHITECTURE.md "Topology" for a walked example)::

    TopologySpec := { kind: "pcie", root_complex: RootComplexSpec,
                      children: [Node...], enable_msi, name }
                  | ClassicPciSpec { kind: "classic_pci", clock_mhz,
                                     device (without its link) }
    RootComplexSpec := { EngineSpec..., num_root_ports }
    Node         := SwitchSpec { node: "switch", EngineSpec..., name,
                                 link: LinkSpec, num_ports,
                                 children: [Node...] }
                  | DeviceSpec { node: "device", kind, name,
                                 link: LinkSpec, params: {...} }
    EngineSpec   := latency, buffer_size, service_interval,
                    datapath_scope

Every node hangs off its parent (a root port, or a switch downstream
port) through its own :class:`LinkSpec`, so a fabric can mix
generations, widths and replay/port-buffer settings per edge.  Tick
quantities (latencies, service intervals) are stored as plain tick
ints, exactly as the builder keyword arguments always were; PCIe
generations travel as their enum *name* (``"GEN2"``).

Instance names are the unique identity of every component end-to-end:
they become the :class:`~repro.sim.simobject.SimObject` names (and thus
the statistics keys, trace component paths and checker-violation
components) and the keys of ``PcieSystem.devices`` / ``.links`` /
``.switches`` / ``.drivers``.  Unnamed nodes are auto-named
(``disk0``, ``nic1``, ``switch0``, ...); a name that is not a
non-empty string without ``.``, or a duplicate, is a :class:`SpecError`
at validation time — the singleton-``"disk"``-key collision of the
historical builders cannot be expressed any more.
"""

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.pcie.timing import VALID_WIDTHS
from repro.sim import ticks

__all__ = [
    "SpecError",
    "Record",
    "LinkSpec",
    "DeviceSpec",
    "EngineSpec",
    "SwitchSpec",
    "RootComplexSpec",
    "TopologySpec",
    "ClassicPciSpec",
    "canonical_json",
    "record_field",
    "records_field",
    "validation_spec",
    "nic_spec",
    "classic_pci_spec",
    "deep_hierarchy_spec",
    "given",
    "spec_from_dict",
]

#: PCIe generation names accepted by :class:`LinkSpec` (the
#: :class:`repro.pcie.timing.PcieGen` members).
GEN_NAMES = ("GEN1", "GEN2", "GEN3")


#: Device numbers on one configuration bus (0-31): the most root ports
#: a root complex, or downstream ports a switch, can have.
DEVICES_PER_BUS = 32

#: Enumeration gives every bridge (each root port, and each switch's
#: upstream and downstream ports) its own secondary bus, numbered 1-255.
MAX_BRIDGES = 255


class SpecError(ValueError):
    """An inconsistent or inexpressible topology specification."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _require_int(value: Any, low: int, what: str,
                 high: Optional[int] = None) -> None:
    """``value`` is an int (not a bool) of at least ``low``, at most
    ``high``.  The message is built only on failure."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise SpecError(f"{what} must be an integer {bounds}, got {value!r}")


def _require_optional_int(value: Any, low: int, what: str) -> None:
    """``value`` is None (the default applies) or an int >= ``low``."""
    if value is not None:
        _require_int(value, low, what)


def _require_type(value: Any, kind: type, what: str,
                  error: type = SpecError) -> None:
    """A document field holds a ``kind`` (a list, a dict, ...).  The
    message is built only on failure: ``value`` may be a whole tree."""
    if not isinstance(value, kind):
        raise error(f"{what} must be a {kind.__name__}, got {value!r}")


def _require_number(value: Any, what: str,
                    high: Optional[float] = None) -> None:
    """``value`` is a non-negative int or float, at most ``high``.  The
    message is built only on failure."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value and (high is None or value <= high)):
        return
    bounds = ">= 0" if high is None else f"in [0, {high}]"
    raise SpecError(f"{what} must be a number {bounds}, got {value!r}")


def _require_name(name: Any, what: str) -> None:
    """An instance name becomes a SimObject name, where ``.`` joins a
    full name: a name holding one could collide with another part's."""
    if not (isinstance(name, str) and name != "" and "." not in name):
        raise SpecError(f"{what}: name must be a non-empty string without "
                        f"'.', got {name!r}")


def canonical_json(doc: Any) -> str:
    """``doc`` as canonical JSON (sorted keys, no whitespace): the bytes
    cache keys, digests and the byte-identity guarantee rest on."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _field(dump: Callable[[Any], Any], load: Callable[[Any, str, type], Any],
           **kwargs: Any) -> Any:
    """A record field whose document form is ``dump(value)``, read back
    by ``load(doc, where, error)``."""
    return dataclasses.field(metadata={"dump": dump, "load": load}, **kwargs)


def record_field(record: type, **kwargs: Any) -> Any:
    """A field holding one nested ``record``."""
    return _field(record.to_dict,
                  lambda doc, where, error: record.from_dict(doc), **kwargs)


def records_field(load_one: Callable[[Any, str], Any], **kwargs: Any) -> Any:
    """A field holding a list of records, each read back by
    ``load_one(doc, where)``."""
    def load(docs: Any, where: str, error: type) -> list:
        _require_type(docs, list, where, error)
        return [load_one(doc, f"{where}[{i}]") for i, doc in enumerate(docs)]
    return _field(lambda records: [record.to_dict() for record in records],
                  load, **kwargs)


def _params(doc: Any, where: str, error: type) -> Dict[str, Any]:
    _require_type(doc, dict, where, error)
    return doc


def _compile_to_dict(cls: type) -> Callable[[Any], Dict[str, Any]]:
    """``cls.to_dict``, written out once as one dict display."""
    namespace: Dict[str, Any] = {}
    items = [f"{key!r}: {tag!r}" for key, tag in cls.TAGS.items()]
    for field in dataclasses.fields(cls):
        value = f"self.{field.name}"
        if field.metadata:
            namespace[f"dump_{field.name}"] = field.metadata["dump"]
            value = f"dump_{field.name}({value})"
        items.append(f"{field.name!r}: {value}")
    exec("def to_dict(self):\n"
         "    'The record as a canonical-JSON-safe document.'\n"
         f"    return {{{', '.join(items)}}}\n", namespace)
    return namespace["to_dict"]


class Record:
    """A document record whose fields are declared once.

    A subclass declares its fields as annotated class attributes, in
    constructor order, and becomes a dataclass (compared by identity,
    keeping its own ``__repr__``).  ``FIELDS``, ``to_dict`` (see
    :func:`_compile_to_dict`) and what :meth:`from_dict` checks (the
    keys a document may carry, and those without a default, which it
    must) derive from the declaration once per class.  ``TAGS`` are
    constant keys naming the record's type in its document
    (``{"node": "switch"}``), ``what`` names it in messages and
    ``error`` is the exception a bad document raises.
    """

    TAGS: Dict[str, str] = {}
    what = "record"
    error = SpecError

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, eq=False, repr=False)
        fields = dataclasses.fields(cls)
        cls.FIELDS = tuple(field.name for field in fields)
        cls._keys = frozenset(cls.FIELDS).union(cls.TAGS)
        cls._named = "name" in cls.FIELDS
        cls._required = frozenset(
            field.name for field in fields
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING)
        cls._loads = tuple((field.name, field.metadata["load"])
                           for field in fields if field.metadata)
        cls.to_dict = _compile_to_dict(cls)

    @classmethod
    def _where(cls, name: Any) -> str:
        return f"{cls.what} {name!r}" if cls._named else cls.what

    @property
    def where(self) -> str:
        """The record in messages: ``what``, and its name if it has one."""
        return self._where(getattr(self, "name", None))

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> Any:
        """Rebuild a record from :meth:`to_dict` output; an absent field
        takes its default.  A key that is neither a field nor a tag is
        an error naming it: a typo must not run the default."""
        _require_type(doc, dict, cls.what, cls.error)
        if not cls._keys.issuperset(doc):
            raise cls.error(f"{cls._where(doc.get('name'))} has unknown "
                            f"fields {sorted(doc.keys() - cls._keys)}")
        if not doc.keys() >= cls._required:
            raise cls.error(f"{cls._where(doc.get('name'))}: missing field "
                            f"{min(cls._required - doc.keys())!r} (a "
                            f"{cls.what} requires {sorted(cls._required)})")
        kwargs = dict(doc)
        for key, tag in cls.TAGS.items():
            if kwargs.pop(key, tag) != tag:
                raise cls.error(f"{cls._where(doc.get('name'))}: expected "
                                f"{key} {tag!r}, got {doc[key]!r}")
        if cls._loads:
            where = cls._where(doc.get("name"))
            for name, load in cls._loads:
                if name in kwargs:
                    kwargs[name] = load(kwargs[name], f"{where}: {name}",
                                        cls.error)
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to JSON text (pretty by default; artifacts diff
        nicely)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse :meth:`to_json` output back into a record."""
        return cls.from_dict(json.loads(text))

    def canonical(self) -> str:
        """Canonical JSON of :meth:`to_dict` (see :func:`canonical_json`)."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """Short SHA-256 prefix of :meth:`canonical` — names the exact
        record in artifact metadata and bug reports."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]


class LinkSpec(Record):
    """Parameters of one PCI-Express link (one edge of the tree).

    Args:
        name: the link's instance name; the assembled
            :class:`~repro.pcie.link.PcieLink` is called
            ``f"{name}_link"`` and keyed as ``name`` in
            ``PcieSystem.links``.  Defaults to the downstream node's
            name.
        gen: PCIe generation *name* (``"GEN1"``/``"GEN2"``/``"GEN3"``).
        width: lane count.
        replay_buffer_size: unacknowledged-TLP bound per interface;
            a full buffer throttles the source (the paper's Fig. 9c).
        ack_policy: ``"immediate"`` ACKs every delivery; ``"timer"``
            coalesces ACKs until the ACK timer expires.
        input_queue_size: TLPs an interface buffers from its component,
            per direction (one request queue and one completion queue
            of this size), before exerting port backpressure.
        p_credits / np_credits / cpl_credits: per-class receive-buffer
            slots (posted / non-posted / completion flow-control
            credits) each interface advertises at link-up; the defaults
            (6/6/4) reproduce the 16-slot aggregate capacity of the
            pre-split shared pool.
        error_rate: fraction of received TLPs corrupted (NAK path).
        dllp_error_rate: fraction of received DLLPs corrupted; they are
            discarded, ACKs recover through the replay timeout and
            UpdateFCs through cumulative limits and the FC watchdog.
        error_seed: base seed of the per-interface corruption RNGs.
        propagation_delay: flight time in ticks added after
            serialization.
        max_payload: MaxPayloadSize fed to the replay-timer formula
            (the paper uses the cache-line size).
        replay_timeout: explicit replay-timeout override in ticks, or
            None for the spec formula.
        ack_period: explicit ACK-timer override in ticks, or None for
            the spec formula.  The FC watchdog always follows its
            formula.
    """

    what = "link"

    name: Optional[str] = None
    gen: str = "GEN2"
    width: int = 1
    replay_buffer_size: int = 4
    ack_policy: str = "timer"
    input_queue_size: int = 2
    p_credits: int = 6
    np_credits: int = 6
    cpl_credits: int = 4
    error_rate: float = 0.0
    dllp_error_rate: float = 0.0
    error_seed: int = 0x5EED
    propagation_delay: int = ticks.from_ns(4)
    max_payload: int = 64
    replay_timeout: Optional[int] = None
    ack_period: Optional[int] = None

    def validate(self) -> None:
        """Range-check every field (name uniqueness is checked tree-wide)."""
        where = self.where
        if self.gen not in GEN_NAMES:
            raise SpecError(f"{where}: unknown generation {self.gen!r} "
                            f"(expected one of {GEN_NAMES})")
        if self.ack_policy not in ("timer", "immediate"):
            raise SpecError(
                f"{where}: unknown ack policy {self.ack_policy!r}")
        # Every queue holds a TLP and every flow-control class a credit.
        for field in ("width", "replay_buffer_size", "input_queue_size",
                      "p_credits", "np_credits", "cpl_credits"):
            _require_int(getattr(self, field), 1, f"{where}: {field}")
        if self.width not in VALID_WIDTHS:
            raise SpecError(f"{where}: width must be one of {VALID_WIDTHS}, "
                            f"got {self.width!r}")
        _require_int(self.max_payload, 1, f"{where}: max_payload", high=4096)
        _require_int(self.error_seed, 0, f"{where}: error_seed")
        for field in ("replay_timeout", "ack_period"):
            _require_optional_int(getattr(self, field), 1, f"{where}: {field}")
        _require_number(self.propagation_delay, f"{where}: propagation_delay")
        for field in ("error_rate", "dllp_error_rate"):
            _require_number(getattr(self, field), f"{where}: {field}", high=1)

    def __repr__(self) -> str:
        return f"<LinkSpec {self.name!r} {self.gen} x{self.width}>"


def _port_links(children: list, ports: int) -> List[LinkSpec]:
    """The link each of ``ports`` downstream ports advertises: its
    child's edge, or on an empty port the :class:`LinkSpec` defaults."""
    return [child.link for child in children] + [LinkSpec()] * (
        ports - len(children))


class EndpointKnobs(Record):
    """A device kind's knobs (its subclass in :data:`DEVICE_KNOBS`): the
    only place one has a default or a range check.  Every kind has
    ``msi_functional`` (make MSI's enable bit writable; absent, it
    follows the topology's ``enable_msi``) and ``pio_latency`` (ticks
    from accepting an MMIO/PIO request to sending its response)."""

    what = "params"

    msi_functional: bool = False

    #: Knobs counting bytes or packets, at least 1; any other int knob
    #: is a tick count, at least 0.
    COUNTS = ("sector_size", "capacity_sectors", "dma_outstanding")

    def validate(self) -> None:
        """Type- and range-check every knob."""
        for field in dataclasses.fields(self):
            what = f"{self.where}: {field.name}"
            if field.type is bool:
                _require_type(getattr(self, field.name), bool, what)
            else:
                _require_int(getattr(self, field.name),
                             int(field.name in self.COUNTS), what)


class DiskKnobs(EndpointKnobs):
    """The IDE-like disk's knobs.

    Args:
        sector_size: bytes per sector (the paper transfers 4 KB
            sectors).
        access_latency: constant internal medium latency per sector
            (gem5's IDE disk: 1 µs).
        capacity_sectors: disk size.
        posted_writes: run DMA writes posted (ablation; the paper's
            model does not support posted writes).
        dma_outstanding: in-flight DMA packets within one sector.
    """

    pio_latency: int = ticks.from_ns(30)
    sector_size: int = 4096
    access_latency: int = ticks.from_us(1)
    capacity_sectors: int = 1 << 30
    posted_writes: bool = False
    dma_outstanding: int = 64


class NicKnobs(EndpointKnobs):
    """The 8254x-pcie NIC's knobs.  Its ``pio_latency`` is the
    register-file access time, calibrated against Table II: with the
    fabric contributing ~200 ns and the root complex 2x its latency,
    120 ns lands the sweep on the paper's 318...517 ns measurements."""

    pio_latency: int = ticks.from_ns(120)


class AccelKnobs(EndpointKnobs):
    """The DMA copy accelerator's knobs.

    Args:
        dma_outstanding: in-flight DMA packets within one direction.
        posted_writes: run the write-back half posted (fire-and-forget)
            instead of waiting for every write response.
    """

    pio_latency: int = ticks.from_ns(30)
    dma_outstanding: int = 32
    posted_writes: bool = False


#: The knob record of each device kind a :class:`DeviceSpec` may name.
#: The model and driver classes behind each kind live in
#: :data:`repro.system.topology.DEVICE_KINDS` (the spec layer stays pure
#: data and imports no models).
DEVICE_KNOBS = {"disk": DiskKnobs, "nic": NicKnobs, "accel": AccelKnobs}
DEVICE_KIND_NAMES = tuple(DEVICE_KNOBS)


class DeviceSpec(Record):
    """One endpoint device hanging off a root port or switch port.

    Args:
        kind: ``"disk"`` (the IDE-like storage device), ``"nic"``
            (the 8254x-pcie NIC) or ``"accel"`` (the DMA copy
            accelerator).
        name: unique instance name; auto-assigned (``disk0``, ``nic0``,
            ...) when omitted.
        link: the :class:`LinkSpec` of the edge to the parent port
            (defaults to a Gen 2 x1 link named after the device); the
            device's PCI-Express capability advertises its generation
            and width.
        params: the knobs of the kind's :data:`DEVICE_KNOBS` record
            that the document sets, and only those (see :meth:`knobs`).
    """

    TAGS = {"node": "device"}
    what = "device"

    kind: str
    name: Optional[str] = None
    link: Optional[LinkSpec] = record_field(LinkSpec, default=None)
    params: Optional[Dict[str, Any]] = _field(dict, _params, default=None)

    #: The enclosing topology's ``enable_msi``, which
    #: :meth:`TopologySpec.validate` hands each of its devices (a class
    #: attribute, so not part of the document).
    enable_msi = False

    def __post_init__(self) -> None:
        self.link = self.link or LinkSpec()
        self.params = dict(self.params or {})

    def knobs(self) -> EndpointKnobs:
        """``params`` loaded through the kind's record and range-checked,
        every absent knob at its default; the one place an absent
        ``msi_functional`` becomes the topology's ``enable_msi``."""
        try:
            knobs = DEVICE_KNOBS[self.kind].from_dict(
                {"msi_functional": self.enable_msi, **self.params})
            knobs.validate()
        except SpecError as error:
            raise SpecError(f"{self.where}: {error}") from None
        return knobs

    def validate(self) -> None:
        """Check the device kind, its link and its knobs."""
        _require(self.kind in DEVICE_KIND_NAMES,
                 f"{self.where}: unknown kind {self.kind!r} "
                 f"(expected one of {DEVICE_KIND_NAMES})")
        self.link.validate()
        self.knobs()

    def __repr__(self) -> str:
        return f"<DeviceSpec {self.kind} {self.name!r}>"


class EngineSpec(Record):
    """The knobs of the routing engine the root complex and every
    switch share: their only defaults and their only range check.

    Args:
        latency: store-and-forward processing latency in ticks (the
            paper's root complex and a typical switch take 150 ns).
        buffer_size: packet slots in each port's pool, split per flow
            class (the paper's experiments use 16, 20, 24 and 28; at
            least 2, since completions always get a slot of their own).
        service_interval: per-packet admission interval of a port's
            internal datapath, in ticks.
        datapath_scope: ``"port"`` gives each port its own datapath
            pipeline; ``"engine"`` shares one across all ports and both
            directions.
    """

    latency: int = ticks.from_ns(150)
    buffer_size: int = 16
    service_interval: int = ticks.from_ns(42)
    datapath_scope: str = "port"

    def validate(self) -> None:
        """Range-check the engine knobs."""
        where = self.where
        _require(self.datapath_scope in ("port", "engine"),
                 f"{where}: unknown datapath scope {self.datapath_scope!r}")
        _require_int(self.buffer_size, 2, f"{where}: buffer_size")
        for field in ("latency", "service_interval"):
            _require_number(getattr(self, field), f"{where}: {field}")


def _node_from_dict(doc: Any, where: str) -> Union["SwitchSpec", DeviceSpec]:
    """Dispatch a serialized tree node to its spec class."""
    _require_type(doc, dict, where)
    node = doc.get("node", "device")
    if node == "switch":
        return SwitchSpec.from_dict(doc)
    if node == "device":
        return DeviceSpec.from_dict(doc)
    raise SpecError(f"unknown topology node kind {node!r}")


class SwitchSpec(EngineSpec):
    """One PCI-Express switch (its :class:`EngineSpec` knobs) and the
    subtree behind its ports.

    Args:
        name: unique instance name; auto-assigned (``switch0``, ...)
            when omitted.
        link: the :class:`LinkSpec` of the upstream edge toward the
            parent port.
        children: the nodes (devices or further switches) behind the
            downstream ports, in port order.
        num_ports: downstream port count; defaults to ``len(children)``
            (ports beyond the children stay unwired, like the paper's
            validation switch with its second, empty port).
    """

    TAGS = {"node": "switch"}
    what = "switch"

    name: Optional[str] = None
    link: Optional[LinkSpec] = record_field(LinkSpec, default=None)
    children: Optional[List[Union["SwitchSpec", DeviceSpec]]] = records_field(
        _node_from_dict, default=None)
    num_ports: Optional[int] = None

    def __post_init__(self) -> None:
        self.link = self.link or LinkSpec()
        self.children = list(self.children or [])

    @property
    def effective_num_ports(self) -> int:
        """Downstream ports actually built: ``num_ports`` or fan-out."""
        return self.num_ports if self.num_ports is not None else max(
            len(self.children), 1)

    @property
    def port_links(self) -> List[LinkSpec]:
        """The link each downstream port advertises, in port order."""
        return _port_links(self.children, self.effective_num_ports)

    def validate(self) -> None:
        """Check the switch knobs and its link (the children are
        :meth:`TopologySpec.validate`'s walk to visit, once each)."""
        super().validate()
        where = self.where
        _require_optional_int(self.num_ports, 1, f"{where}: num_ports")
        _require(self.effective_num_ports >= len(self.children),
                 f"{where}: {len(self.children)} children do "
                 f"not fit {self.effective_num_ports} downstream ports")
        _require(self.effective_num_ports <= DEVICES_PER_BUS,
                 f"{where}: num_ports: {self.effective_num_ports} "
                 f"downstream ports exceed the {DEVICES_PER_BUS} device "
                 f"numbers of the switch's internal bus")
        self.link.validate()

    def __repr__(self) -> str:
        return (f"<SwitchSpec {self.name!r} ports={self.effective_num_ports} "
                f"children={len(self.children)}>")


class RootComplexSpec(EngineSpec):
    """The root complex: its :class:`EngineSpec` knobs and

    Args:
        num_root_ports: root ports to build; defaults to the topology's
            fan-out (the paper's model implements three, which the
            presets request explicitly).
    """

    what = "root complex"

    num_root_ports: Optional[int] = None

    def validate(self) -> None:
        """Check the engine knobs and the root-port count."""
        super().validate()
        _require_optional_int(self.num_root_ports, 1,
                              f"{self.where}: num_root_ports")


class TopologySpec(Record):
    """A complete PCI-Express machine as one declarative tree.

    Args:
        children: the nodes behind the root ports, in root-port order.
        root_complex: the :class:`RootComplexSpec`.
        enable_msi: attach the platform MSI doorbell and mark every
            device's MSI capability functional-capable.
        name: optional label recorded in serialisations (reports,
            artifact metadata); never used for component naming.
    """

    TAGS = {"kind": "pcie"}
    what = "topology"

    children: Optional[List[Union[SwitchSpec, DeviceSpec]]] = records_field(
        _node_from_dict, default=None)
    root_complex: RootComplexSpec = record_field(
        RootComplexSpec, default_factory=RootComplexSpec)
    enable_msi: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self.children = list(self.children or [])

    # -- structure -----------------------------------------------------------
    @property
    def effective_num_root_ports(self) -> int:
        """Root ports actually built: ``num_root_ports`` or fan-out."""
        ports = self.root_complex.num_root_ports
        return ports if ports is not None else max(len(self.children), 1)

    @property
    def root_port_links(self) -> List[LinkSpec]:
        """The link each root port advertises, in port order."""
        return _port_links(self.children, self.effective_num_root_ports)

    def walk(self) -> Iterator[Union[SwitchSpec, DeviceSpec]]:
        """Every node of the tree, depth-first in port order — the same
        order enumeration discovers them."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, SwitchSpec):
                stack.extend(reversed(node.children))

    def devices(self) -> List[DeviceSpec]:
        """Every device node, in discovery order."""
        return [n for n in self.walk() if isinstance(n, DeviceSpec)]

    def switches(self) -> List[SwitchSpec]:
        """Every switch node, in discovery order."""
        return [n for n in self.walk() if isinstance(n, SwitchSpec)]

    # -- naming & validation -------------------------------------------------
    def finalize(self) -> "TopologySpec":
        """Auto-name unnamed nodes and links, then :meth:`validate`.

        Devices are named ``{kind}{i}`` with a per-kind counter,
        switches ``switch{j}``; an unnamed link takes its downstream
        node's name.  Counters skip names already taken explicitly, so
        mixing explicit and automatic names stays collision-free.
        Returns ``self`` for chaining.
        """
        taken = {node.name for node in self.walk()
                 if isinstance(node.name, str)}
        counters: Dict[str, int] = {}

        def next_name(prefix: str) -> str:
            i = counters.get(prefix, 0)
            while f"{prefix}{i}" in taken:
                i += 1
            counters[prefix] = i + 1
            taken.add(f"{prefix}{i}")
            return f"{prefix}{i}"

        for node in self.walk():
            if node.name is None:
                prefix = node.kind if isinstance(node, DeviceSpec) else "switch"
                node.name = next_name(prefix)
            if node.link.name is None:
                node.link.name = node.name
        self.validate()
        return self

    def validate(self) -> None:
        """Whole-tree consistency: knob ranges plus global name/link
        uniqueness (the end-to-end identity guarantee).  Hands every
        device the topology's ``enable_msi`` (see
        :attr:`DeviceSpec.enable_msi`)."""
        _require_type(self.enable_msi, bool, "enable_msi")
        self.root_complex.validate()
        _require(self.name is None or isinstance(self.name, str),
                 f"topology name must be a string or None, "
                 f"got {self.name!r}")
        _require(self.children, "a topology needs at least one node")
        _require(self.effective_num_root_ports >= len(self.children),
                 f"{len(self.children)} root-port children do not fit "
                 f"{self.effective_num_root_ports} root ports")
        _require(self.effective_num_root_ports <= DEVICES_PER_BUS,
                 f"root complex: num_root_ports: "
                 f"{self.effective_num_root_ports} root ports exceed the "
                 f"{DEVICES_PER_BUS} device numbers of bus 0")
        bridges = self.effective_num_root_ports
        node_names: set = set()
        link_names: set = set()
        for node in self.walk():
            if isinstance(node, DeviceSpec):
                node.enable_msi = self.enable_msi
            node.validate()
            if isinstance(node, SwitchSpec):
                bridges += 1 + node.effective_num_ports
            # Messages are built only on failure: this runs per node.
            if node.name is None:
                raise SpecError(f"{node!r} is unnamed; call finalize() first")
            _require_name(node.name, node.where)
            if node.name in node_names:
                raise SpecError(
                    f"duplicate instance name {node.name!r}: every switch "
                    f"and device needs a unique name (stats, traces and "
                    f"checker violations key on it)")
            node_names.add(node.name)
            if node.link.name is None:
                raise SpecError(
                    f"{node!r}: link is unnamed; call finalize() first")
            _require_name(node.link.name, f"{node.where}: link")
            if node.link.name in link_names:
                raise SpecError(f"duplicate link name {node.link.name!r}")
            link_names.add(node.link.name)
        _require(bridges <= MAX_BRIDGES,
                 f"the fabric needs {bridges} bus numbers below bus 0 (one "
                 f"per root port and switch port); only {MAX_BRIDGES} "
                 f"(1-{MAX_BRIDGES}) exist")

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TopologySpec":
        """Rebuild and :meth:`finalize` a spec from :meth:`to_dict` output."""
        return super().from_dict(doc).finalize()

    def __repr__(self) -> str:
        return (f"<TopologySpec devices={len(self.devices())} "
                f"switches={len(self.switches())} digest={self.digest()}>")


def _device_without_link(device: DeviceSpec) -> Dict[str, Any]:
    """A classic-bus device's document: a shared bus has no links."""
    doc = device.to_dict()
    del doc["link"]
    return doc


def _load_device_without_link(doc: Any, where: str,
                              error: type) -> DeviceSpec:
    """Read :func:`_device_without_link` back; a ``link`` is an error."""
    if isinstance(doc, dict) and "link" in doc:
        raise error(f"{where}: a classic PCI device has no link")
    return DeviceSpec.from_dict(doc)


class ClassicPciSpec(Record):
    """The pre-PCI-Express baseline: one disk on a classic shared bus.

    Args:
        clock_mhz: shared-bus clock, 33 or 66 MHz.
        device: the disk's :class:`DeviceSpec`; its document carries no
            link (a shared bus has none; the disk advertises the
            :class:`LinkSpec` defaults) and only ``kind="disk"`` is
            routable on the classic fabric.
    """

    TAGS = {"kind": "classic_pci"}
    what = "classic PCI"

    clock_mhz: int = 33
    device: Optional[DeviceSpec] = _field(
        _device_without_link, _load_device_without_link, default=None)

    def __post_init__(self) -> None:
        self.device = self.device or DeviceSpec("disk", name="disk")

    def finalize(self) -> "ClassicPciSpec":
        """Name the device (default ``disk``) and validate."""
        if self.device.name is None:
            self.device.name = "disk"
        self.validate()
        return self

    def validate(self) -> None:
        """The classic bus models exactly one bus-master disk, checked
        like any other device."""
        _require(self.clock_mhz in (33, 66),
                 f"classic PCI: clock_mhz must be 33 or 66, "
                 f"got {self.clock_mhz!r}")
        _require(self.device.kind == "disk",
                 "classic PCI supports only the disk device")
        _require_name(self.device.name, self.device.where)
        self.device.validate()

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ClassicPciSpec":
        """Rebuild and :meth:`finalize` a baseline spec from :meth:`to_dict`."""
        return super().from_dict(doc).finalize()

    def __repr__(self) -> str:
        return f"<ClassicPciSpec {self.clock_mhz} MHz>"


def spec_from_dict(doc: Dict[str, Any]) -> Union[TopologySpec, ClassicPciSpec]:
    """Load either spec kind from a serialized document."""
    _require_type(doc, dict, "topology")
    kind = doc.get("kind", "pcie")
    if kind == "pcie":
        return TopologySpec.from_dict(doc)
    if kind == "classic_pci":
        return ClassicPciSpec.from_dict(doc)
    raise SpecError(f"unknown topology spec kind {kind!r}")


# ---------------------------------------------------------------------------
# Named spec constructors: the three legacy machines, plus the
# deep-hierarchy exploration family.  Each passes a record only the
# knobs it changes: a keyword left None takes its record's default.
# ---------------------------------------------------------------------------


def given(**knobs: Any) -> Dict[str, Any]:
    """The ``knobs`` a caller set, to pass on to a record: a None knob is
    left out, so the record's own default applies."""
    return {name: value for name, value in knobs.items() if value is not None}


def validation_spec(
    gen: Optional[str] = None,
    root_link_width: int = 4,
    device_link_width: Optional[int] = None,
    switch_latency: Optional[int] = None,
    buffer_size: Optional[int] = None,
    replay_buffer_size: Optional[int] = None,
    datapath_scope: Optional[str] = None,
    ack_policy: str = "immediate",
    error_rate: Optional[float] = None,
    dllp_error_rate: Optional[float] = None,
    input_queue_size: Optional[int] = None,
    posted_writes: Optional[bool] = None,
    enable_msi: Optional[bool] = None,
) -> TopologySpec:
    """The paper's validation topology (Section VI-A) as a spec:
    root complex ──x4── switch ──x1── IDE disk, every Figure-9 knob a
    parameter.  The disk's document writes its access latency,
    ``posted_writes`` and ``msi_functional``.
    """
    link = given(gen=gen, replay_buffer_size=replay_buffer_size,
                 ack_policy=ack_policy, error_rate=error_rate,
                 dllp_error_rate=dllp_error_rate,
                 input_queue_size=input_queue_size)
    engine = given(buffer_size=buffer_size, datapath_scope=datapath_scope)
    if enable_msi is None:
        enable_msi = TopologySpec.enable_msi
    disk = DeviceSpec(
        "disk", name="disk",
        link=LinkSpec(**link, **given(width=device_link_width)),
        params=dict(access_latency=DiskKnobs.access_latency,
                    posted_writes=(DiskKnobs.posted_writes
                                   if posted_writes is None
                                   else posted_writes),
                    msi_functional=enable_msi),
    )
    switch = SwitchSpec(
        name="switch", children=[disk], num_ports=2,
        link=LinkSpec(name="root", width=root_link_width, **link),
        **engine, **given(latency=switch_latency),
    )
    return TopologySpec(
        children=[switch], enable_msi=enable_msi, name="validation",
        root_complex=RootComplexSpec(num_root_ports=3, **engine),
    ).finalize()


def nic_spec(rc_latency: Optional[int] = None,
             enable_msi: Optional[bool] = None) -> TopologySpec:
    """The Table II topology as a spec: a NIC directly on a root port."""
    if enable_msi is None:
        enable_msi = TopologySpec.enable_msi
    nic = DeviceSpec("nic", name="nic",
                     link=LinkSpec(ack_policy="immediate"),
                     params=dict(msi_functional=enable_msi))
    return TopologySpec(
        children=[nic], enable_msi=enable_msi, name="nic",
        root_complex=RootComplexSpec(num_root_ports=3,
                                     **given(latency=rc_latency)),
    ).finalize()


def classic_pci_spec(clock_mhz: Optional[int] = None) -> ClassicPciSpec:
    """The classic shared-PCI-bus baseline (Section II-A) as a spec; the
    disk's document writes its access latency."""
    return ClassicPciSpec(
        device=DeviceSpec(
            "disk", name="disk",
            params=dict(access_latency=DiskKnobs.access_latency)),
        **given(clock_mhz=clock_mhz),
    ).finalize()


def deep_hierarchy_spec(
    depth: int,
    fanout: int,
    gen: Optional[str] = None,
    width: Optional[int] = None,
    root_link_width: int = 4,
    buffer_size: Optional[int] = None,
    replay_buffer_size: Optional[int] = None,
    ack_policy: str = "immediate",
    enable_msi: Optional[bool] = None,
) -> TopologySpec:
    """A switch spine of ``depth`` levels with ``fanout`` disks each.

    Level ``d`` is a switch named ``sw{d}`` carrying ``fanout`` disks
    (``sw{d}_disk{i}``) on its first ports; every non-leaf switch has
    one extra downstream port chaining to the next level, so the
    deepest disks sit behind ``depth`` store-and-forward hops.  Total
    devices: ``depth * fanout`` (depth 4 × fan-out 4 = 16 devices, the
    acceptance machine of the deep-hierarchy exploration).

    Inter-switch links inherit ``root_link_width``; device links use
    ``width`` — a heterogeneous fabric by construction.  Every switch
    and the root complex keep the :class:`EngineSpec` latency and
    service interval.

    Args:
        depth: switch-chain length (>= 1).
        fanout: disks per switch (>= 1).
        gen: PCIe generation name for every link (None: the
            :class:`LinkSpec` default, Gen 2).
        width: device-link lane count (None: the :class:`LinkSpec`
            default, x1).
        root_link_width: lane count of the root and inter-switch links.
        buffer_size: port buffers, switches and root complex alike
            (None: the :class:`EngineSpec` default).
        replay_buffer_size: per-link replay buffer (None: the
            :class:`LinkSpec` default).
        ack_policy: link ACK policy.
        enable_msi: deliver device interrupts as MSI memory writes
            through the fabric instead of legacy INTx wires (None: the
            :class:`TopologySpec` default, INTx).
    """
    _require(depth >= 1, "deep hierarchy needs depth >= 1")
    _require(fanout >= 1, "deep hierarchy needs fanout >= 1")
    link = given(gen=gen, replay_buffer_size=replay_buffer_size,
                 ack_policy=ack_policy)
    engine = given(buffer_size=buffer_size)

    # Built bottom-up: a recursive closure would be a reference cycle
    # (it holds its own cell), garbage for the collector.
    below: List[Union[SwitchSpec, DeviceSpec]] = []
    for level in range(depth, 0, -1):
        children: List[Union[SwitchSpec, DeviceSpec]] = [
            DeviceSpec("disk", name=f"sw{level}_disk{i}",
                       link=LinkSpec(**link, **given(width=width)))
            for i in range(fanout)
        ]
        below = [SwitchSpec(
            name=f"sw{level}", children=children + below,
            link=LinkSpec(width=root_link_width, **link), **engine,
        )]

    return TopologySpec(
        children=below, root_complex=RootComplexSpec(**engine),
        name=f"deep_hierarchy_d{depth}_f{fanout}",
        **given(enable_msi=enable_msi),
    ).finalize()
