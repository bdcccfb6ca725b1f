"""Declarative topology specifications.

A :class:`TopologySpec` is a pure-data tree describing one complete
machine: the root complex, arbitrarily deep and arbitrarily fanned
switch hierarchies, per-edge PCI-Express link parameters, and any mix
of devices.  :func:`repro.system.topology.build_system` turns a spec
into an assembled, booted :class:`~repro.system.topology.PcieSystem`;
the paper's machines are the preset constructors at the bottom of this
module (``build_system(validation_spec())`` is the validation
topology).

Specs are deliberately restricted to canonical-JSON-safe values —
strings, ints, floats, bools, None — so that:

* a spec round-trips losslessly through :meth:`TopologySpec.to_json` /
  :meth:`TopologySpec.from_json` (a sweep point, a trace artifact and a
  bug report can all *name the exact machine* they ran on);
* :meth:`TopologySpec.canonical` is a stable byte string, so the sweep
  result cache (:mod:`repro.exp.cache`) keys on the full machine shape
  (every machine sweep point carries its spec as ``topology``);
* :meth:`TopologySpec.digest` gives a short content hash for artifact
  names and report headers.

The grammar (see ARCHITECTURE.md "Topology" for a walked example)::

    TopologySpec := { kind: "pcie", root_complex, children: [Node...],
                      enable_msi }
                  | ClassicPciSpec { kind: "classic_pci", clock_mhz,
                                     device }
    Node         := SwitchSpec { name, link: LinkSpec, latency,
                                 buffer_size, service_interval,
                                 datapath_scope, num_ports,
                                 children: [Node...] }
                  | DeviceSpec { kind: "disk"|"nic"|"accel", name,
                                 link: LinkSpec, params: {...} }

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
(``disk0``, ``nic1``, ``switch0``, ...); duplicate names are a
:class:`SpecError` at validation time — the singleton-``"disk"``-key
collision of the historical builders cannot be expressed any more.
"""

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.sim import ticks

__all__ = [
    "SpecError",
    "LinkSpec",
    "DeviceSpec",
    "SwitchSpec",
    "TopologySpec",
    "ClassicPciSpec",
    "validation_spec",
    "nic_spec",
    "dual_device_spec",
    "classic_pci_spec",
    "deep_hierarchy_spec",
    "spec_from_dict",
]

#: Device kinds a :class:`DeviceSpec` may name.  The model/driver
#: classes behind each kind live in :data:`repro.system.topology.DEVICE_KINDS`
#: (the spec layer stays pure data and imports no models).
DEVICE_KIND_NAMES = ("disk", "nic", "accel")

#: PCIe generation names accepted by :class:`LinkSpec` (the
#: :class:`repro.pcie.timing.PcieGen` members).
GEN_NAMES = ("GEN1", "GEN2", "GEN3")


class SpecError(ValueError):
    """An inconsistent or inexpressible topology specification."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


class LinkSpec:
    """Parameters of one PCI-Express link (one edge of the tree).

    Args:
        name: the link's instance name; the assembled
            :class:`~repro.pcie.link.PcieLink` is called
            ``f"{name}_link"`` and keyed as ``name`` in
            ``PcieSystem.links``.  Defaults to the downstream node's
            name.
        gen: PCIe generation *name* (``"GEN1"``/``"GEN2"``/``"GEN3"``).
        width: lane count.
        replay_buffer_size: unacknowledged-TLP bound per interface.
        ack_policy: ``"immediate"`` or ``"timer"``.
        input_queue_size: component-facing input buffer per interface.
        p_credits / np_credits / cpl_credits: per-class receive-buffer
            slots (posted / non-posted / completion flow-control
            credits) each interface advertises at link-up; the defaults
            (6/6/4) reproduce the 16-slot aggregate capacity of the
            pre-split shared pool.
        error_rate: fraction of received TLPs corrupted (NAK path).
        dllp_error_rate: fraction of DLLPs corrupted.
        error_seed: base seed of the per-interface corruption RNGs.
        propagation_delay: flight time in ticks added after
            serialization.
        max_payload: MaxPayloadSize fed to the replay-timer formula.
        replay_timeout: explicit replay-timeout override in ticks, or
            None for the spec formula.
        ack_period: explicit ACK-timer override in ticks, or None for
            the spec formula.
    """

    FIELDS = (
        "name", "gen", "width", "replay_buffer_size", "ack_policy",
        "input_queue_size", "p_credits", "np_credits", "cpl_credits",
        "error_rate", "dllp_error_rate", "error_seed",
        "propagation_delay", "max_payload", "replay_timeout", "ack_period",
    )

    def __init__(
        self,
        name: Optional[str] = None,
        gen: str = "GEN2",
        width: int = 1,
        replay_buffer_size: int = 4,
        ack_policy: str = "timer",
        input_queue_size: int = 2,
        p_credits: int = 6,
        np_credits: int = 6,
        cpl_credits: int = 4,
        error_rate: float = 0.0,
        dllp_error_rate: float = 0.0,
        error_seed: int = 0x5EED,
        propagation_delay: int = ticks.from_ns(4),
        max_payload: int = 64,
        replay_timeout: Optional[int] = None,
        ack_period: Optional[int] = None,
    ):
        self.name = name
        self.gen = gen
        self.width = width
        self.replay_buffer_size = replay_buffer_size
        self.ack_policy = ack_policy
        self.input_queue_size = input_queue_size
        self.p_credits = p_credits
        self.np_credits = np_credits
        self.cpl_credits = cpl_credits
        self.error_rate = error_rate
        self.dllp_error_rate = dllp_error_rate
        self.error_seed = error_seed
        self.propagation_delay = propagation_delay
        self.max_payload = max_payload
        self.replay_timeout = replay_timeout
        self.ack_period = ack_period

    def validate(self) -> None:
        """Range-check every field (name uniqueness is checked tree-wide)."""
        _require(self.gen in GEN_NAMES,
                 f"link {self.name!r}: unknown generation {self.gen!r} "
                 f"(expected one of {GEN_NAMES})")
        _require(self.width >= 1, f"link {self.name!r}: width must be >= 1")
        _require(self.replay_buffer_size >= 1,
                 f"link {self.name!r}: replay buffer must hold >= 1 TLP")
        _require(self.ack_policy in ("timer", "immediate"),
                 f"link {self.name!r}: unknown ack policy {self.ack_policy!r}")
        _require(self.input_queue_size >= 1,
                 f"link {self.name!r}: input queue must hold >= 1 TLP")
        for field in ("p_credits", "np_credits", "cpl_credits"):
            _require(getattr(self, field) >= 1,
                     f"link {self.name!r}: {field} must be >= 1 "
                     "(every flow-control class needs a credit)")

    def to_dict(self) -> Dict[str, Any]:
        """The link as a canonical-JSON-safe mapping (all fields, always)."""
        return {field: getattr(self, field) for field in self.FIELDS}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "LinkSpec":
        """Rebuild a :class:`LinkSpec` from :meth:`to_dict` output."""
        unknown = set(doc) - set(cls.FIELDS)
        _require(not unknown, f"link spec has unknown fields {sorted(unknown)}")
        return cls(**doc)

    def __repr__(self) -> str:
        return f"<LinkSpec {self.name!r} {self.gen} x{self.width}>"


class DeviceSpec:
    """One endpoint device hanging off a root port or switch port.

    Args:
        kind: ``"disk"`` (the IDE-like storage device), ``"nic"``
            (the 8254x-pcie NIC) or ``"accel"`` (the DMA copy
            accelerator).
        name: unique instance name; auto-assigned (``disk0``, ``nic0``,
            ...) when omitted.
        link: the :class:`LinkSpec` of the edge to the parent port
            (defaults to a Gen 2 x1 link named after the device).
        params: extra keyword arguments for the device model
            constructor (``access_latency``, ``posted_writes``,
            ``msi_functional``, ... — canonical-JSON-safe values only).
    """

    def __init__(self, kind: str, name: Optional[str] = None,
                 link: Optional[LinkSpec] = None,
                 params: Optional[Dict[str, Any]] = None):
        self.kind = kind
        self.name = name
        self.link = link or LinkSpec()
        self.params = dict(params or {})

    def validate(self) -> None:
        """Check the device kind and its link."""
        _require(self.kind in DEVICE_KIND_NAMES,
                 f"device {self.name!r}: unknown kind {self.kind!r} "
                 f"(expected one of {DEVICE_KIND_NAMES})")
        self.link.validate()

    def to_dict(self) -> Dict[str, Any]:
        """The device as a canonical-JSON-safe mapping."""
        return {
            "node": "device",
            "kind": self.kind,
            "name": self.name,
            "link": self.link.to_dict(),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "DeviceSpec":
        """Rebuild a :class:`DeviceSpec` from :meth:`to_dict` output."""
        _require(doc.get("node", "device") == "device",
                 f"expected a device node, got {doc.get('node')!r}")
        return cls(
            kind=doc["kind"],
            name=doc.get("name"),
            link=LinkSpec.from_dict(doc.get("link", {})),
            params=doc.get("params"),
        )

    def __repr__(self) -> str:
        return f"<DeviceSpec {self.kind} {self.name!r}>"


class SwitchSpec:
    """One PCI-Express switch and the subtree behind its ports.

    Args:
        name: unique instance name; auto-assigned (``switch0``, ...)
            when omitted.
        link: the :class:`LinkSpec` of the upstream edge toward the
            parent port.
        children: the nodes (devices or further switches) behind the
            downstream ports, in port order.
        latency: store-and-forward processing latency in ticks.
        buffer_size: per-port packet-slot pool.
        service_interval: per-packet datapath admission interval.
        datapath_scope: ``"port"`` or ``"engine"``.
        num_ports: downstream port count; defaults to ``len(children)``
            (ports beyond the children stay unwired, like the paper's
            validation switch with its second, empty port).
    """

    def __init__(
        self,
        name: Optional[str] = None,
        link: Optional[LinkSpec] = None,
        children: Optional[List[Union["SwitchSpec", DeviceSpec]]] = None,
        latency: int = ticks.from_ns(150),
        buffer_size: int = 16,
        service_interval: int = ticks.from_ns(42),
        datapath_scope: str = "port",
        num_ports: Optional[int] = None,
    ):
        self.name = name
        self.link = link or LinkSpec()
        self.children = list(children or [])
        self.latency = latency
        self.buffer_size = buffer_size
        self.service_interval = service_interval
        self.datapath_scope = datapath_scope
        self.num_ports = num_ports

    @property
    def effective_num_ports(self) -> int:
        """Downstream ports actually built: ``num_ports`` or fan-out."""
        return self.num_ports if self.num_ports is not None else max(
            len(self.children), 1)

    def validate(self) -> None:
        """Check the switch knobs, its link, and recurse into children."""
        _require(self.datapath_scope in ("port", "engine"),
                 f"switch {self.name!r}: unknown datapath scope "
                 f"{self.datapath_scope!r}")
        _require(self.buffer_size >= 2,
                 f"switch {self.name!r}: port buffers need >= 2 slots")
        _require(self.effective_num_ports >= len(self.children),
                 f"switch {self.name!r}: {len(self.children)} children do "
                 f"not fit {self.effective_num_ports} downstream ports")
        self.link.validate()
        for child in self.children:
            child.validate()

    def to_dict(self) -> Dict[str, Any]:
        """The switch subtree as a canonical-JSON-safe mapping."""
        return {
            "node": "switch",
            "name": self.name,
            "link": self.link.to_dict(),
            "latency": self.latency,
            "buffer_size": self.buffer_size,
            "service_interval": self.service_interval,
            "datapath_scope": self.datapath_scope,
            "num_ports": self.num_ports,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SwitchSpec":
        """Rebuild a :class:`SwitchSpec` subtree from :meth:`to_dict`."""
        _require(doc.get("node") == "switch",
                 f"expected a switch node, got {doc.get('node')!r}")
        kwargs = {key: doc[key] for key in
                  ("latency", "buffer_size", "service_interval",
                   "datapath_scope", "num_ports") if key in doc}
        return cls(
            name=doc.get("name"),
            link=LinkSpec.from_dict(doc.get("link", {})),
            children=[_node_from_dict(child)
                      for child in doc.get("children", [])],
            **kwargs,
        )

    def __repr__(self) -> str:
        return (f"<SwitchSpec {self.name!r} ports={self.effective_num_ports} "
                f"children={len(self.children)}>")


def _node_from_dict(doc: Dict[str, Any]) -> Union[SwitchSpec, DeviceSpec]:
    """Dispatch a serialized tree node to its spec class."""
    node = doc.get("node", "device")
    if node == "switch":
        return SwitchSpec.from_dict(doc)
    if node == "device":
        return DeviceSpec.from_dict(doc)
    raise SpecError(f"unknown topology node kind {node!r}")


class TopologySpec:
    """A complete PCI-Express machine as one declarative tree.

    Args:
        children: the nodes behind the root ports, in root-port order.
        rc_latency: root-complex processing latency in ticks.
        rc_buffer_size: root-complex per-port packet-slot pool.
        rc_service_interval: root-complex datapath admission interval.
        rc_datapath_scope: ``"port"`` or ``"engine"``.
        num_root_ports: root ports to build; defaults to fan-out (the
            paper's model implements three, which the legacy specs
            request explicitly).
        enable_msi: attach the platform MSI doorbell and mark every
            device's MSI capability functional-capable.
        name: optional label recorded in serialisations (reports,
            artifact metadata); never used for component naming.
    """

    kind = "pcie"

    def __init__(
        self,
        children: Optional[List[Union[SwitchSpec, DeviceSpec]]] = None,
        rc_latency: int = ticks.from_ns(150),
        rc_buffer_size: int = 16,
        rc_service_interval: int = ticks.from_ns(42),
        rc_datapath_scope: str = "port",
        num_root_ports: Optional[int] = None,
        enable_msi: bool = False,
        name: Optional[str] = None,
    ):
        self.children = list(children or [])
        self.rc_latency = rc_latency
        self.rc_buffer_size = rc_buffer_size
        self.rc_service_interval = rc_service_interval
        self.rc_datapath_scope = rc_datapath_scope
        self.num_root_ports = num_root_ports
        self.enable_msi = enable_msi
        self.name = name

    # -- structure -----------------------------------------------------------
    @property
    def effective_num_root_ports(self) -> int:
        """Root ports actually built: ``num_root_ports`` or fan-out."""
        return self.num_root_ports if self.num_root_ports is not None else max(
            len(self.children), 1)

    def walk(self) -> Iterator[Union[SwitchSpec, DeviceSpec]]:
        """Every node of the tree, depth-first in port order — the same
        order enumeration discovers them."""

        def visit(node):
            yield node
            if isinstance(node, SwitchSpec):
                for child in node.children:
                    yield from visit(child)

        for child in self.children:
            yield from visit(child)

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
        taken = {node.name for node in self.walk() if node.name}
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
        uniqueness (the end-to-end identity guarantee)."""
        _require(self.rc_datapath_scope in ("port", "engine"),
                 f"root complex: unknown datapath scope "
                 f"{self.rc_datapath_scope!r}")
        _require(self.rc_buffer_size >= 2,
                 "root complex: port buffers need >= 2 slots")
        _require(self.children, "a topology needs at least one node")
        _require(self.effective_num_root_ports >= len(self.children),
                 f"{len(self.children)} root-port children do not fit "
                 f"{self.effective_num_root_ports} root ports")
        node_names: set = set()
        link_names: set = set()
        for node in self.walk():
            node.validate()
            _require(node.name is not None,
                     f"{node!r} is unnamed; call finalize() first")
            _require(node.name not in node_names,
                     f"duplicate instance name {node.name!r}: every switch "
                     f"and device needs a unique name (stats, traces and "
                     f"checker violations key on it)")
            node_names.add(node.name)
            _require(node.link.name is not None,
                     f"{node!r}: link is unnamed; call finalize() first")
            _require(node.link.name not in link_names,
                     f"duplicate link name {node.link.name!r}")
            link_names.add(node.link.name)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The whole machine as a canonical-JSON-safe document."""
        return {
            "kind": self.kind,
            "name": self.name,
            "root_complex": {
                "latency": self.rc_latency,
                "buffer_size": self.rc_buffer_size,
                "service_interval": self.rc_service_interval,
                "datapath_scope": self.rc_datapath_scope,
                "num_root_ports": self.num_root_ports,
            },
            "enable_msi": self.enable_msi,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TopologySpec":
        """Rebuild (and finalize) a spec from :meth:`to_dict` output."""
        _require(doc.get("kind", "pcie") == "pcie",
                 f"expected kind 'pcie', got {doc.get('kind')!r} "
                 f"(classic PCI specs load via spec_from_dict)")
        rc = doc.get("root_complex", {})
        kwargs = {f"rc_{key}": rc[key] for key in
                  ("latency", "buffer_size", "service_interval",
                   "datapath_scope") if key in rc}
        return cls(
            children=[_node_from_dict(child)
                      for child in doc.get("children", [])],
            num_root_ports=rc.get("num_root_ports"),
            enable_msi=doc.get("enable_msi", False),
            name=doc.get("name"),
            **kwargs,
        ).finalize()

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to JSON text (pretty by default; artifacts diff
        nicely)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TopologySpec":
        """Parse :meth:`to_json` output back into a finalized spec."""
        return cls.from_dict(json.loads(text))

    def canonical(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) — the stable
        byte string cache keys and byte-identity guarantees rest on."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Short SHA-256 prefix of :meth:`canonical` — names the exact
        machine in artifact metadata and bug reports."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def __repr__(self) -> str:
        return (f"<TopologySpec devices={len(self.devices())} "
                f"switches={len(self.switches())} digest={self.digest()}>")


class ClassicPciSpec:
    """The pre-PCI-Express baseline: one disk on a classic shared bus.

    Args:
        clock_mhz: shared-bus clock (33 or 66 in practice).
        device: the disk's :class:`DeviceSpec`; its link is ignored
            (a shared bus has no PCI-Express links) and only
            ``kind="disk"`` is routable on the classic fabric.
    """

    kind = "classic_pci"

    def __init__(self, clock_mhz: int = 33,
                 device: Optional[DeviceSpec] = None):
        self.clock_mhz = clock_mhz
        self.device = device or DeviceSpec("disk", name="disk")

    def finalize(self) -> "ClassicPciSpec":
        """Name the device (default ``disk``) and validate."""
        if self.device.name is None:
            self.device.name = "disk"
        self.validate()
        return self

    def validate(self) -> None:
        """The classic bus models exactly one bus-master disk."""
        _require(self.clock_mhz > 0, "classic PCI: clock must be positive")
        _require(self.device.kind == "disk",
                 "classic PCI supports only the disk device")

    def to_dict(self) -> Dict[str, Any]:
        """The baseline machine as a canonical-JSON-safe document."""
        return {
            "kind": self.kind,
            "clock_mhz": self.clock_mhz,
            "device": {
                "node": "device",
                "kind": self.device.kind,
                "name": self.device.name,
                "params": dict(self.device.params),
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ClassicPciSpec":
        """Rebuild (and finalize) a baseline spec from :meth:`to_dict`."""
        _require(doc.get("kind") == "classic_pci",
                 f"expected kind 'classic_pci', got {doc.get('kind')!r}")
        device = doc.get("device", {})
        return cls(
            clock_mhz=doc.get("clock_mhz", 33),
            device=DeviceSpec(kind=device.get("kind", "disk"),
                              name=device.get("name"),
                              params=device.get("params")),
        ).finalize()

    def canonical(self) -> str:
        """Canonical JSON of the baseline spec."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Short SHA-256 prefix of :meth:`canonical`."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def __repr__(self) -> str:
        return f"<ClassicPciSpec {self.clock_mhz} MHz>"


def spec_from_dict(doc: Dict[str, Any]) -> Union[TopologySpec, ClassicPciSpec]:
    """Load either spec kind from a serialized document."""
    kind = doc.get("kind", "pcie")
    if kind == "pcie":
        return TopologySpec.from_dict(doc)
    if kind == "classic_pci":
        return ClassicPciSpec.from_dict(doc)
    raise SpecError(f"unknown topology spec kind {kind!r}")


# ---------------------------------------------------------------------------
# Named spec constructors: the four legacy machines, plus the
# deep-hierarchy exploration family.
# ---------------------------------------------------------------------------


def validation_spec(
    gen: str = "GEN2",
    root_link_width: int = 4,
    device_link_width: int = 1,
    rc_latency: int = ticks.from_ns(150),
    switch_latency: int = ticks.from_ns(150),
    buffer_size: int = 16,
    replay_buffer_size: int = 4,
    service_interval: int = ticks.from_ns(42),
    datapath_scope: str = "port",
    ack_policy: str = "immediate",
    error_rate: float = 0.0,
    dllp_error_rate: float = 0.0,
    input_queue_size: int = 2,
    error_seed: int = 0x5EED,
    posted_writes: bool = False,
    disk_access_latency: int = ticks.from_us(1),
    enable_msi: bool = False,
) -> TopologySpec:
    """The paper's validation topology (Section VI-A) as a spec:
    root complex ──x4── switch ──x1── IDE disk, every Figure-9 knob a
    parameter.
    """
    link_common = dict(
        gen=gen, replay_buffer_size=replay_buffer_size, ack_policy=ack_policy,
        error_rate=error_rate, dllp_error_rate=dllp_error_rate,
        input_queue_size=input_queue_size, error_seed=error_seed,
    )
    disk = DeviceSpec(
        "disk", name="disk",
        link=LinkSpec(name="disk", width=device_link_width, **link_common),
        params=dict(access_latency=disk_access_latency,
                    posted_writes=posted_writes,
                    msi_functional=enable_msi),
    )
    switch = SwitchSpec(
        name="switch", children=[disk], num_ports=2,
        link=LinkSpec(name="root", width=root_link_width, **link_common),
        latency=switch_latency, buffer_size=buffer_size,
        service_interval=service_interval, datapath_scope=datapath_scope,
    )
    return TopologySpec(
        children=[switch], rc_latency=rc_latency, rc_buffer_size=buffer_size,
        rc_service_interval=service_interval,
        rc_datapath_scope=datapath_scope, num_root_ports=3,
        enable_msi=enable_msi, name="validation",
    ).finalize()


def nic_spec(
    gen: str = "GEN2",
    link_width: int = 1,
    rc_latency: int = ticks.from_ns(150),
    buffer_size: int = 16,
    replay_buffer_size: int = 4,
    service_interval: int = ticks.from_ns(42),
    datapath_scope: str = "port",
    ack_policy: str = "immediate",
    enable_msi: bool = False,
) -> TopologySpec:
    """The Table II topology as a spec: a NIC directly on a root port."""
    nic = DeviceSpec(
        "nic", name="nic",
        link=LinkSpec(name="nic", gen=gen, width=link_width,
                      replay_buffer_size=replay_buffer_size,
                      ack_policy=ack_policy),
        params=dict(msi_functional=enable_msi),
    )
    return TopologySpec(
        children=[nic], rc_latency=rc_latency, rc_buffer_size=buffer_size,
        rc_service_interval=service_interval,
        rc_datapath_scope=datapath_scope, num_root_ports=3,
        enable_msi=enable_msi, name="nic",
    ).finalize()


def dual_device_spec(
    gen: str = "GEN2",
    root_link_width: int = 4,
    device_link_width: int = 1,
    rc_latency: int = ticks.from_ns(150),
    switch_latency: int = ticks.from_ns(150),
    buffer_size: int = 16,
    replay_buffer_size: int = 4,
    service_interval: int = ticks.from_ns(42),
    datapath_scope: str = "port",
    ack_policy: str = "immediate",
) -> TopologySpec:
    """The examples' richer machine as a spec: disk on switch port 0,
    NIC on port 1, sharing the root link."""
    link_common = dict(gen=gen, width=device_link_width,
                       replay_buffer_size=replay_buffer_size,
                       ack_policy=ack_policy)
    disk = DeviceSpec("disk", name="disk",
                      link=LinkSpec(name="disk", **link_common))
    nic = DeviceSpec("nic", name="nic",
                     link=LinkSpec(name="nic", **link_common))
    switch = SwitchSpec(
        name="switch", children=[disk, nic], num_ports=2,
        link=LinkSpec(name="root", gen=gen, width=root_link_width,
                      replay_buffer_size=replay_buffer_size,
                      ack_policy=ack_policy),
        latency=switch_latency, buffer_size=buffer_size,
        service_interval=service_interval, datapath_scope=datapath_scope,
    )
    return TopologySpec(
        children=[switch], rc_latency=rc_latency, rc_buffer_size=buffer_size,
        rc_service_interval=service_interval,
        rc_datapath_scope=datapath_scope, num_root_ports=3,
        name="dual_device",
    ).finalize()


def classic_pci_spec(
    clock_mhz: int = 33,
    disk_access_latency: int = ticks.from_us(1),
) -> ClassicPciSpec:
    """The classic shared-PCI-bus baseline (Section II-A) as a spec."""
    return ClassicPciSpec(
        clock_mhz=clock_mhz,
        device=DeviceSpec("disk", name="disk",
                          params=dict(access_latency=disk_access_latency)),
    ).finalize()


def deep_hierarchy_spec(
    depth: int,
    fanout: int,
    gen: str = "GEN2",
    width: int = 1,
    root_link_width: int = 4,
    device_kind: str = "disk",
    switch_latency: int = ticks.from_ns(150),
    buffer_size: int = 16,
    replay_buffer_size: int = 4,
    service_interval: int = ticks.from_ns(42),
    ack_policy: str = "immediate",
    enable_msi: bool = False,
) -> TopologySpec:
    """A switch spine of ``depth`` levels with ``fanout`` devices each.

    Level ``d`` is a switch named ``sw{d}`` carrying ``fanout`` devices
    (``sw{d}_{kind}{i}``) on its first ports; every non-leaf switch has
    one extra downstream port chaining to the next level, so the
    deepest devices sit behind ``depth`` store-and-forward hops.  Total
    devices: ``depth * fanout`` (depth 4 × fan-out 4 = 16 devices, the
    acceptance machine of the deep-hierarchy exploration).

    Inter-switch links inherit ``root_link_width``; device links use
    ``width`` — a heterogeneous fabric by construction.

    Args:
        depth: switch-chain length (>= 1).
        fanout: devices per switch (>= 1).
        gen: PCIe generation name for every link.
        width: device-link lane count.
        root_link_width: lane count of the root and inter-switch links.
        device_kind: ``"disk"`` or ``"nic"`` for every endpoint.
        switch_latency: per-switch store-and-forward latency (ticks).
        buffer_size: port buffers, switches and root complex alike.
        replay_buffer_size: per-link replay buffer.
        service_interval: datapath admission interval (ticks).
        ack_policy: link ACK policy.
        enable_msi: deliver device interrupts as MSI memory writes
            through the fabric instead of legacy INTx wires.
    """
    _require(depth >= 1, "deep hierarchy needs depth >= 1")
    _require(fanout >= 1, "deep hierarchy needs fanout >= 1")
    link_common = dict(gen=gen, replay_buffer_size=replay_buffer_size,
                       ack_policy=ack_policy)

    def build_level(level: int) -> SwitchSpec:
        children: List[Union[SwitchSpec, DeviceSpec]] = [
            DeviceSpec(
                device_kind, name=f"sw{level}_{device_kind}{i}",
                link=LinkSpec(name=f"sw{level}_{device_kind}{i}",
                              width=width, **link_common),
            )
            for i in range(fanout)
        ]
        if level < depth:
            children.append(build_level(level + 1))
        return SwitchSpec(
            name=f"sw{level}", children=children,
            link=LinkSpec(name=f"sw{level}", width=root_link_width,
                          **link_common),
            latency=switch_latency, buffer_size=buffer_size,
            service_interval=service_interval,
        )

    return TopologySpec(
        children=[build_level(1)],
        rc_buffer_size=buffer_size, rc_service_interval=service_interval,
        enable_msi=enable_msi,
        name=f"deep_hierarchy_d{depth}_f{fanout}",
    ).finalize()
