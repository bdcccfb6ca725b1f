"""Full-system assembly: declarative topology specs and the builder."""

from repro.system.spec import (
    ClassicPciSpec,
    DeviceSpec,
    LinkSpec,
    SpecError,
    SwitchSpec,
    TopologySpec,
    classic_pci_spec,
    deep_hierarchy_spec,
    dual_device_spec,
    nic_spec,
    spec_from_dict,
    validation_spec,
)
from repro.system.topology import (
    AmbiguousDeviceError,
    PcieSystem,
    build_system,
)

__all__ = [
    "AmbiguousDeviceError",
    "PcieSystem",
    "build_system",
    "TopologySpec",
    "ClassicPciSpec",
    "SwitchSpec",
    "DeviceSpec",
    "LinkSpec",
    "SpecError",
    "spec_from_dict",
    "validation_spec",
    "nic_spec",
    "dual_device_spec",
    "classic_pci_spec",
    "deep_hierarchy_spec",
]
