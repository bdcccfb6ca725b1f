"""Full-system assembly: declarative topology specs and the builder."""

from repro.system.spec import (
    ClassicPciSpec,
    DeviceSpec,
    LinkSpec,
    RootComplexSpec,
    SpecError,
    SwitchSpec,
    TopologySpec,
    classic_pci_spec,
    deep_hierarchy_spec,
    nic_spec,
    spec_from_dict,
    validation_spec,
)
from repro.system.topology import PcieSystem, build_system

__all__ = [
    "PcieSystem",
    "build_system",
    "TopologySpec",
    "ClassicPciSpec",
    "SwitchSpec",
    "DeviceSpec",
    "LinkSpec",
    "RootComplexSpec",
    "SpecError",
    "spec_from_dict",
    "validation_spec",
    "nic_spec",
    "classic_pci_spec",
    "deep_hierarchy_spec",
]
