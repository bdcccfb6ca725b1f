"""Routing engines built from their spec records.

The records in :mod:`repro.system.spec` hold every engine knob's
default, so a test sets only the knobs it varies.
"""

from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.system.spec import LinkSpec, RootComplexSpec, SwitchSpec


def make_root_complex(sim, num_root_ports: int, **knobs) -> RootComplex:
    """A root complex with ``knobs`` set on its record and
    ``num_root_ports`` root ports, each advertising a default
    :class:`LinkSpec`."""
    return RootComplex(sim, RootComplexSpec(**knobs),
                       links=[LinkSpec()] * num_root_ports)


def make_switch(sim, num_downstream_ports: int, **knobs) -> PcieSwitch:
    """A switch named ``switch`` with ``knobs`` set on its record; its
    empty ports advertise a default :class:`LinkSpec`."""
    spec = SwitchSpec(name="switch", num_ports=num_downstream_ports, **knobs)
    return PcieSwitch(sim, spec)
