"""Routing engines built with the spec records' knobs.

The records in :mod:`repro.system.spec` are the only place an engine
knob has a default, so a test that builds a bare engine takes every
knob it does not set from them.
"""

from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.pcie.timing import PcieGen
from repro.system.spec import LinkSpec, SwitchSpec, TopologySpec


def _advertised(link: LinkSpec) -> dict:
    """The VP2P speed/width keywords for ``link``."""
    return {"link_speed": PcieGen[link.gen].speed_code,
            "link_width": link.width}


def make_root_complex(sim, num_root_ports: int, **knobs) -> RootComplex:
    """A root complex at :class:`TopologySpec`'s ``rc_*`` defaults,
    advertising a default :class:`LinkSpec`, with ``knobs`` on top."""
    spec = TopologySpec()
    return RootComplex(sim, num_root_ports=num_root_ports, **{
        "latency": spec.rc_latency, "buffer_size": spec.rc_buffer_size,
        "service_interval": spec.rc_service_interval,
        "datapath_scope": spec.rc_datapath_scope,
        **_advertised(LinkSpec()), **knobs})


def make_switch(sim, num_downstream_ports: int, **knobs) -> PcieSwitch:
    """A switch at :class:`SwitchSpec`'s defaults, advertising a
    default :class:`LinkSpec`, with ``knobs`` on top."""
    spec = SwitchSpec()
    return PcieSwitch(sim, num_downstream_ports=num_downstream_ports, **{
        "latency": spec.latency, "buffer_size": spec.buffer_size,
        "service_interval": spec.service_interval,
        "datapath_scope": spec.datapath_scope,
        **_advertised(LinkSpec()), **knobs})
