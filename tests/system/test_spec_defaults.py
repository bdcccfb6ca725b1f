"""The spec records are the only place a machine knob has a default.

A model constructor takes each spec field's value as a required
keyword, so a bare model cannot silently run a second default that
drifted from its record's.  The one exception is the pair of link timer
overrides, whose None means "the :mod:`repro.pcie.timing` formula" in
the record and the model alike.
"""

import inspect

from repro.pci.bus import PciBus
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import RootComplex
from repro.pcie.routing import PcieRoutingEngine
from repro.pcie.switch import PcieSwitch
from repro.pcie.timing import LinkTiming
from repro.system.spec import LinkSpec, SwitchSpec

#: The engine knobs: SwitchSpec's fields that are not tree structure
#: (the root complex takes the same knobs from TopologySpec's ``rc_*``).
ENGINE = tuple(field for field in SwitchSpec.FIELDS
               if field not in ("name", "link", "children", "num_ports"))

#: The VP2P registers advertise a LinkSpec's gen and width.
ADVERTISED = ("link_speed", "link_width")

#: Each constructor and its parameters that carry a spec field.
SPEC_PARAMETERS = {
    PcieLink: tuple(field for field in LinkSpec.FIELDS if field != "name"),
    LinkTiming: ("gen", "width"),
    PcieRoutingEngine: ENGINE,
    PcieSwitch: ("num_downstream_ports",) + ENGINE + ADVERTISED,
    RootComplex: ("num_root_ports",) + ENGINE + ADVERTISED,
    PciBus: ("clock_mhz",),
}

TIMER_OVERRIDES = {("PcieLink", "replay_timeout"), ("PcieLink", "ack_period")}


def test_no_model_constructor_defaults_a_spec_field():
    defaulted = set()
    for model, names in SPEC_PARAMETERS.items():
        parameters = inspect.signature(model).parameters
        for name in names:
            assert name in parameters, f"{model.__name__} lost {name}"
            if parameters[name].default is not inspect.Parameter.empty:
                defaulted.add((model.__name__, name))
    assert defaulted == TIMER_OVERRIDES


def test_the_timer_overrides_mean_the_formula_in_both_places():
    parameters = inspect.signature(PcieLink).parameters
    for __, name in TIMER_OVERRIDES:
        assert parameters[name].default is None
        assert getattr(LinkSpec(), name) is None
