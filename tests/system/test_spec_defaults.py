"""The spec records are the only place a machine knob has a default.

A model constructor takes each spec field's value as a required
keyword, or the record itself, so a bare model cannot silently run a
second default that drifted from its record's.  The one exception is the
pair of link timer overrides, whose None means "the
:mod:`repro.pcie.timing` formula" in the record and the model alike.

The routing engine's four knobs are declared once, on
:class:`EngineSpec`, which the root complex's and every switch's record
extend: one default and one range check each.

Each device kind's knobs are declared once, on its record in
:data:`DEVICE_KNOBS`; a device model takes only its
:class:`DeviceSpec`, and a preset that writes a device knob into its
document reads the value from the record.
"""

import dataclasses
import inspect

import pytest

from repro.devices.base import CommandDevice, PcieDevice
from repro.pci.bus import PciBus
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import RootComplex
from repro.pcie.routing import PcieRoutingEngine
from repro.pcie.switch import PcieSwitch
from repro.pcie.timing import LinkTiming
from repro.system.spec import (DEVICE_KIND_NAMES, DEVICE_KNOBS, DeviceSpec,
                               EngineSpec, LinkSpec, RootComplexSpec,
                               SpecError, SwitchSpec, TopologySpec,
                               classic_pci_spec, deep_hierarchy_spec,
                               nic_spec, validation_spec)
from repro.system.topology import DEVICE_KINDS

#: The engine knobs, in declaration order.
ENGINE_KNOBS = ("latency", "buffer_size", "service_interval",
                "datapath_scope")

#: Each keyword-list constructor and its parameters that carry a spec
#: field.
SPEC_PARAMETERS = {
    PcieLink: tuple(field for field in LinkSpec.FIELDS if field != "name"),
    LinkTiming: ("gen", "width"),
    PciBus: ("clock_mhz",),
}

TIMER_OVERRIDES = {("PcieLink", "replay_timeout"), ("PcieLink", "ack_period")}

#: The routing engines, each built from its EngineSpec record.
ENGINES = (PcieRoutingEngine, RootComplex, PcieSwitch)

#: A value out of range for each engine knob.
BAD_KNOBS = {"latency": -1, "buffer_size": 1, "service_interval": -1,
             "datapath_scope": "quantum"}


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


def test_each_engine_knob_has_one_default_on_engine_spec():
    assert EngineSpec.FIELDS == ENGINE_KNOBS
    for record in (RootComplexSpec, SwitchSpec):
        assert issubclass(record, EngineSpec)
        assert record.FIELDS[:len(ENGINE_KNOBS)] == ENGINE_KNOBS
        # Neither record declares a knob again, so neither restates
        # its default.
        own = vars(record).get("__annotations__", {})
        assert not set(own) & set(ENGINE_KNOBS), record.__name__
    defaults = {field.name: field.default
                for field in dataclasses.fields(EngineSpec)}
    for knob in ENGINE_KNOBS:
        assert getattr(RootComplexSpec(), knob) == defaults[knob]
        assert getattr(SwitchSpec(), knob) == defaults[knob]


@pytest.mark.parametrize("knob", ENGINE_KNOBS)
def test_each_engine_knob_has_one_range_check(knob, monkeypatch):
    bad = {knob: BAD_KNOBS[knob]}
    for record in (RootComplexSpec(**bad), SwitchSpec(name="sw", **bad)):
        with pytest.raises(SpecError, match=knob.replace("_", "[_ ]")):
            record.validate()
    # With EngineSpec's check switched off nothing else rejects it.
    monkeypatch.setattr(EngineSpec, "validate", lambda self: None)
    RootComplexSpec(**bad).validate()
    SwitchSpec(name="sw", **bad).validate()


def test_the_routing_engines_take_their_record():
    for model in ENGINES:
        parameters = inspect.signature(model).parameters
        assert "spec" in parameters, model.__name__
        assert not set(parameters) & set(ENGINE_KNOBS), model.__name__
        assert all(parameter.default is inspect.Parameter.empty
                   for parameter in parameters.values()), model.__name__


#: The presets, each called with its defaults.
PRESETS = (validation_spec, nic_spec, classic_pci_spec,
           lambda: deep_hierarchy_spec(1, 1))


def _moved(record, knob):
    """A valid value for ``knob`` other than its default."""
    default = getattr(record, knob)
    return not default if isinstance(default, bool) else default + 1


def test_each_device_knob_has_one_default_on_its_kind_record():
    assert DEVICE_KIND_NAMES == tuple(DEVICE_KNOBS) == tuple(DEVICE_KINDS)
    for kind, record in DEVICE_KNOBS.items():
        for knob in record.FIELDS:
            # Declared by exactly one class the kind's record is made of.
            declared = [cls.__name__ for cls in record.__mro__
                        if knob in vars(cls).get("__annotations__", {})]
            assert len(declared) == 1, (kind, knob, declared)
    # 7 disk, 2 NIC and 4 accelerator knobs can be set by a document.
    assert sum(len(record.FIELDS) for record in DEVICE_KNOBS.values()) == 13


def test_each_device_knob_has_a_range_check():
    for kind, record in DEVICE_KNOBS.items():
        for knob in record.FIELDS:
            device = DeviceSpec(kind, name="dev", params={knob: "1"})
            with pytest.raises(SpecError, match=f"device 'dev': .*{knob}"):
                device.validate()


def test_no_device_model_constructor_defaults_a_knob():
    for model in (PcieDevice, CommandDevice) + tuple(
            model for model, __ in DEVICE_KINDS.values()):
        parameters = inspect.signature(model).parameters
        assert list(parameters) == ["sim", "spec"], model.__name__
        assert all(parameter.default is inspect.Parameter.empty
                   for parameter in parameters.values()), model.__name__
    # Nor does a driver: the builder constructs each with no arguments.
    for __, driver in DEVICE_KINDS.values():
        assert not inspect.signature(driver).parameters, driver.__name__


def test_no_preset_restates_a_device_default(monkeypatch):
    knobs = {knob for record in DEVICE_KNOBS.values()
             for knob in record.FIELDS}
    for preset in (validation_spec, nic_spec, classic_pci_spec,
                   deep_hierarchy_spec):
        for name, parameter in inspect.signature(preset).parameters.items():
            # A device knob the preset forwards defaults to the record's.
            assert name not in knobs or parameter.default is None, name
            kind, __, knob = name.partition("_")
            assert knob not in getattr(DEVICE_KNOBS.get(kind), "FIELDS", ())
    # A knob a preset's document writes follows its record's default;
    # ``msi_functional`` is written from the topology's enable_msi.
    for record in DEVICE_KNOBS.values():
        for knob in record.FIELDS:
            monkeypatch.setattr(record, knob, _moved(record, knob))
    for preset in PRESETS:
        spec = preset()
        devices = (spec.devices() if isinstance(spec, TopologySpec)
                   else [spec.device])
        for device in devices:
            record = DEVICE_KNOBS[device.kind]
            for knob, value in device.params.items():
                if knob != "msi_functional":
                    assert value == getattr(record, knob), (spec.name, knob)
