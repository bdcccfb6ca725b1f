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

The presets and the library scenario builders pass a record only what
they change: no keyword default and no literal argument equals the
default of the record field it feeds.  Platform addresses live only in
the address map.
"""

import ast
import dataclasses
import inspect
import textwrap

import pytest

from repro.devices.base import CommandDevice, PcieDevice
from repro.kernel.interrupts import InterruptController, MsiDoorbell
from repro.mem.addr import AddrRange
from repro.pci.bus import PciBus
from repro.pci.enumeration import Enumerator
from repro.pci.host import PciHost
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import RootComplex
from repro.pcie.routing import PcieRoutingEngine
from repro.pcie.switch import PcieSwitch
from repro.pcie.timing import LinkTiming
from repro.platform.addrmap import VEXPRESS_GEM5_V1, AddressMap
from repro.sim.simobject import Simulator
from repro.system.spec import (DEVICE_KIND_NAMES, DEVICE_KNOBS,
                               ClassicPciSpec, DeviceSpec, EndpointKnobs,
                               EngineSpec, LinkSpec, Record, RootComplexSpec,
                               SpecError, SwitchSpec, TopologySpec,
                               classic_pci_spec, deep_hierarchy_spec,
                               nic_spec, validation_spec)
from repro.system.topology import DEVICE_KINDS
from repro.workloads.scenarios import SCENARIOS

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


#: Every preset and library scenario builder, with the arguments it
#: requires.
BUILDERS = [(validation_spec, ()), (nic_spec, ()), (classic_pci_spec, ()),
            (deep_hierarchy_spec, (1, 1))] + [
    (builder, ()) for builder in SCENARIOS.values()]

#: The records a machine is made of (a scenario's flows are traffic).
MACHINE_RECORDS = (LinkSpec, EngineSpec, DeviceSpec, TopologySpec,
                   ClassicPciSpec, EndpointKnobs)

#: The machine records a builder body constructs, by name.
SPEC_CALLS = {record.__name__: record for record in (
    LinkSpec, SwitchSpec, RootComplexSpec, TopologySpec, ClassicPciSpec,
    DeviceSpec)}


def _machine_fields(record):
    """``(record type, field, value)`` for each field of each machine
    record in ``record``'s tree; a device's params count as fields of
    its kind's knob record."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(record, MACHINE_RECORDS):
            yield type(record), field, value
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Record):
                yield from _machine_fields(item)
    if isinstance(record, DeviceSpec):
        knobs = DEVICE_KNOBS[record.kind]
        fields = {field.name: field for field in dataclasses.fields(knobs)}
        for knob, value in record.params.items():
            yield knobs, fields[knob], value


def test_no_builder_keyword_defaults_to_its_record_default(monkeypatch):
    # A marker passed as one keyword shows the record fields it feeds;
    # validation, which would reject the marker, is switched off.
    monkeypatch.setattr(TopologySpec, "validate", lambda self: None)
    monkeypatch.setattr(ClassicPciSpec, "validate", lambda self: None)
    fed, restated = set(), []
    for builder, required in BUILDERS:
        for name, parameter in inspect.signature(builder).parameters.items():
            # None means the record's default, which it cannot restate.
            if parameter.default in (None, inspect.Parameter.empty):
                continue
            marker = object()
            try:
                built = builder(*required, **{name: marker})
            except TypeError:
                continue  # counted or computed on: it feeds no field as is
            for record, field, value in _machine_fields(built):
                if value is marker:
                    fed.add((builder.__name__, name))
                    if parameter.default == field.default:
                        restated.append(f"{builder.__name__}({name}="
                                        f"{parameter.default!r}) restates "
                                        f"{record.__name__}.{field.name}")
    assert not restated
    # The probe sees the keywords that do feed a field.
    assert {("validation_spec", "root_link_width"),
            ("validation_spec", "ack_policy"),
            ("deep_hierarchy_spec", "root_link_width"),
            ("deep_hierarchy_spec", "ack_policy")} <= fed


def test_no_builder_body_passes_a_record_its_default():
    restated = []
    for builder, __ in BUILDERS:
        tree = ast.parse(textwrap.dedent(inspect.getsource(builder)))
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in SPEC_CALLS):
                continue
            defaults = {field.name: field.default for field in
                        dataclasses.fields(SPEC_CALLS[call.func.id])}
            for keyword in call.keywords:
                if (isinstance(keyword.value, ast.Constant)
                        and keyword.arg in defaults
                        and keyword.value.value == defaults[keyword.arg]):
                    restated.append(f"{builder.__name__}: {call.func.id}("
                                    f"{keyword.arg}={keyword.value.value!r})")
    assert not restated


def test_the_platform_defaults_read_the_address_map():
    sim = Simulator()
    host = PciHost(sim)
    assert host.ecam_range == VEXPRESS_GEM5_V1.pci_config
    enumerator = Enumerator(host)
    assert enumerator.mem_alloc.window == VEXPRESS_GEM5_V1.pci_mem
    assert enumerator.io_alloc.window == VEXPRESS_GEM5_V1.pci_io
    doorbell = MsiDoorbell(sim, intc=InterruptController(sim, "intc"))
    assert doorbell.range == VEXPRESS_GEM5_V1.msi_doorbell


def test_an_address_map_rejects_a_doorbell_overlapping_dram():
    windows = dict(vars(VEXPRESS_GEM5_V1))
    windows["msi_doorbell"] = AddrRange(windows["dram"].end - 0x1000, 0x2000)
    with pytest.raises(ValueError, match="address windows overlap"):
        AddressMap(**windows)
