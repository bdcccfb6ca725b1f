"""Unit tests for the declarative topology spec layer.

Covers the spec grammar itself (round-trip, canonicalisation,
auto-naming, validation), the presets as the paper's machines, the
MSI-doorbell field move with its deprecation alias, and
the harness ``--list`` discovery path.
"""

import json
from unittest import mock

import pytest

from repro.system.spec import (ClassicPciSpec, DeviceSpec, LinkSpec,
                               RootComplexSpec, SpecError, SwitchSpec,
                               TopologySpec,
                               classic_pci_spec, deep_hierarchy_spec,
                               nic_spec, spec_from_dict, validation_spec)
from repro.devices.disk import IdeDisk
from repro.system.topology import build_system


# -------------------------------------------------------------- serialisation


def test_validation_spec_round_trips_through_json():
    spec = validation_spec(root_link_width=8, error_rate=0.02)
    text = spec.to_json()
    again = TopologySpec.from_json(text)
    assert again.canonical() == spec.canonical()
    assert again.digest() == spec.digest()
    # The JSON really is JSON, and carries the knobs we set.
    doc = json.loads(text)
    assert doc["kind"] == "pcie"
    assert doc["children"][0]["link"]["width"] == 8
    assert doc["children"][0]["children"][0]["link"]["error_rate"] == 0.02


def test_all_named_specs_round_trip():
    disk_and_nic = TopologySpec(children=[SwitchSpec(
        name="switch", link=LinkSpec(name="root", width=4),
        children=[DeviceSpec("disk"), DeviceSpec("nic")])]).finalize()
    for spec in (validation_spec(), nic_spec(), disk_and_nic,
                 deep_hierarchy_spec(2, 3)):
        again = spec_from_dict(json.loads(spec.to_json()))
        assert again.canonical() == spec.canonical()


def test_classic_spec_round_trips_via_spec_from_dict():
    spec = classic_pci_spec(clock_mhz=66)
    again = spec_from_dict(spec.to_dict())
    assert isinstance(again, ClassicPciSpec)
    assert again.canonical() == spec.canonical()
    assert again.clock_mhz == 66


def test_per_class_credits_round_trip_and_move_the_digest():
    link = LinkSpec(name="l", p_credits=8, np_credits=2, cpl_credits=3)
    spec = TopologySpec(children=[DeviceSpec("disk", link=link)]).finalize()
    doc = json.loads(spec.to_json())
    assert doc["children"][0]["link"]["p_credits"] == 8
    assert doc["children"][0]["link"]["np_credits"] == 2
    assert doc["children"][0]["link"]["cpl_credits"] == 3
    again = TopologySpec.from_json(spec.to_json())
    assert again.canonical() == spec.canonical()
    # The credit knobs are part of the experiment's identity.
    default = TopologySpec(children=[
        DeviceSpec("disk", link=LinkSpec(name="l"))]).finalize()
    assert default.digest() != spec.digest()
    # Defaults reproduce the pre-split 16-slot aggregate capacity.
    d = LinkSpec(name="d")
    assert d.p_credits + d.np_credits + d.cpl_credits == 16


def test_zero_credit_class_is_rejected():
    with pytest.raises(SpecError, match="cpl_credits"):
        TopologySpec(children=[
            DeviceSpec("disk", link=LinkSpec(name="l", cpl_credits=0))
        ]).finalize()


def test_canonical_is_order_insensitive_and_digest_tracks_content():
    a = validation_spec()
    b = validation_spec()
    assert a.canonical() == b.canonical()
    c = validation_spec(device_link_width=2)
    assert a.canonical() != c.canonical()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 12


def test_spec_from_dict_rejects_unknown_kind():
    with pytest.raises(SpecError, match="unknown topology spec kind"):
        spec_from_dict({"kind": "infiniband"})


# -------------------------------------------------------- naming & validation


def test_auto_naming_fills_unnamed_nodes_per_kind():
    spec = TopologySpec(children=[SwitchSpec(children=[
        DeviceSpec("disk"),
        DeviceSpec("disk", name="bulk"),
        DeviceSpec("nic"),
        DeviceSpec("disk"),
    ])]).finalize()
    names = [d.name for d in spec.devices()]
    assert names == ["disk0", "bulk", "nic0", "disk1"]
    assert spec.switches()[0].name == "switch0"
    # Unnamed links inherit their node's name.
    assert spec.devices()[0].link.name == "disk0"


def test_auto_naming_skips_explicitly_taken_names():
    spec = TopologySpec(children=[SwitchSpec(name="switch0", children=[
        DeviceSpec("disk", name="disk0"),
        DeviceSpec("disk"),
    ])]).finalize()
    assert [d.name for d in spec.devices()] == ["disk0", "disk1"]


def test_duplicate_instance_names_are_rejected():
    spec = TopologySpec(children=[SwitchSpec(name="sw", children=[
        DeviceSpec("disk", name="dup"),
        DeviceSpec("disk", name="dup"),
    ])])
    with pytest.raises(SpecError, match="duplicate instance name"):
        spec.finalize()


def test_unknown_device_kind_is_rejected():
    with pytest.raises(SpecError, match="unknown kind"):
        TopologySpec(children=[DeviceSpec("gpu")]).finalize()


def test_unknown_generation_is_rejected():
    with pytest.raises(SpecError, match="unknown generation"):
        TopologySpec(children=[
            DeviceSpec("disk", link=LinkSpec(gen="GEN9"))
        ]).finalize()


def test_children_must_fit_declared_ports():
    switch = SwitchSpec(name="sw", num_ports=1, children=[
        DeviceSpec("disk"), DeviceSpec("disk")])
    with pytest.raises(SpecError, match="do not fit"):
        TopologySpec(children=[switch]).finalize()


def test_a_switch_with_more_than_32_ports_fails_validation():
    # Downstream ports take device numbers 0-31 on the switch's
    # internal bus; the 33rd used to fail mid-build on "invalid slot".
    deep_hierarchy_spec(1, 32).validate()
    with pytest.raises(SpecError, match="switch 'sw1': num_ports: 33"):
        deep_hierarchy_spec(2, 32).validate()


def test_more_than_32_root_ports_fail_validation():
    with pytest.raises(SpecError, match="num_root_ports: 33"):
        TopologySpec(children=[DeviceSpec("disk")],
                     root_complex=RootComplexSpec(num_root_ports=33)
                     ).finalize()


@pytest.mark.parametrize("depth, fanout, bridges", [
    (8, 31, 264), (100, 1, 300)])
def test_a_fabric_beyond_255_bus_numbers_fails_validation(depth, fanout,
                                                          bridges):
    with pytest.raises(SpecError, match=f"needs {bridges} bus numbers"):
        deep_hierarchy_spec(depth, fanout).validate()


def test_a_fabric_of_exactly_255_bus_numbers_boots():
    # One root port, 13 switches of 1 + 17 ports, a leaf of 1 + 16.
    spec = deep_hierarchy_spec(14, 16)
    leaf = spec.switches()[-1]
    leaf.num_ports = leaf.effective_num_ports + 3  # 252 + 3 bridges
    system = build_system(spec, check=False)
    assert len(system.devices) == 14 * 16
    leaf.num_ports += 1
    with pytest.raises(SpecError, match="needs 256 bus numbers"):
        spec.validate()


def test_empty_topology_is_rejected():
    with pytest.raises(SpecError, match="at least one node"):
        TopologySpec().finalize()


def test_classic_spec_rejects_nic():
    with pytest.raises(SpecError, match="only the disk"):
        ClassicPciSpec(device=DeviceSpec("nic")).finalize()


def _one_disk(link=None, **switch_knobs):
    """Root complex -> switch ``sw`` -> one disk, through the grammar."""
    disk = DeviceSpec("disk", link=link)
    return TopologySpec(children=[
        SwitchSpec(name="sw", children=[disk], **switch_knobs)])


def test_error_rate_above_one_is_rejected():
    with pytest.raises(SpecError, match="error_rate must be a number in"):
        _one_disk(LinkSpec(error_rate=2.0)).finalize()


def test_dllp_error_rate_below_zero_is_rejected():
    with pytest.raises(SpecError, match="'disk0': dllp_error_rate"):
        _one_disk(LinkSpec(dllp_error_rate=-0.1)).finalize()


def test_negative_switch_latency_is_rejected():
    with pytest.raises(SpecError, match="switch 'sw': latency"):
        _one_disk(latency=-5).finalize()


def test_negative_switch_service_interval_is_rejected():
    with pytest.raises(SpecError, match="switch 'sw': service_interval"):
        _one_disk(service_interval=-5).finalize()


def test_negative_root_complex_latency_is_rejected():
    spec = _one_disk()
    spec.root_complex.latency = -5
    with pytest.raises(SpecError, match="root complex: latency"):
        spec.finalize()


def test_negative_root_complex_service_interval_is_rejected():
    doc = validation_spec().to_dict()
    doc["root_complex"]["service_interval"] = -5
    with pytest.raises(SpecError, match="root complex: service_interval"):
        spec_from_dict(doc)


def test_negative_propagation_delay_is_rejected():
    with pytest.raises(SpecError, match="propagation_delay"):
        _one_disk(LinkSpec(propagation_delay=-1)).finalize()


def test_string_width_is_rejected():
    doc = validation_spec().to_dict()
    doc["children"][0]["link"]["width"] = "4"
    with pytest.raises(SpecError, match="width must be an integer >= 1"):
        spec_from_dict(doc)


def test_node_without_kind_is_rejected():
    doc = validation_spec().to_dict()
    del doc["children"][0]["children"][0]["kind"]
    with pytest.raises(SpecError, match="missing field 'kind'"):
        spec_from_dict(doc)


_DISK = ("children", 0, "children", 0)
_DISK_LINK = _DISK + ("link",)


_HOSTILE_FIELDS = [
    (validation_spec, _DISK_LINK + ("width",), 3, "width"),
    (validation_spec, _DISK_LINK + ("max_payload",), 8192, "max_payload"),
    (validation_spec, _DISK_LINK + ("max_payload",), "64", "max_payload"),
    (validation_spec, _DISK_LINK + ("replay_timeout",), -1, "replay_timeout"),
    (validation_spec, _DISK_LINK + ("replay_timeout",), "9", "replay_timeout"),
    (validation_spec, _DISK_LINK + ("ack_period",), -1, "ack_period"),
    (validation_spec, _DISK_LINK + ("ack_period",), "9", "ack_period"),
    (validation_spec, _DISK_LINK + ("error_seed",), "seed", "error_seed"),
    (validation_spec, ("children", 0, "num_ports"), "2", "num_ports"),
    (validation_spec, ("root_complex", "num_root_ports"), "3",
     "num_root_ports"),
    (classic_pci_spec, ("clock_mhz",), "33", "clock_mhz"),
    (validation_spec, ("children", 0, "children"), {"node": "device"},
     "children"),
    (validation_spec, ("children", 0, "children", 0), "disk",
     r"children\[0\]"),
    (classic_pci_spec, ("clock_mhz",), 50, "clock_mhz"),
    # A key the grammar does not know fails instead of running the
    # default, in every document kind.
    (validation_spec, ("children", 0, "buffer_sise"), 8, "buffer_sise"),
    (validation_spec, _DISK + ("parms",), {}, "parms"),
    (validation_spec, ("root_complex", "latncy"), 150, "latncy"),
    (validation_spec, ("enable_msis",), True, "enable_msis"),
    (classic_pci_spec, ("clock_mhs",), 33, "clock_mhs"),
    (classic_pci_spec, ("device", "nmae"), "disk", "nmae"),
    (validation_spec, _DISK + ("params",), 5, "params"),
    (classic_pci_spec, ("device", "params"), "fast", "params"),
    # A shared bus has no links: one must fail, not vanish on write.
    (classic_pci_spec, ("device", "link"), {"width": 99, "gen": "GEN9"},
     "link"),
    (validation_spec, ("enable_msi",), "yes", "enable_msi"),
    # A name becomes a SimObject name, where "." joins full names.
    (validation_spec, _DISK + ("name",), "", "device '': name must be"),
    (validation_spec, _DISK + ("name",), ["x"], r"device \['x'\]: name"),
    (validation_spec, _DISK + ("name",), 5, "device 5: name must be"),
    (validation_spec, _DISK + ("name",), "disk_link.up_if",
     "device 'disk_link.up_if': name must be"),
    (validation_spec, _DISK_LINK + ("name",), "a.b", "link: name must be"),
    (validation_spec, ("children", 0, "name"), 7, "switch 7: name must be"),
    (classic_pci_spec, ("device", "name"), "", "device '': name must be"),
    (validation_spec, ("name",), 5, "topology name must be"),
    # A device's params load through its kind's knob record.
    (validation_spec, _DISK + ("params", "acess_latency"), 5, "acess_latency"),
    (validation_spec, _DISK + ("params", "posted_writes"), "yes",
     "posted_writes"),
    (validation_spec, _DISK + ("params", "sector_size"), "4096",
     "sector_size"),
    (validation_spec, _DISK + ("params", "access_latency"), -5,
     "access_latency"),
    (validation_spec, _DISK + ("params", "sector_size"), 0, "sector_size"),
    (validation_spec, _DISK + ("params", "dma_outstanding"), 0,
     "dma_outstanding"),
    (classic_pci_spec, ("device", "params", "acess_latency"), 7,
     "acess_latency"),
]


@pytest.mark.parametrize(
    "preset, path, value, field", _HOSTILE_FIELDS,
    ids=[f"{path[-1]}={value!r}" for __, path, value, __ in _HOSTILE_FIELDS])
def test_hostile_field_is_rejected_naming_it(preset, path, value, field):
    doc = preset().to_dict()
    *parents, leaf = path
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    with pytest.raises(SpecError, match=field):
        spec_from_dict(doc)


@pytest.mark.parametrize("preset", [validation_spec, classic_pci_spec])
def test_hostile_params_fail_naming_the_device_before_any_model(preset):
    doc = preset().to_dict()
    device = doc["device"] if "device" in doc else doc["children"][0][
        "children"][0]
    device["params"]["acess_latency"] = 5
    with mock.patch.object(IdeDisk, "__init__") as construct:
        with pytest.raises(SpecError, match=r"device 'disk': .*acess_latency"):
            build_system(doc)
    construct.assert_not_called()


def test_deep_hierarchy_shape():
    spec = deep_hierarchy_spec(3, 2)
    assert len(spec.devices()) == 6
    assert [s.name for s in spec.switches()] == ["sw1", "sw2", "sw3"]
    # Non-leaf switches carry fanout devices plus the chain port.
    assert spec.switches()[0].effective_num_ports == 3
    assert spec.switches()[-1].effective_num_ports == 2


# ------------------------------------------------------------------- presets


def test_legacy_builder_records_its_spec():
    system = build_system(validation_spec())
    assert system.spec is not None
    assert system.spec.name == "validation"
    assert system.spec.canonical() == validation_spec().canonical()


def test_build_system_accepts_plain_dicts():
    system = build_system(nic_spec().to_dict())
    assert "nic" in system.devices
    assert system.drivers["nic"].bound


@pytest.mark.parametrize("spec_class, preset", [
    (TopologySpec, validation_spec), (ClassicPciSpec, classic_pci_spec)])
def test_build_system_validates_a_machine_once(spec_class, preset):
    # A document is validated by spec_from_dict, a spec object by
    # build_system; neither is validated again in the builder.
    for spec in (preset().to_dict(), preset()):
        with mock.patch.object(spec_class, "validate",
                               autospec=True) as validate:
            build_system(spec, check=False)
        assert validate.call_count == 1


# ------------------------------------------------- MSI doorbell field (satellite)


def test_msi_doorbell_is_a_field_not_a_device():
    system = build_system(validation_spec(enable_msi=True))
    assert system.msi_doorbell is not None
    assert "msi_doorbell" not in dict(system.devices)
    assert system.kernel.msi_target_addr == system.msi_doorbell.range.start


def test_msi_doorbell_legacy_alias_is_gone():
    # The deprecated ``devices["msi_doorbell"]`` alias (a _DeviceMap
    # shim that warned and forwarded to the field) has been removed:
    # ``devices`` is a plain dict of actual endpoint devices again.
    system = build_system(validation_spec(enable_msi=True))
    assert type(system.devices) is dict
    assert "msi_doorbell" not in system.devices
    assert system.devices.get("msi_doorbell") is None
    with pytest.raises(KeyError):
        system.devices["msi_doorbell"]
    # The doorbell itself still exists — as the dedicated field.
    assert system.msi_doorbell is not None


def test_no_doorbell_without_msi():
    system = build_system(validation_spec())
    assert system.msi_doorbell is None
    assert "msi_doorbell" not in system.devices
    assert system.devices.get("msi_doorbell") is None
    with pytest.raises(KeyError):
        system.devices["msi_doorbell"]


# ----------------------------------------------------- harness --list (satellite)


def test_harness_list_prints_descriptions_and_exits_zero(capsys):
    from benchmarks import harness, sweeps

    assert harness.main(["--list"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    # Exactly one line per sweep: no engine list rides along any more.
    assert len(lines) == len(sweeps.SWEEPS)
    for name in sweeps.SWEEPS:
        assert any(line.startswith(name) for line in lines)
    # One-line descriptions ride along, deep_hierarchy included.
    deep = next(line for line in lines if line.startswith("deep_hierarchy"))
    assert "depth" in deep and "fan-out" in deep
