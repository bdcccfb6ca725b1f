"""Unit tests for the declarative topology spec layer.

Covers the spec grammar itself (round-trip, canonicalisation,
auto-naming, validation), the presets as the paper's machines, the
MSI-doorbell field move with its deprecation alias, and
the harness ``--list`` discovery path.
"""

import json

import pytest

from repro.system.spec import (ClassicPciSpec, DeviceSpec, LinkSpec,
                               SpecError, SwitchSpec, TopologySpec,
                               classic_pci_spec, deep_hierarchy_spec,
                               dual_device_spec, nic_spec, spec_from_dict,
                               validation_spec)
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
    for spec in (validation_spec(), nic_spec(), dual_device_spec(),
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


def test_empty_topology_is_rejected():
    with pytest.raises(SpecError, match="at least one node"):
        TopologySpec().finalize()


def test_classic_spec_rejects_nic():
    with pytest.raises(SpecError, match="only the disk"):
        ClassicPciSpec(device=DeviceSpec("nic")).finalize()


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
    assert system.nic is not None
    assert system.nic_driver.bound


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
