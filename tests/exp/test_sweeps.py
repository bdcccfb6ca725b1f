"""Every registered sweep speaks one grammar: a spec plus a workload."""

import inspect

from benchmarks.sweeps import SWEEPS
from repro.system.spec import nic_spec, spec_from_dict, validation_spec

#: Runners whose machine is a serialised topology spec.
MACHINE_RUNNERS = {f"repro.exp.points:{name}" for name in (
    "dd_point", "mmio_point", "stress_point", "classic_pci_point")}

#: Builder knobs that belong inside the spec, never beside it.
LEGACY_KNOBS = (set(inspect.signature(validation_spec).parameters)
                | set(inspect.signature(nic_spec).parameters)
                | {"switch_latency_ns", "rc_latency_ns"})


def test_every_point_names_its_machine_by_spec():
    swept = set()
    for name, builder in SWEEPS.items():
        for point in builder().points:
            if point.runner not in MACHINE_RUNNERS:
                continue
            doc = point.params["topology"]
            assert spec_from_dict(doc).to_dict() == doc, (name, point.key)
            stray = LEGACY_KNOBS & set(point.params)
            assert not stray, (name, point.key, sorted(stray))
            swept.add(name)
    # Only the traffic sweep runs scenario documents alone.
    assert swept == set(SWEEPS) - {"traffic"}
