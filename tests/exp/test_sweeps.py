"""Every registered sweep speaks one grammar: a machine plus flows."""

import inspect

from benchmarks.sweeps import RUN_POINT, SWEEPS
from repro.exp.points import run_point
from repro.system.spec import nic_spec, spec_from_dict, validation_spec
from repro.workloads.traffic import FlowSpec

#: Builder knobs that belong inside the spec, never beside it.
LEGACY_KNOBS = (set(inspect.signature(validation_spec).parameters)
                | set(inspect.signature(nic_spec).parameters)
                | {"switch_latency_ns", "rc_latency_ns"})


def shrunk(flow):
    """``flow`` cut to one request of at most 64 KB: the same record
    keys, a fraction of the run."""
    return dict(flow, requests=1,
                bytes_per_request=min(flow["bytes_per_request"], 64 * 1024))


def test_every_point_names_its_machine_by_spec():
    representatives = {}
    for name, builder in SWEEPS.items():
        for point in builder().points:
            where = (name, point.key)
            assert point.runner == RUN_POINT, where
            assert set(point.params) - {"check"} == {
                "topology", "flows", "metrics"}, where
            doc = point.params["topology"]
            assert spec_from_dict(doc).to_dict() == doc, where
            stray = LEGACY_KNOBS & set(point.params)
            assert not stray, (where, sorted(stray))
            for flow in point.params["flows"]:
                assert FlowSpec.from_dict(flow).to_dict() == flow, where
            reported = tuple(sorted(point.params["metrics"].values()))
            representatives.setdefault(reported, point)
    # Each distinct metric projection names entries run_point really
    # produces (an unknown name raises).
    for reported, point in representatives.items():
        params = dict(point.params,
                      flows=[shrunk(f) for f in point.params["flows"]],
                      metrics={name: name for name in reported})
        assert set(run_point(**params)) == set(reported), point.key
