"""The input documents are frozen: byte-stable per seed, seed-sensitive."""

import hashlib
import json

import pytest

from benchmarks.perf import workloads


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_documents_are_byte_stable_and_seed_sensitive(name):
    first = canonical(workloads.build(name, 1))
    assert first == canonical(workloads.build(name, 1))
    assert first != canonical(workloads.build(name, 2))
    assert first != canonical(workloads.build(name, 1, scale=1.0))


#: SHA-256 prefix of each workload's canonical document at seed 1, default
#: scale.  A change here is a change of what the benchmark measures:
#: it needs its own PR and a re-measured baseline.
FROZEN = {
    "dd_x1_read": "7736bfc4d4550242",
    "dd_x8_read": "5781b5d21fbbd8ca",
    "dd_x1_write": "a2f4f6a5a6b4fe5c",
    "deep4_multi_rw": "1f7a8dcf30b6b88c",
    "classic_pci_read": "e329fe4ddb4a51d7",
    "stress_sweep_fresh": "a3393d7fc8594eaa",
}


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_documents_match_their_frozen_digest(name):
    digest = hashlib.sha256(
        canonical(workloads.build(name, 1)).encode("utf-8")).hexdigest()
    assert digest[:16] == FROZEN[name]


def test_sweep_is_the_38_point_grid():
    points = workloads.build("stress_sweep_fresh", 1)["points"]
    assert len(points) == 38
    assert list(points)[-2:] == ["multiflow/er0.02", "np_storm/unpinned"]
    assert all(doc["check"] for doc in points.values())
    assert len(workloads.stress_sample(1, 0.25)["points"]) == 10


def test_every_transfer_is_whole_sectors():
    assert workloads.scaled_bytes(1 << 20, 0.25) == 256 << 10
    assert workloads.scaled_bytes(8 << 10, 0.01) == workloads.SECTOR


def test_unknown_workload_is_a_named_error():
    with pytest.raises(workloads.UnknownWorkload, match="dd_x1_read"):
        workloads.build("dd_x2_read", 1)
