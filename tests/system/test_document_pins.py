"""Every document the repository runs is pinned, byte for byte.

A sweep point's cache key, a scenario's digest and a payload's merge
keys all rest on canonical documents: the parameters of every sweep
point, each preset at its defaults and each library scenario.  A round
trip through ``from_dict`` cannot see ``to_dict`` and ``from_dict``
drift together; this pin can.  A change that moves a document on
purpose regenerates the pin and says so::

    PYTHONPATH=src:. python tests/system/test_document_pins.py
"""

import hashlib
import json
import os

from benchmarks import sweeps
from repro.exp.cache import canonical_json
from repro.system.spec import (classic_pci_spec, deep_hierarchy_spec,
                               nic_spec, spec_from_dict, validation_spec)
from repro.workloads.scenarios import SCENARIOS, Scenario
from repro.workloads.traffic import FlowSpec

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "document_pins.json")


def documents() -> dict:
    """Every pinned document, by a stable label."""
    docs = {}
    for sweep_name, build in sweeps.SWEEPS.items():
        for point in build():
            docs[f"sweep/{sweep_name}/{point.key}"] = point.params
    for preset in (validation_spec, nic_spec, classic_pci_spec):
        docs[f"preset/{preset.__name__}"] = preset().to_dict()
    docs["preset/deep_hierarchy_spec"] = deep_hierarchy_spec(2, 3).to_dict()
    for name, build in SCENARIOS.items():
        docs[f"scenario/{name}"] = build().to_dict()
    return docs


def digests() -> dict:
    """The SHA-256 of each document's canonical JSON."""
    return {label: hashlib.sha256(canonical_json(doc).encode()).hexdigest()
            for label, doc in documents().items()}


def test_every_document_matches_its_pin():
    with open(PIN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert digests() == pinned


def test_every_document_reads_back_to_the_same_bytes():
    for label, doc in documents().items():
        if label.startswith("scenario/"):
            again = Scenario.from_dict(doc).to_dict()
        elif label.startswith("preset/"):
            again = spec_from_dict(doc).to_dict()
        else:
            again = dict(doc, topology=spec_from_dict(doc["topology"]).to_dict(),
                         flows=[FlowSpec.from_dict(flow).to_dict()
                                for flow in doc["flows"]])
        assert canonical_json(again) == canonical_json(doc), label


if __name__ == "__main__":
    with open(PIN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
