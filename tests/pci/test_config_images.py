"""Every function's configuration image is pinned, before and after boot.

The image of a function is its 4 KB of configuration bytes plus its
sorted write masks: what software reads, and which bits it may change.
Headers, capabilities and enumeration may be installed and driven
however is fastest, but the bytes they leave must not move.  The pins
hash every function of a machine in structure order, once just before
the kernel enumerates it and once after drivers bound.
"""

import hashlib

import pytest

from repro.kernel.kernel import OsKernel
from repro.system.spec import classic_pci_spec, deep_hierarchy_spec, nic_spec
from repro.system.topology import build_system
from repro.workloads.scenarios import accel_fanout

#: SHA-256 of (before boot, after boot) images per machine.
PINS = {
    "accel_fanout": (
        "2c86b0529d6a3f4b0df09aede7244d95ae2445110b61fa2b6c2117468fa90a7f",
        "c3b809ba8f8a8dc766c8a4113571beb8cba90efcc40b8cf8dbd0d1b0dc935d81"),
    "classic_pci": (
        "94bf782f2ca6c28c5e828a7b9812a312c831bbca24ffe13714f6c14c62ce1c8a",
        "defdc90887e3edd44095d3f75f2dadc0124045244daec159f2cec843714abc98"),
    "deep_hierarchy_2_2": (
        "a142e81c58c8843dd4d1816645263cf31badf2304ab019a4862a85b35692dbac",
        "79506cac0b1fbc104bf6b26cd73d0f8fd88f38e56b32e36bee31da05161ad52d"),
    "nic": (
        "24754f358193c6348eb69da94c2bf74d50772c0151be4401ea5c38fca389b23f",
        "1b80e7c09570fa7ff6d1e2eb225b05dbafbc7b5cc08c8602786b80e161f8a730"),
}

MACHINES = {
    "deep_hierarchy_2_2": lambda: deep_hierarchy_spec(2, 2),
    "nic": nic_spec,
    "classic_pci": classic_pci_spec,
    "accel_fanout": lambda: accel_fanout().topology,
}


def _image_digest(host) -> str:
    digest = hashlib.sha256()
    for function in host.all_functions():
        config = function.config
        digest.update(bytes(config._data))
        digest.update(repr(sorted(config._wmask.items())).encode())
    return digest.hexdigest()


def _images(monkeypatch, spec):
    before = []
    real_boot = OsKernel.boot

    def boot(kernel, host):
        before.append(_image_digest(host))
        return real_boot(kernel, host)

    monkeypatch.setattr(OsKernel, "boot", boot)
    system = build_system(spec)
    return before[0], _image_digest(system.host)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_config_images_match_pins(monkeypatch, name):
    assert _images(monkeypatch, MACHINES[name]()) == PINS[name]


if __name__ == "__main__":
    import sys

    patch = pytest.MonkeyPatch()
    for key in sorted(MACHINES):
        print(f"    {key!r}: {_images(patch, MACHINES[key]())!r},")
        patch.undo()
    sys.exit(0)
