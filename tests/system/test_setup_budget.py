"""Machine setup has a config-read budget.

Building a machine enumerates it: every configuration access resolves
its bus number through the host.  Resolving by re-walking the bridge
tree from bus 0 on each access made setup quadratic in the fabric
(321,736 ``ConfigSpace.read`` calls for a depth-4, fan-out-8 fabric).
The count below repeats exactly from run to run, so the ceiling is the
measurement plus 10 %, not a timing.  What enumeration itself does —
the host's config reads, writes and missed accesses — is pinned
exactly: a perf change never moves it.
"""

from repro.pci.config import ConfigSpace
from repro.system.spec import deep_hierarchy_spec
from repro.system.topology import build_system

#: ``ConfigSpace.read`` calls while building ``deep_hierarchy_spec(4,
#: 8)``: 2,264 measured once the host memoised bus resolution, plus
#: 10 %.
DEEP_BUILD_CONFIG_READ_CEILING = 2490

#: ``(config_reads, config_writes, missed_accesses)`` of that build.
DEEP_BUILD_HOST_ACCESSES = (1528, 1048, 1240)


def _build_counting_reads(monkeypatch):
    calls = 0
    real_read = ConfigSpace.read

    def counting_read(self, offset, size=4):
        nonlocal calls
        calls += 1
        return real_read(self, offset, size)

    monkeypatch.setattr(ConfigSpace, "read", counting_read)
    system = build_system(deep_hierarchy_spec(4, 8))
    monkeypatch.undo()
    return system, calls


def test_deep_build_config_reads_within_budget(monkeypatch):
    system, calls = _build_counting_reads(monkeypatch)
    assert calls == _build_counting_reads(monkeypatch)[1], \
        "count must repeat exactly"
    assert calls <= DEEP_BUILD_CONFIG_READ_CEILING
    host = system.host
    assert (host.config_reads.value(), host.config_writes.value(),
            host.missed_accesses.value()) == DEEP_BUILD_HOST_ACCESSES
