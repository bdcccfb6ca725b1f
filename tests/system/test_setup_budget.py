"""Machine setup has a config-read budget and a call budget.

Building a machine enumerates it: every configuration access resolves
its bus number through the host.  Resolving by re-walking the bridge
tree from bus 0 on each access made setup quadratic in the fabric
(321,736 ``ConfigSpace.read`` calls for a depth-4, fan-out-8 fabric).
The counts below repeat exactly from run to run, so each ceiling is the
measurement plus 10 %, not a timing.  What enumeration itself does —
the host's config reads, writes and missed accesses — is pinned
exactly: a perf change never moves it.
"""

from repro.pci.config import ConfigSpace
from repro.system.spec import deep_hierarchy_spec
from repro.system.topology import build_system

from tests.sim.test_hot_path_budget import _count_calls

#: ``ConfigSpace.read`` calls while building ``deep_hierarchy_spec(4,
#: 8)``: 1,696 measured once bridges answered bus-number tests from
#: their raw registers, plus 10 % (2,264 when the host first memoised
#: bus resolution).
DEEP_BUILD_CONFIG_READ_CEILING = 1866

#: ``(config_reads, config_writes, missed_accesses)`` of that build.
DEEP_BUILD_HOST_ACCESSES = (1528, 1048, 1240)

#: Every call, Python and C, of that build from its spec to a booted,
#: bound machine: 59,109 measured, plus 10 %.  It was 125,968 before
#: link timing was memoised per geometry, headers installed from one
#: table per class in one pass, and enumeration re-walked only the
#: buses a bridge write re-routes.
DEEP_BUILD_CALL_CEILING = 65020


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


def _build_counting_calls():
    spec = deep_hierarchy_spec(4, 8)
    build_system(spec)  # warm: lazy imports and per-geometry memos filled
    return _count_calls(lambda: build_system(spec))


def test_deep_build_calls_within_budget():
    calls = _build_counting_calls()
    assert calls == _build_counting_calls(), "count must repeat exactly"
    assert calls <= DEEP_BUILD_CALL_CEILING
