"""One engine: what is left of engine selection is must-be-None shims."""

import pytest

from repro.sim.backend import backend_names
from repro.sim.eventq import EventQueue
from repro.sim.simobject import Simulator


def test_no_alternative_engine_is_registered():
    assert backend_names() == []


@pytest.mark.parametrize("name", ["hybrid", "reference"])
def test_simulator_backend_must_be_none(name):
    with pytest.raises(ValueError, match=rf"backend='{name}'.*must be None"):
        Simulator("engine", backend=name)
    sim = Simulator("engine", backend=None)
    assert sim.backend is None
    assert type(sim.eventq) is EventQueue


@pytest.mark.parametrize("name", ["turbo", "parallel"])
def test_retired_names_fail_as_unknown(name, monkeypatch):
    """Retired engines left no alias or stub behind: the constructor
    refuses the name, and the environment selects nothing."""
    with pytest.raises(ValueError, match=rf"backend='{name}'.*must be None"):
        Simulator("retired", backend=name)
    monkeypatch.setenv("REPRO_BACKEND", name)
    assert type(Simulator("retired-env").eventq) is EventQueue


def test_simulator_builds_queue_through_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    sim = Simulator("default")
    assert sim.backend is None
    assert type(sim.eventq) is EventQueue
    assert sim.eventq.name == "default.eventq"


def test_simulator_ignores_backend_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert type(Simulator("env").eventq) is EventQueue


def test_harness_rejects_retired_backend(capsys):
    from benchmarks import harness

    with pytest.raises(SystemExit) as exit_info:
        harness.main(["--backend", "turbo", "fig9b"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_harness_has_no_partitions_flag(capsys):
    from benchmarks import harness

    with pytest.raises(SystemExit) as exit_info:
        harness.main(["--partitions", "2", "fig9b"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --partitions" in capsys.readouterr().err


def test_build_system_partitions_must_be_none():
    from repro.system.spec import SpecError, validation_spec
    from repro.system.topology import build_system

    with pytest.raises(SpecError, match="partitions"):
        build_system(validation_spec(), partitions=2)
    assert build_system(validation_spec(), partitions=None).spec is not None
