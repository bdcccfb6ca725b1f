"""The simulation-engine registry (:mod:`repro.sim.backend`)."""

import pytest

from repro.sim.backend import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    Backend,
    backend_names,
    default_backend_name,
    register,
    resolve,
)
from repro.sim.backend import _REGISTRY
from repro.sim.eventq import EventQueue, ReferenceEventQueue
from repro.sim.simobject import Simulator


def test_builtin_backends_registered():
    assert backend_names() == ["hybrid", "reference"]
    assert DEFAULT_BACKEND == "hybrid"


def test_resolve_by_name():
    assert resolve("reference").name == "reference"
    assert resolve("hybrid").name == "hybrid"


def test_resolve_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        resolve("bogus")
    with pytest.raises(ValueError, match="hybrid"):
        resolve("bogus")


def test_resolve_none_uses_default(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert default_backend_name() == "hybrid"
    assert resolve(None).name == "hybrid"
    assert resolve().name == "hybrid"


def test_env_var_selects_default(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "reference")
    assert default_backend_name() == "reference"
    assert resolve(None).name == "reference"
    # An explicit name still beats the environment.
    assert resolve("hybrid").name == "hybrid"


def test_env_var_whitespace_falls_back(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "  ")
    assert default_backend_name() == "hybrid"


def test_env_var_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "trubo")
    with pytest.raises(ValueError, match="trubo"):
        resolve(None)


@pytest.mark.parametrize("name", ["turbo", "parallel"])
def test_retired_names_fail_as_unknown(name, monkeypatch):
    """The engines removed in PR 13 left no alias or stub behind."""
    message = (rf"unknown simulation backend '{name}' "
               r"\(known: hybrid, reference\)")
    with pytest.raises(ValueError, match=message):
        Simulator("retired", backend=name)
    monkeypatch.setenv(BACKEND_ENV, name)
    with pytest.raises(ValueError, match=message):
        Simulator("retired-env")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register(Backend("hybrid", "imposter", lambda name: EventQueue(name)))


def test_register_new_backend():
    backend = Backend("test-engine", "registry test double",
                      lambda name: ReferenceEventQueue(name))
    try:
        assert register(backend) is backend
        assert resolve("test-engine") is backend
        assert "test-engine" in backend_names()
    finally:
        _REGISTRY.pop("test-engine", None)


def test_simulator_builds_queue_through_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert isinstance(Simulator("default").eventq, EventQueue)
    assert isinstance(Simulator("ref", backend="reference").eventq,
                      ReferenceEventQueue)


def test_simulator_honours_env_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "reference")
    sim = Simulator("env")
    assert sim.backend.name == "reference"
    assert isinstance(sim.eventq, ReferenceEventQueue)


def test_harness_rejects_retired_backend(monkeypatch, capsys):
    from benchmarks import harness

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert harness.main(["--backend", "turbo", "fig9b"]) == 2
    err = capsys.readouterr().err
    assert "unknown simulation backend 'turbo'" in err
    assert "known: hybrid, reference" in err


def test_harness_has_no_partitions_flag(capsys):
    from benchmarks import harness

    with pytest.raises(SystemExit) as exit_info:
        harness.main(["--partitions", "2", "fig9b"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --partitions" in capsys.readouterr().err


def test_harness_list_shows_both_backends(monkeypatch, capsys):
    from benchmarks import harness

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert harness.main(["--list"]) == 0
    lines = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
             if line.startswith("backend ")]
    assert lines == [["backend", "*hybrid"], ["backend", "reference"]]


def test_build_system_partitions_must_be_none():
    from repro.system.spec import SpecError, validation_spec
    from repro.system.topology import build_system

    with pytest.raises(SpecError, match="partitions"):
        build_system(validation_spec(), partitions=2)
    assert build_system(validation_spec(), partitions=None).spec is not None
