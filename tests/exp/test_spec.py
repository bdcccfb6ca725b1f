"""Sweep/SweepPoint declaration rules."""

import pytest

from repro.exp import Sweep, SweepPoint, resolve_runner, runner_path
from tests.exp import runners


def test_runner_path_roundtrip():
    path = runner_path(runners.quadratic)
    assert path == "tests.exp.runners:quadratic"
    assert resolve_runner(path) is runners.quadratic


def test_runner_path_rejects_lambdas_and_locals():
    with pytest.raises(ValueError):
        runner_path(lambda x: x)

    def local_fn():
        pass

    with pytest.raises(ValueError):
        runner_path(local_fn)


def test_resolve_runner_rejects_malformed_and_missing():
    with pytest.raises(ValueError):
        resolve_runner("no-colon-here")
    with pytest.raises(ValueError):
        resolve_runner("tests.exp.runners:does_not_exist")


def test_point_accepts_callable_or_path():
    by_callable = SweepPoint("a", runners.quadratic, {"x": 2})
    by_path = SweepPoint("a", "tests.exp.runners:quadratic", {"x": 2})
    assert by_callable.runner == by_path.runner


def test_point_params_must_be_json_safe():
    import enum

    class Colour(enum.Enum):
        RED = 1

    with pytest.raises(ValueError):
        SweepPoint("a", runners.quadratic, {"colour": Colour.RED})
    with pytest.raises(ValueError):
        SweepPoint("a", runners.quadratic, {"x": float("nan")})
    with pytest.raises(ValueError):
        SweepPoint("a", runners.quadratic, {"nested": {1: "non-str key"}})


def test_json_safety_quick_check_keeps_accepted_set_and_messages():
    import collections
    import enum

    from repro.exp.spec import _check_json_safe

    class Level(enum.IntEnum):
        HIGH = 2

    class Name(str):
        pass

    # Subclasses the full walk accepts are still accepted.
    _check_json_safe({"t": (1, [2.5, None], "x"), "lvl": Level.HIGH,
                      "od": collections.OrderedDict(a=True),
                      Name("k"): [Level.HIGH]}, "p")
    # Rejections still name where, with the same messages.
    cases = [
        ({"t": (1, float("nan"))}, "p['t'][1]: non-finite float nan is not cacheable"),
        ({"d": {1: "v"}}, "p['d']: dict keys must be str, got 1"),
        ({"s": {1, 2}}, "p['s']: set is not canonical-JSON-safe"),
        ([Level.HIGH, float("-inf")], "p[1]: non-finite float -inf is not cacheable"),
    ]
    for value, message in cases:
        with pytest.raises(ValueError) as err:
            _check_json_safe(value, "p")
        assert str(err.value).startswith(message)


def test_sweep_preserves_order_and_rejects_duplicates():
    sweep = Sweep("s")
    sweep.add("b", runners.quadratic, x=1)
    sweep.add("a", runners.quadratic, x=2)
    assert [p.key for p in sweep] == ["b", "a"]
    assert len(sweep) == 2
    with pytest.raises(ValueError):
        sweep.add("a", runners.quadratic, x=3)
