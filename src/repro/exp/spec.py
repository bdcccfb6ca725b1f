"""Sweep specifications.

A *sweep* is the unit of design-space exploration in this repository:
an ordered collection of named *points*, each of which is one fully
specified, independent simulation (one bar of a paper figure).  Points
are declared, not executed — :mod:`repro.exp.engine` decides whether a
point is served from the on-disk cache, run in-process, or fanned out
to a worker process.

Two representation rules keep sweeps cacheable and parallelisable:

* a point's *runner* is referenced by dotted path (``"pkg.mod:func"``),
  never by closure, so the cache key names it stably and a worker
  process (forked, or started with ``spawn`` where there is no
  ``fork``) can resolve it;
* a point's *params* must be canonical-JSON-safe (dict/list/str/int/
  float/bool/None), so the cache key is a stable hash and results are
  reproducible from the spec alone.
"""

from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = ["SweepPoint", "Sweep", "runner_path", "resolve_runner"]


def runner_path(func: Callable) -> str:
    """Return the importable ``"module:qualname"`` path of ``func``.

    Raises:
        ValueError: if ``func`` is a lambda, a local function, or
            otherwise not importable by dotted path (worker processes
            and the cache key both need a stable, importable name).
    """
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(
            f"sweep runners must be importable module-level functions, "
            f"got {func!r}"
        )
    return f"{module}:{qualname}"


def resolve_runner(path: str) -> Callable:
    """Import and return the runner named by a ``"module:func"`` path."""
    module_name, _, func_name = path.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"malformed runner path {path!r}; want 'module:func'")
    import importlib

    module = importlib.import_module(module_name)
    try:
        return getattr(module, func_name)
    except AttributeError:
        raise ValueError(f"{module_name!r} has no runner {func_name!r}") from None


def _check_json_safe(value: Any, where: str) -> None:
    """Reject values that would not survive a canonical-JSON round trip."""
    if value is None or isinstance(value, (str, bool, int)):
        return
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"{where}: non-finite float {value!r} is not cacheable")
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_json_safe(item, f"{where}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{where}: dict keys must be str, got {key!r}")
            _check_json_safe(item, f"{where}[{key!r}]")
        return
    raise ValueError(
        f"{where}: {type(value).__name__} is not canonical-JSON-safe; "
        f"pass enums as their .name and tick quantities as ints"
    )


class SweepPoint:
    """One fully specified simulation inside a sweep.

    Attributes:
        key: the point's label inside the sweep (e.g. ``"x8/128MB"``);
            unique within its sweep and used as the merge key.
        runner: dotted ``"module:func"`` path of the function that runs
            the point.  The function is called as ``func(**params)`` and
            must return a canonical-JSON-safe value.
        params: keyword arguments for the runner; canonical-JSON-safe.
    """

    __slots__ = ("key", "runner", "params")

    def __init__(self, key: str, runner: Union[str, Callable],
                 params: Optional[Dict[str, Any]] = None):
        if not key:
            raise ValueError("sweep point key must be non-empty")
        self.key = key
        self.runner = runner if isinstance(runner, str) else runner_path(runner)
        self.params = dict(params or {})
        _check_json_safe(self.params, f"point {key!r} params")

    def __repr__(self) -> str:
        return f"<SweepPoint {self.key!r} runner={self.runner}>"


class Sweep:
    """An ordered, named collection of :class:`SweepPoint` objects.

    The declaration order of points is the canonical merge order: the
    engine returns results keyed and ordered exactly as points were
    added, regardless of how many workers ran them, which is what makes
    parallel output byte-identical to serial output.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("sweep name must be non-empty")
        self.name = name
        self._points: List[SweepPoint] = []
        self._keys = set()

    def add(self, key: str, runner: Union[str, Callable],
            **params: Any) -> SweepPoint:
        """Append a point; ``key`` must be unique within the sweep."""
        if key in self._keys:
            raise ValueError(f"duplicate sweep point key {key!r} in {self.name!r}")
        point = SweepPoint(key, runner, params)
        self._points.append(point)
        self._keys.add(key)
        return point

    @property
    def points(self) -> List[SweepPoint]:
        """The points in declaration (= merge) order."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self._points)

    def __repr__(self) -> str:
        return f"<Sweep {self.name!r} points={len(self._points)}>"
