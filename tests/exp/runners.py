"""Cheap, deterministic sweep-point runners for the exp tests.

Module-level so :func:`repro.exp.spec.resolve_runner` (and spawn
workers, should a test want them) can import them by dotted path.
"""

CALLS = []


def quadratic(x, scale=1):
    """A trivially checkable runner: records its call, returns x²·scale."""
    CALLS.append((x, scale))
    return {"x": x, "value": x * x * scale}


def failing(message="boom"):
    """A runner that always raises — exercises error propagation."""
    raise RuntimeError(message)


#: Points ``fails_once`` raises on, each only the first time.
FAIL_ONCE = set()


def fails_once(x):
    """``quadratic``, except that it raises the first time it meets an
    ``x`` in :data:`FAIL_ONCE` — a sweep that dies part-way."""
    if x in FAIL_ONCE:
        FAIL_ONCE.discard(x)
        raise RuntimeError(f"point {x} died")
    return quadratic(x)

