"""Cheap, deterministic sweep-point runners for the exp tests.

Module-level so :func:`repro.exp.spec.resolve_runner` can import them
by dotted path.
"""

import multiprocessing
import os
import signal
import time

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


#: Set by a test at run time; a forked sweep worker inherits the value.
FLAG = None


def read_flag(x):
    """Report :data:`FLAG` as the worker running point ``x`` sees it."""
    return {"x": x, "flag": FLAG}


def dies_once(x, die, marker):
    """``quadratic``, except that the worker running point ``die`` kills
    itself with SIGKILL, once: it leaves the file ``marker`` behind so a
    rerun completes.  In the test process itself it raises instead."""
    if x == die and not os.path.exists(marker):
        open(marker, "w").close()
        if multiprocessing.parent_process() is None:
            raise RuntimeError("dies_once must run in a pool worker")
        time.sleep(0.5)  # let the earlier points report first
        os.kill(os.getpid(), signal.SIGKILL)
    return quadratic(x)
