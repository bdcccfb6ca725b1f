"""The figure contract: every committed sweep payload is reproducible.

Each registered sweep is regenerated fresh and serially through the
harness CLI into a temporary directory, and its payload must be
byte-identical to the one committed under ``benchmarks/results/``.  The
stress campaign must also pass its own gate: every configuration
completes with zero protocol-invariant violations.  Every
``examples/*.py`` script must exit 0 when run with no arguments.

The sweeps and examples run unarmed (``REPRO_CHECK`` cleared): the
payloads are identical armed, but the armed checker switches the
fast-forward off and multiplies the cost of both.  Nothing here writes into
``benchmarks/results/``; regenerating a payload stays a harness command
(``python -m benchmarks.harness <sweep> --fresh``).
"""

import glob
import json
import os
import subprocess
import sys

import pytest

from benchmarks import harness
from benchmarks.sweeps import SWEEPS
from repro.sim.simobject import CHECK_ENV

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def first_difference(fresh: dict, committed: dict) -> str:
    """The first point key (in sorted order) whose metrics differ."""
    for key in sorted(set(fresh) | set(committed)):
        if fresh.get(key) != committed.get(key):
            return key
    return "<formatting only>"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_fresh_sweep_reproduces_the_committed_payload(name, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    payload = f"{name}_sweep.json"
    assert harness.main([name, "--fresh", "--workers", "1",
                         "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / payload) as fh:
        fresh_text = fh.read()
    with open(os.path.join(harness.RESULTS_DIR, payload)) as fh:
        committed_text = fh.read()
    fresh = json.loads(fresh_text)
    if fresh_text != committed_text:
        key = first_difference(fresh, json.loads(committed_text))
        pytest.fail(f"sweep {name!r} drifted from {payload}: first "
                    f"differing point {key!r}")
    if name == "stress":
        failing = {key: row["violated_rules"] for key, row in fresh.items()
                   if row["completed"] != 1.0 or row["violations"] != 0.0}
        assert len(fresh) == 38 and not failing, failing


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs_with_no_arguments(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop(CHECK_ENV, None)
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
