"""Docstring-coverage contract for the documented-surface paths.

CI runs ``interrogate --fail-under 80`` over the experiment subsystem,
the simulation kernel, the PCI-Express models, the memory system, the
PCI models, the endpoint devices and drivers, the topology spec layer
and the benchmark harness; this test
enforces the same floor with the stdlib checker so the contract also
holds on machines where interrogate is not installed.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCOPED_PATHS = [
    os.path.join(REPO_ROOT, "src", "repro", "check"),
    os.path.join(REPO_ROOT, "src", "repro", "exp"),
    os.path.join(REPO_ROOT, "src", "repro", "sim"),
    os.path.join(REPO_ROOT, "src", "repro", "pcie"),
    os.path.join(REPO_ROOT, "src", "repro", "system"),
    os.path.join(REPO_ROOT, "src", "repro", "kernel"),
    os.path.join(REPO_ROOT, "src", "repro", "workloads"),
    os.path.join(REPO_ROOT, "src", "repro", "devices"),
    os.path.join(REPO_ROOT, "src", "repro", "drivers"),
    os.path.join(REPO_ROOT, "src", "repro", "platform"),
    os.path.join(REPO_ROOT, "src", "repro", "validation"),
    os.path.join(REPO_ROOT, "src", "repro", "mem"),
    os.path.join(REPO_ROOT, "src", "repro", "pci"),
    os.path.join(REPO_ROOT, "src", "repro", "obs"),
    os.path.join(REPO_ROOT, "src", "repro", "analysis"),
    os.path.join(REPO_ROOT, "benchmarks", "harness.py"),
]


def test_docstring_coverage_at_least_80_percent(capsys):
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import check_docstrings
    finally:
        sys.path.pop(0)
    status = check_docstrings.main(["--fail-under", "80", *SCOPED_PATHS])
    output = capsys.readouterr().out
    assert status == 0, f"docstring coverage regressed:\n{output}"
