"""Compare two result documents of ``python3 benchmarks/perf``.

::

    python3 benchmarks/perf/compare.py A.json B.json

For every workload x end-to-end metric: both reported values (for a
timing, the fastest repeat), the ratio B/A (base: A), the bound
``BENCHMARK.json`` fixes, and a verdict —

* ``regressed``  B is worse than A by more than the bound;
* ``unresolved`` the spread between repeats (quartile distance over
  median, either side) is wider than the bound and the two sides'
  repeats overlap, so neither "regressed" nor "unchanged" can be
  claimed from these two documents;
* ``ok``         otherwise.

Then the exact, simulated side: ``stats_digest`` and every count, as
counts — a count that moved is a change of behaviour, not a speed-up.

Exit status 1 on any regression, any drop of ``completed_frac``, any
more failed operations, or documents that do not describe the same
inputs; 0 otherwise (unresolved pairs are reported, not failed).
"""

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric's two
    summaries (``value``, ``median``, ``q1``, ``q3``, ``min``, ``max``)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        # Resolved all the same if every repeat of one side beats every
        # repeat of the other.
        best, worst = ("min", "max") if better == "lower" else ("max", "min")
        if sign * (b[best] - a[worst]) > 0:
            return "regressed"
        if sign * (a[best] - b[worst]) > 0:
            return "ok"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            contract: Dict[str, Any]) -> List[str]:
    """Print the comparison; return the reasons to exit non-zero."""
    problems: List[str] = []
    for key in ("schema", "seed", "scale", "trace"):
        if doc_a.get(key) != doc_b.get(key):
            problems.append(f"documents differ in {key}: "
                            f"{doc_a.get(key)!r} vs {doc_b.get(key)!r}")
    if doc_a.get("trace"):
        problems.append("these are per-layer documents; end-to-end "
                        "verdicts need --trace 0 runs")
    if problems:
        return problems

    print(f"A: commit {doc_a['commit'][:12]}  calibration "
          f"{doc_a['calibration_s']:.4f} s")
    print(f"B: commit {doc_b['commit'][:12]}  calibration "
          f"{doc_b['calibration_s']:.4f} s")
    header = (f"{'workload':<20}{'metric':<16}{'A':>12}"
              f"{'B':>12}{'B/A':>8}{'bound':>7}  verdict")
    print(header)
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            problems.append(f"{name}: missing from B")
            continue
        for metric in contract["end_to_end"]:
            key = metric["name"]
            ma, mb = a["metrics"][key], b["metrics"][key]
            word = verdict(ma, mb, metric["better"], metric["bound"])
            print(f"{name:<20}{key:<16}{ma['value']:>12.6g}"
                  f"{mb['value']:>12.6g}{mb['value'] / ma['value']:>8.3f}"
                  f"{metric['bound']:>7.3f}  {word}")
            if word == "regressed":
                problems.append(f"{name}: {key} regressed "
                                f"({ma['value']:.6g} -> {mb['value']:.6g} "
                                f"{metric['unit']})")
        if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]:
            problems.append(
                f"{name}: failed operations rose from {a['failed']}/"
                f"{a['attempted']} to {b['failed']}/{b['attempted']}")

    print("\nsimulated side (exact; reported as counts, not speed-ups)")
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            continue
        same = a["stats_digest"] == b["stats_digest"]
        print(f"{name:<20}stats_digest {'identical' if same else 'DIFFERS'}")
        for key, value in a["counts"].items():
            other = b["counts"][key]
            if other != value:
                print(f"{'':<20}{key}: {value} -> {other} "
                      f"({other - value:+})")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI; see the module docstring."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(CONTRACT, encoding="utf-8") as fh:
        contract = json.load(fh)
    problems = compare(docs[0], docs[1], contract)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
