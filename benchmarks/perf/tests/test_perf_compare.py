"""``compare.py`` verdicts on synthetic documents."""

import copy
import json

from benchmarks.perf import compare

with open(compare.CONTRACT, encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def summary(samples, better="lower"):
    """Shaped like ``cli.summarise``: the value is the best sample."""
    ordered = sorted(samples)
    n = len(ordered)
    return {"value": ordered[0] if better == "lower" else ordered[-1],
            "median": ordered[n // 2], "q1": ordered[n // 4],
            "q3": ordered[(3 * n) // 4], "min": ordered[0],
            "max": ordered[-1], "n": n, "unit": "s"}


def document(wall, failed=0, events=1000, digest="d0"):
    done = 1.0 - failed / 64
    return {
        "schema": "repro-perf-bench/1", "seed": 1, "scale": 0.25, "trace": 0,
        "commit": "c" * 40, "calibration_s": 0.1,
        "workloads": {"dd_x1_read": {
            "attempted": 64, "failed": failed, "stats_digest": digest,
            "counts": {"events": events},
            # Every timing and memory metric gets the same samples.
            "metrics": {
                metric["name"]: summary(
                    [done] * 3 if metric["name"] == "completed_frac" else wall,
                    metric["better"])
                for metric in CONTRACT["end_to_end"]},
        }},
    }


STEADY = [1.00, 1.01, 1.02, 1.01, 1.00]


def test_verdicts():
    lower = dict(better="lower", bound=0.10)
    assert compare.verdict(summary(STEADY), summary(STEADY), **lower) == "ok"
    slower = [x * 1.2 for x in STEADY]
    assert compare.verdict(summary(STEADY), summary(slower), **lower) == "regressed"
    assert compare.verdict(summary(slower), summary(STEADY), **lower) == "ok"
    # Wide spread, overlapping runs: neither regressed nor unchanged.
    noisy_a = [1.0, 1.3, 1.1, 1.6, 1.2]
    noisy_b = [1.1, 1.5, 1.3, 1.8, 1.4]
    assert compare.verdict(summary(noisy_a), summary(noisy_b), **lower) == "unresolved"
    # Wide spread but every run of B beats every run of A: resolved.
    clear_b = [0.5, 0.6, 0.7, 0.8, 0.9]
    assert compare.verdict(summary(noisy_a), summary(clear_b), **lower) == "ok"
    assert compare.verdict(summary(clear_b), summary(noisy_a), **lower) == "regressed"
    higher = dict(better="higher", bound=0.001)
    full, short = summary([1.0] * 3, "higher"), summary([0.98] * 3, "higher")
    assert compare.verdict(full, short, **higher) == "regressed"
    assert compare.verdict(short, full, **higher) == "ok"
    # Direction also holds on the wide-spread path.
    high, low = summary([9.0, 7.0, 8.0], "higher"), summary([3.0, 1.0, 2.0], "higher")
    assert compare.verdict(high, low, **higher) == "regressed"
    assert compare.verdict(low, high, **higher) == "ok"


def test_same_commit_twice_passes(capsys):
    assert compare.compare(document(STEADY), document(STEADY), CONTRACT) == []
    assert "identical" in capsys.readouterr().out


def test_regression_and_new_failures_are_reported(capsys):
    slow = document([x * 1.3 for x in STEADY], failed=2, events=900, digest="d1")
    problems = compare.compare(document(STEADY), slow, CONTRACT)
    assert any("wall_s regressed" in p for p in problems)
    assert any("completed_frac regressed" in p for p in problems)
    assert any("failed operations rose" in p for p in problems)
    out = capsys.readouterr().out
    assert "DIFFERS" in out and "events: 1000 -> 900 (-100)" in out


def test_documents_of_different_inputs_are_refused():
    other = copy.deepcopy(document(STEADY))
    other["seed"] = 2
    assert compare.compare(document(STEADY), other, CONTRACT)


def test_cli_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document(STEADY)))
    b.write_text(json.dumps(document([x * 1.3 for x in STEADY])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a)]) == 2
