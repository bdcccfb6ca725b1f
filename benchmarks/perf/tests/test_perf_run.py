"""The benchmark runs end to end at a tiny scale, matches its contract,
and fails loudly."""

import json
import os
import time

import pytest

from benchmarks.perf import cli, layers, runner, workloads

TINY = 0.02


def test_every_workload_completes_at_a_tiny_scale(tmp_path, capsys):
    out = tmp_path / "tiny.json"
    start = time.perf_counter()
    status = cli.main(["--scale", str(TINY), "--seconds", "0.05",
                       "--out", str(out)])
    assert time.perf_counter() - start < 20
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == cli.SCHEMA
    assert {"commit", "python", "nproc", "seed", "calibration_s"} <= set(doc)
    contract = cli.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    assert names == list(workloads.WORKLOAD_NAMES)
    assert sorted(doc["workloads"]) == sorted(names)
    printed = capsys.readouterr().out
    for name, entry in doc["workloads"].items():
        assert entry["failed"] == 0 and not entry["errors"]
        assert sorted(m["name"] for m in contract["end_to_end"]) == sorted(entry["metrics"])
        for metric, record in entry["metrics"].items():
            assert record["value"] > 0 and record["unit"]
            assert len(entry["samples"][metric]) == record["n"]
            assert metric in printed
        assert len(entry["samples"]["wall_s"]) >= 3
        assert len(entry["samples"]["setup_s"]) >= 24
        assert entry["metrics"]["completed_frac"]["value"] == 1.0
    assert doc["workloads"]["stress_sweep_fresh"]["attempted"] % 38 == 0


def test_contract_mode_ends_with_the_summary_line(tmp_path, capsys):
    status = cli.main(["--workload", "dd_x1_write", "--seed", "2",
                       "--scale", str(TINY), "--seconds", "0.05",
                       "--trace", "0", "--out", str(tmp_path / "o.json")])
    assert status == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert set(summary["metrics"]) == {
        m["name"] for m in cli.load_contract()["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in summary["metrics"].values())


def test_layers_report_every_per_layer_metric(tmp_path, capsys):
    status = cli.main(["--workload", "deep4_multi_rw", "--layers",
                       "--scale", str(TINY), "--out", str(tmp_path / "l.json")])
    assert status == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    assert set(metrics) == {m["name"] for m in cli.load_contract()["per_layer"]}
    shares = [v for k, v in metrics.items() if k.startswith("host_share.")]
    assert abs(sum(shares) - 1.0) < 1e-6
    labels = sum(v for k, v in metrics.items() if k.startswith("events."))
    assert labels == metrics["sim.eventq.events_total"]
    assert metrics["profile_overhead_ratio"] > 1.0
    assert metrics["validation.dd_x1_gbps"] > 0


def test_counting_sink_total_equals_events_processed():
    counter = layers.LabelCounter()
    record = runner.run_sim(workloads.build("dd_x8_read", 1, TINY), sink=counter)
    assert sum(counter.labels.values()) == record["events"]
    assert sum(counter.by_class().values()) == record["events"]


def test_repeats_share_one_stats_digest_and_seeds_do_not():
    doc = workloads.build("deep4_multi_rw", 1, TINY)
    first, second = runner.run_sim(doc), runner.run_sim(doc)
    assert first == second
    other = runner.run_sim(workloads.build("deep4_multi_rw", 2, TINY))
    assert other["stats_digest"] != first["stats_digest"]


def test_unknown_workload_exits_2_before_any_child(capsys):
    assert cli.main(["--workload", "dd_x2_read"]) == 2
    captured = capsys.readouterr()
    assert "unknown workload 'dd_x2_read'" in captured.err
    assert captured.out == ""


def test_a_wedged_workload_is_a_named_error():
    doc = workloads.build("dd_x1_read", 1, TINY)
    doc["max_events"] = 500
    with pytest.raises(runner.WorkloadWedged, match="max_events=500"):
        runner.run_sim(doc)


def test_a_child_that_dies_is_a_named_error_not_a_document(tmp_path, capfd,
                                                           monkeypatch):
    # Only this process believes in the workload; the fresh child
    # does not, and dies with a traceback.
    monkeypatch.setattr(workloads, "WORKLOAD_NAMES", ("no_such",))
    out = tmp_path / "never.json"
    assert cli.main(["--workload", "no_such", "--out", str(out)]) == 3
    captured = capfd.readouterr()
    assert "ChildFailed" in captured.err and "UnknownWorkload" in captured.err
    assert not out.exists()
    assert '"correct"' not in captured.out


def test_a_child_that_hangs_is_killed(monkeypatch):
    monkeypatch.setattr(cli, "CHILD_TIMEOUT_S", 0.5)
    start = time.perf_counter()
    with pytest.raises(cli.ChildFailed, match="no reply within"):
        cli.run_child({"workload": "dd_x1_read", "seed": 1, "scale": 1.0,
                       "seconds": 60, "trace": 0})
    assert time.perf_counter() - start < 10
    assert not [entry for entry in os.listdir(cli.WORKROOT)
                if entry.startswith("tmp")]
