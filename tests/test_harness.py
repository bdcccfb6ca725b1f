"""Benchmark-harness plumbing: payload persistence and the CLI surface."""

import json
import os

import pytest

from benchmarks import harness


def test_save_results_keeps_the_old_payload_when_a_write_dies(tmp_path,
                                                              monkeypatch):
    path = harness.save_results("fig", {"a": 1}, results_dir=str(tmp_path))
    with open(path) as fh:
        before = fh.read()
    assert before == json.dumps({"a": 1}, indent=2, sort_keys=True)

    def dies(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness.json, "dump", dies)
    with pytest.raises(KeyboardInterrupt):
        harness.save_results("fig", {"a": 2}, results_dir=str(tmp_path))
    with open(path) as fh:
        assert fh.read() == before
    assert sorted(os.listdir(tmp_path)) == ["fig.json"]


@pytest.mark.parametrize("flag", ["--checkpoint", "--profile"])
def test_harness_has_no_checkpoint_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        harness.main([flag, "fig9b"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    (["--workers", "0"], None),
    (["--workers", "-3"], None),
    ([], "abc"),
], ids=["workers-zero", "workers-negative", "env-not-an-integer"])
def test_bad_worker_count_is_a_usage_error(argv, env, tmp_path, monkeypatch,
                                           capsys):
    if env is None:
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", env)
    with pytest.raises(SystemExit) as exit_info:
        harness.main(argv + ["table2", "--results-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert os.listdir(tmp_path) == []
