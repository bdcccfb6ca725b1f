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


def test_harness_has_no_checkpoint_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        harness.main(["--checkpoint", "fig9b"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err
