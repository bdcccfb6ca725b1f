"""Result-cache behaviour: keys, hits, invalidation, and recovery."""

import json
import os

from repro.exp import ResultCache, cache_key
from repro.exp import cache as cache_mod


RUNNER = "tests.exp.runners:quadratic"


def test_cache_key_is_stable_and_param_order_independent():
    d1, k1 = cache_key(RUNNER, {"x": 3, "scale": 2})
    d2, k2 = cache_key(RUNNER, {"scale": 2, "x": 3})
    assert d1 == d2
    assert k1 == k2
    assert len(d1) == 64  # sha256 hex


def test_cache_key_changes_with_config():
    base, __ = cache_key(RUNNER, {"x": 3})
    other_param, __ = cache_key(RUNNER, {"x": 4})
    other_runner, __ = cache_key("tests.exp.runners:failing", {"x": 3})
    assert base != other_param
    assert base != other_runner


def test_cache_key_changes_with_code_fingerprint(monkeypatch):
    before, doc = cache_key(RUNNER, {"x": 3})
    assert doc["code"] == cache_mod.code_fingerprint()
    assert len(doc["code"]) == 64
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "edited")
    after, doc = cache_key(RUNNER, {"x": 3})
    assert after != before and doc["code"] == "edited"


def test_declaring_a_sweep_reads_no_code():
    from repro.exp import Sweep, SweepEngine

    cache_mod.code_fingerprint.cache_clear()
    sweep = Sweep("s")
    sweep.add("p", RUNNER, x=3)
    SweepEngine(cache_dir=None)
    assert cache_mod.code_fingerprint.cache_info().currsize == 0
    cache_key(RUNNER, {"x": 3})
    assert cache_mod.code_fingerprint.cache_info().currsize == 1


def test_hit_after_put(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    assert cache.get(digest, key_doc) is None
    assert cache.misses == 1
    cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.5)
    entry = cache.get(digest, key_doc)
    assert entry["result"] == {"value": 9}
    assert entry["elapsed_s"] == 0.5
    assert cache.hits == 1


def test_miss_on_config_change(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    other_digest, other_doc = cache_key(RUNNER, {"x": 4})
    assert cache.get(other_digest, other_doc) is None


def test_code_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    assert cache.get(*cache_key(RUNNER, {"x": 3})) is not None
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "edited")
    assert cache.get(*cache_key(RUNNER, {"x": 3})) is None


def test_corrupted_entry_is_a_miss_and_is_deleted(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    path = cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    with open(path, "w") as fh:
        fh.write('{"key": truncated garbage')
    assert cache.get(digest, key_doc) is None
    assert not os.path.exists(path), "corrupt entry should be dropped"
    # Falls back to re-run + rewrite cleanly.
    cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.2)
    assert cache.get(digest, key_doc)["result"] == {"value": 9}


def test_key_mismatch_is_a_miss(tmp_path):
    """An entry whose embedded key differs from the query (hash collision
    or hand-edited file) must not be served."""
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    path = cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    entry = json.load(open(path))
    entry["key"]["params"]["x"] = 999
    json.dump(entry, open(path, "w"))
    assert cache.get(digest, key_doc) is None


def test_non_dict_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    os.makedirs(cache.root)
    with open(os.path.join(cache.root, f"{digest}.json"), "w") as fh:
        json.dump([1, 2, 3], fh)
    assert cache.get(digest, key_doc) is None


def test_entry_without_result_is_a_miss_and_is_deleted(tmp_path):
    """A matching key with no ``result`` field must cost a re-run, not
    crash the sweep that reads it."""
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3})
    path = cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    with open(path, "w") as fh:
        json.dump({"key": key_doc, "elapsed_s": 0.1}, fh)
    assert cache.get(digest, key_doc) is None
    assert not os.path.exists(path), "result-less entry should be dropped"
    assert cache.misses == 1
