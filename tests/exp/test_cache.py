"""Result-cache behaviour: keys, hits, invalidation, and recovery."""

import json
import os

from repro.exp import RESULT_SCHEMA_VERSION, ResultCache, cache_key


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


def test_cache_key_changes_with_schema_version():
    v1, doc1 = cache_key(RUNNER, {"x": 3}, schema_version=1)
    v2, doc2 = cache_key(RUNNER, {"x": 3}, schema_version=2)
    assert v1 != v2
    assert doc1["schema"] == 1 and doc2["schema"] == 2


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


def test_schema_bump_invalidates(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest, key_doc = cache_key(RUNNER, {"x": 3}, schema_version=RESULT_SCHEMA_VERSION)
    cache.put(digest, key_doc, {"value": 9}, elapsed_s=0.1)
    bumped_digest, bumped_doc = cache_key(
        RUNNER, {"x": 3}, schema_version=RESULT_SCHEMA_VERSION + 1)
    assert cache.get(bumped_digest, bumped_doc) is None


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
