"""Config-keyed, on-disk result cache for sweep points.

Every simulation in this repository is deterministic: the same
configuration always produces the same metrics.  That makes sweep
results safely memoisable — the only things a cache key must capture
are *what was run* (the runner path and its parameters) and *which
code ran it*: :func:`code_fingerprint`, a hash of every module of the
``repro`` package, so any source edit (a docstring's included) makes
every older entry unreachable.  Nothing deletes those stale files: the
cache directory is scratch that piles up until someone clears it.

Entries are single JSON files named by the SHA-256 of the canonical
key document, stored flat under the cache root.  Each file embeds the
full key document alongside the result, so a hash collision or a
half-written file is detected on read and treated as a miss (the entry
is re-run and rewritten — a corrupted cache can cost time, never
correctness).  Writes are atomic (tmp file + ``os.replace``) so a
killed run cannot leave a truncated entry that parses.
"""

import functools
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.system.spec import canonical_json

__all__ = ["cache_key", "canonical_json", "code_fingerprint", "ResultCache"]


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the sorted relative paths and bytes of every
    ``.py`` file of the ``repro`` package: the code a result was
    computed by.  Read once per process, at the first :func:`cache_key`
    (a few milliseconds), never at sweep declaration."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, __, names in os.walk(root)
        for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as fh:
            data = fh.read()
        digest.update(f"{path}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def cache_key(runner: str, params: Dict[str, Any]) -> "tuple[str, dict]":
    """Build the cache key for one sweep point.

    Returns:
        ``(digest, key_doc)``: the SHA-256 hex digest naming the entry
        file, and the canonical key document embedded in the entry for
        verification on read.
    """
    key_doc = {
        "code": code_fingerprint(),
        "runner": runner,
        "params": params,
    }
    digest = hashlib.sha256(canonical_json(key_doc).encode("utf-8")).hexdigest()
    return digest, key_doc


class ResultCache:
    """A directory of memoised sweep-point results.

    Args:
        root: directory holding the entry files; created on first write.

    Attributes:
        hits: number of :meth:`get` calls served from disk.
        misses: number of :meth:`get` calls that found nothing usable
            (absent, unreadable, corrupt, or key-mismatched entries all
            count as misses).
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def get(self, digest: str, key_doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Look up an entry; return its envelope or None on any miss.

        The envelope is ``{"key": ..., "result": ..., "elapsed_s": ...}``.
        A file that is missing, fails to parse, has no ``result``, or
        whose embedded key does not exactly match ``key_doc`` is a miss;
        corrupt files are deleted so the re-run's write starts clean.
        """
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            if os.path.exists(path):
                # Parsed-garbage case: drop the corrupt file.
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self.misses += 1
            return None
        if (not isinstance(entry, dict) or entry.get("key") != key_doc
                or "result" not in entry):
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, digest: str, key_doc: Dict[str, Any], result: Any,
            elapsed_s: float) -> str:
        """Atomically write one entry; returns the entry path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(digest)
        entry = {"key": key_doc, "result": result, "elapsed_s": elapsed_s}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __repr__(self) -> str:
        return f"<ResultCache {self.root!r} hits={self.hits} misses={self.misses}>"
