"""Content-addressed on-disk result store for campaign runs.

A campaign expands into jobs, each fully described by a plain JSON
dictionary (code, schedule, noise, decoder, estimator, budget, seed).
The store keys every result by the SHA-256 of that dictionary's
*canonical* JSON encoding, so two jobs collide exactly when they would
compute the same thing: resuming a campaign, re-running a figure, or
sharing a store between invocations all reduce to key lookups.

On-disk layout
    Records live in append-only JSONL files inside the store directory
    — one record per line, one shard file ``results-<key[0]>.jsonl``
    per first hex character of the key.  Concurrent writers (a worker
    fleet, or a campaign sharing its store with a second run) land on
    different shards most of the time, and two that do collide fall
    back on the append protocol below.  Older runs left other files:
    a single ``results.jsonl`` (before the service existed) or
    wider-prefix shards.  Those are read, never appended to, and
    :meth:`ResultStore.compact` folds them into the width-1 shards.

Crash tolerance
    Appends are atomic enough that a killed writer loses at most its
    unfinished trailing line (which the loader detects and drops).  A
    later writer terminates any such orphan partial line before
    appending its own record, so records written *after* an interrupted
    one survive a reload — the partial-line tolerance holds across
    interleaved writers per file, not just at end of file.

The index is rebuilt in memory on open; there is no separate index file
to go stale.  :meth:`ResultStore.reload` picks up records appended by
other processes incrementally (it tails each file from the last parsed
offset), so long-lived handles — a service worker polling for work, a
figure session rendering many tables — never re-parse the whole store.
:meth:`ResultStore.compact` rewrites the store into its canonical
form: records sorted by key, deduplicated, volatile ``meta``
envelopes dropped — two stores holding the same results compact to
byte-identical files no matter who wrote them in what order.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Iterator

from .. import obs

_STORE_APPENDS = obs.counter("store.appends")
_STORE_APPEND_S = obs.histogram("store.append_s")

# Read-only: written by runs that predate sharding.
LEGACY_FILENAME = "results.jsonl"

# Any prefix width: older fleets wrote wider shards, which stay readable.
_SHARD_RE = re.compile(r"^results-[^.]+\.jsonl$")

# Record envelope fields that survive compaction.  ``meta`` (timing,
# worker identity — per-run provenance that varies run to run) is
# deliberately absent: compaction canonicalizes a store down to pure
# content, which is what makes distributed and single-process stores
# byte-comparable.
_CONTENT_FIELDS = ("key", "job", "label", "result")


def canonical_json(payload: Any) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace, no NaN/Inf.

    Floats round-trip exactly (``json`` emits the shortest string that
    parses back to the same IEEE double), so the encoding — and any hash
    of it — is stable across processes, platforms, and JSON round trips.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def job_key(payload: dict[str, Any]) -> str:
    """Content address of one job description (hex SHA-256)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def content_record(record: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a record: envelope minus ``meta``."""
    return {k: record[k] for k in _CONTENT_FIELDS if k in record}


class ResultStore:
    """Keyed result records, persisted as JSONL (or in memory).

    ``path=None`` gives an ephemeral in-memory store with the same API —
    the default for one-shot figure runs that do not pass ``--store``.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._records: dict[str, dict[str, Any]] = {}
        # Per-file byte offset of the last fully parsed line, so
        # reload() tails instead of re-reading.
        self._offsets: dict[str, int] = {}
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
            self.reload()

    def _shard_file(self, key: str) -> str:
        """The shard a record with ``key`` is appended (or compacted) to."""
        assert self.path is not None
        return os.path.join(self.path, f"results-{key[:1].lower()}.jsonl")

    # -- loading --------------------------------------------------------------

    def _source_files(self) -> list[str]:
        """Every record file on disk: the legacy file first, then the
        shards, so on a duplicate key the later (shard) write wins."""
        assert self.path is not None
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return [
            os.path.join(self.path, name)
            for name in sorted(names, key=lambda n: (n != LEGACY_FILENAME, n))
            if name == LEGACY_FILENAME or _SHARD_RE.match(name)
        ]

    def _consume(self, path: str, start: int) -> None:
        """Parse complete lines of ``path`` from byte offset ``start``."""
        try:
            with open(path, "rb") as fh:
                fh.seek(start)
                data = fh.read()
        except OSError:
            return
        end = data.rfind(b"\n")
        if end < 0:
            # Nothing but (at most) a partial trailing line: leave the
            # offset where it is so a later terminated line re-parses.
            return
        for raw in data[: end + 1].split(b"\n"):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                # Interrupted mid-append: drop the partial line (now
                # terminated by a later writer); the job simply re-runs.
                continue
            if isinstance(record, dict) and "key" in record:
                self._records[record["key"]] = record
        self._offsets[path] = start + end + 1

    def reload(self) -> None:
        """Fold in records other handles appended since the last load.

        Incremental: each known file is tailed from the offset of its
        last fully parsed line, and newly appeared shard files are read
        whole.  A file that *shrank* (compaction by another process)
        triggers a full rebuild of the index — offsets into the old
        bytes are meaningless.
        """
        if self.path is None:
            return
        for path in self._source_files():
            start = self._offsets.get(path, 0)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size < start:
                # Rewritten under us: rebuild everything from scratch.
                self._records.clear()
                self._offsets.clear()
                for p in self._source_files():
                    self._consume(p, 0)
                return
            if size > start:
                self._consume(path, start)

    # -- the index ------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> dict[str, Any] | None:
        return self._records.get(key)

    def keys(self) -> list[str]:
        return list(self._records)

    def records(self) -> Iterator[dict[str, Any]]:
        return iter(self._records.values())

    def query(self, **filters: Any) -> list[dict[str, Any]]:
        """Records whose job payload matches every ``field=value`` filter.

        Filters address the hashed job description (``code=...``,
        ``estimator=...``, ``p=...``); the reserved name ``key_prefix``
        matches on the record key instead.  Purely in-memory — call
        :meth:`reload` first if another process may have appended.
        """
        prefix = filters.pop("key_prefix", None)
        out = []
        for key, record in self._records.items():
            if prefix is not None and not key.startswith(prefix):
                continue
            job = record.get("job", {})
            if all(job.get(f) == v for f, v in filters.items()):
                out.append(record)
        return out

    def put(
        self,
        key: str,
        job: dict[str, Any],
        result: dict[str, Any],
        label: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Insert (or overwrite) one record and persist it immediately.

        ``job`` must be the exact hash preimage of ``key`` — display
        metadata like ``label`` lives on the record envelope, never
        inside the job dict, so ``key == job_key(record["job"])`` holds
        for every stored record.  ``meta`` is per-run provenance
        (timing, worker identity): carried on the envelope, stripped by
        :meth:`compact`, and never part of any determinism contract.
        """
        record = {"key": key, "job": job, "result": result}
        if label is not None:
            record["label"] = label
        if meta is not None:
            record["meta"] = meta
        # Serializing now also validates: a record that cannot
        # round-trip through canonical JSON (NaN/Inf, non-JSON types)
        # must fail at write time, not at some later resume.
        line = canonical_json(record)
        self._records[key] = record
        if self.path is not None:
            self._append_line(self._shard_file(key), line)

    def _append_line(self, path: str, line: str) -> None:
        clock = obs.StopWatch()
        data = (line + "\n").encode("utf-8")
        with open(path, "a+b") as fh:
            # A writer killed mid-append leaves an unterminated
            # partial line.  Terminate it before appending, so the
            # loader drops exactly that orphan — not this record
            # concatenated onto it.
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    data = b"\n" + data
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
            # Skip the tail offset past this line only if it starts where
            # parsing stopped: lines other handles appended in between
            # must still reach reload(), or this handle never sees them.
            if self._offsets.get(path, 0) == fh.tell() - len(data):
                self._offsets[path] = fh.tell()
        _STORE_APPENDS.add()
        _STORE_APPEND_S.record(clock.elapsed)

    # -- compaction -----------------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Rewrite the store in canonical form; returns a summary.

        Every record — legacy file, shards, torn-line survivors,
        duplicates — is folded into one deduplicated set, stripped of
        its volatile ``meta`` envelope, and written back as one width-1
        shard file per key prefix with records in key order.  The
        rewrite is atomic per shard (temp file + rename), the legacy
        file and stale shards are removed afterwards, and the in-memory
        index is reloaded from the new bytes.

        Because the output is a pure sorted function of record
        *content*, two stores holding the same results — a
        single-process campaign and a crash-riddled worker fleet —
        compact to byte-identical files.
        """
        if self.path is None:
            raise ValueError("cannot compact an in-memory store")
        self.reload()
        by_shard: dict[str, list[str]] = {}
        for key in sorted(self._records):
            line = canonical_json(content_record(self._records[key]))
            by_shard.setdefault(self._shard_file(key), []).append(line)
        before = self._source_files()
        written = []
        for path, lines in by_shard.items():
            tmp = path + ".compact.tmp"
            with open(tmp, "wb") as fh:
                fh.write(("\n".join(lines) + "\n").encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            written.append(path)
        for path in before:
            if path not in written:
                try:
                    os.remove(path)
                except OSError:
                    pass
        self._records.clear()
        self._offsets.clear()
        self.reload()
        return {
            "records": len(self._records),
            "shards": len(written),
            "removed_files": len([p for p in before if p not in written]),
        }

    def content_digest(self) -> str:
        """SHA-256 over the canonical compacted content of the index.

        Computed without touching disk: the digest two stores agree on
        exactly when their :meth:`compact` outputs would be
        byte-identical.  The service smoke gate and the racing-worker
        tests assert on this.
        """
        h = hashlib.sha256()
        for key in sorted(self._records):
            h.update(canonical_json(content_record(self._records[key])).encode())
            h.update(b"\n")
        return h.hexdigest()
