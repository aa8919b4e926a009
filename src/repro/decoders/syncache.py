"""Persistent content-addressed syndrome→correction cache.

At sub-threshold error rates the same few syndromes dominate every job
that shares a DEM: one chunk, the next chunk, the neighboring campaign
grid point, yesterday's run.  Every decoder's syndrome memo is a
:class:`SyndromeCache` (in memory by default, see
:attr:`~repro.decoders.base.Decoder.syndrome_cache`), which exploits
that within a process.  Given a directory, the same map becomes durable
and shared: it persists ``packed syndrome words →
packed observable flips`` per (DEM fingerprint, decoder namespace) in
the campaign's :class:`~repro.experiments.store.ResultStore` directory,
so decode cost across a campaign becomes sublinear in total shots —
each distinct syndrome is solved once, ever.

Addressing is by content, like the result store: the filename embeds
``DetectorErrorModel.fingerprint()`` (everything that determines decode
results) plus a decoder *namespace* (family + the parameters that change
its output, e.g. BP iteration budget or the matching detector subset).
A different circuit, noise level, or decoder config simply addresses a
different file — there is no invalidation protocol, and deleting the
cache directory is always safe.

The on-disk format mirrors the result store's crash tolerance, tuned
for millions of tiny records: one JSON header line (self-describing,
validated on load), then one ``<syndrome-hex> <value-hex>`` entry per
line.  Loading skips anything malformed — wrong length, bad hex, a
partial trailing line from a killed writer — so corruption degrades to
a cache *miss*, never a wrong correction.  A new file appears whole,
header included.  Appending terminates any orphan partial line first
(the ResultStore idiom), which keeps the file loadable under
interleaved cross-process writers; duplicate entries are harmless
because decoding is deterministic, so last-write-wins equals
first-write-wins.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import re
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .base import Decoder

FORMAT = "syndrome-cache-v1"

# Every cache in the process counts here; ``len(cache)`` is one
# handle's entry count.
_HITS = obs.counter("syncache.hits")
_MISSES = obs.counter("syncache.misses")
_INSERTS = obs.counter("syncache.inserts")
_LOOKUP_S = obs.histogram("syncache.lookup_s")

_TAG_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


def _cache_stem(dem_key: str, namespace: str) -> str:
    # Namespaces carry human-readable decoder params; hash them into a
    # fixed-width filesystem-safe token.
    ns = hashlib.sha256(namespace.encode("utf-8")).hexdigest()[:12]
    return f"syn-{dem_key[:16]}-{ns}"


def _cache_filename(
    dem_key: str, namespace: str, writer_tag: str | None = None
) -> str:
    """File one (DEM, namespace) writer appends to.

    Untagged writers share the base ``<stem>.cache`` (appends tolerate
    interleaving, the PR-6 contract); a ``writer_tag`` — a service
    worker id — claims the private shard ``<stem>.w<tag>.cache``, so a
    whole fleet writing one cache directory never contends on a file
    at all.  Readers merge the base file and every writer shard.
    """
    stem = _cache_stem(dem_key, namespace)
    if writer_tag is None:
        return f"{stem}.cache"
    tag = _TAG_SAFE.sub("_", str(writer_tag))[:24]
    return f"{stem}.w{tag}.cache"


def _read_cache_file(path: str) -> tuple[dict, dict[bytes, bytes]] | None:
    """Parse one cache file into its JSON header and its entries.

    ``None`` when the file cannot be read or its first line is not a
    ``FORMAT`` header with integer key/value widths.  Entries are
    fixed-width ``<key-hex> <value-hex>`` lines; anything else — a
    partial trailing line, garbled bytes, wrong widths — is skipped and
    simply decodes as a miss.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        head = json.loads(lines[0].decode("utf-8"))
        key_hex = 2 * int(head["key_bytes"])
        value_hex = 2 * int(head["value_bytes"])
    except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    if head.get("format") != FORMAT:
        return None
    table: dict[bytes, bytes] = {}
    for line in lines[1:]:
        if len(line) != key_hex + 1 + value_hex or line[key_hex] != 0x20:
            continue
        try:
            key = binascii.unhexlify(line[:key_hex])
            value = binascii.unhexlify(line[key_hex + 1 :])
        except (binascii.Error, ValueError):
            continue
        table[key] = value
    return head, table


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """Each row of a contiguous 2-D array as one ``bytes`` object."""
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel().tolist()


def summarize_cache_dir(directory: str | os.PathLike) -> dict[str, int]:
    """On-disk census of a syndrome-cache directory.

    Counts cache files and distinct entries: a base ``<stem>.cache`` and
    its writer shards form one table, and a syndrome appended more than
    once (by forked workers that each missed it) counts once.  Files that
    do not parse add nothing — for ``campaign status`` style reporting.
    """
    files = 0
    keys: dict[str, set[bytes]] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if not (name.startswith("syn-") and name.endswith(".cache")):
            continue
        files += 1
        parsed = _read_cache_file(os.path.join(directory, name))
        if parsed is not None:
            base = name[: -len(".cache")].split(".w", 1)[0]
            keys.setdefault(base, set()).update(parsed[1])
    return {"files": files, "entries": sum(map(len, keys.values()))}


class SyndromeCache:
    """One (DEM, decoder-namespace) syndrome→correction map, on disk.

    ``directory=None`` gives an ephemeral in-memory cache with the same
    API.  Keys are the raw bytes of packed per-shot syndrome words
    (``key_bytes`` long); values are fixed-width ``value_bytes`` byte
    strings whose meaning belongs to the owning decoder (the base
    :class:`~repro.decoders.base.Decoder` packs its predicted observable
    bits, little-endian).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None,
        dem_key: str,
        namespace: str,
        key_bytes: int,
        value_bytes: int,
        writer_tag: str | None = None,
    ):
        self.directory = os.fspath(directory) if directory is not None else None
        self.dem_key = dem_key
        self.namespace = namespace
        self.writer_tag = writer_tag
        self.key_bytes = int(key_bytes)
        self.value_bytes = int(value_bytes)
        self._table: dict[bytes, bytes] = {}
        # Degraded mode: the file exists but is not ours (corrupt or
        # mismatched header).  Keep serving from memory, never write —
        # overwriting a file we cannot parse could destroy someone
        # else's data.
        self._read_only = False
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self._load()

    # -- persistence ----------------------------------------------------------

    @property
    def path(self) -> str | None:
        """The file *this* handle appends to (its writer shard, if tagged)."""
        if self.directory is None:
            return None
        return os.path.join(
            self.directory,
            _cache_filename(self.dem_key, self.namespace, self.writer_tag),
        )

    def _sibling_paths(self) -> list[str]:
        """Every file of this (DEM, namespace): base + all writer shards."""
        assert self.directory is not None
        stem = _cache_stem(self.dem_key, self.namespace)
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in names
            if name == f"{stem}.cache"
            or (name.startswith(f"{stem}.w") and name.endswith(".cache"))
        ]

    def _header_fields(self) -> dict:
        return {
            "format": FORMAT,
            "dem": self.dem_key,
            "namespace": self.namespace,
            "key_bytes": self.key_bytes,
            "value_bytes": self.value_bytes,
        }

    def _load_file(self, path: str, own: bool) -> None:
        """Merge one cache file; ``own`` gates the read-only degrade."""
        parsed = _read_cache_file(path)
        if parsed is None or any(
            parsed[0].get(k) != v for k, v in self._header_fields().items()
        ):
            # Unreadable, or not a cache we understand (truncated
            # header, other format, parameter drift).  Our own file:
            # serve misses, never write here.  Someone else's shard:
            # just skip it — their corruption must not poison our warm
            # start.
            if own:
                self._read_only = True
            return
        self._table.update(parsed[1])

    def _load(self) -> None:
        """Merge the base file and every writer shard of this cache.

        Duplicate entries across files are harmless (decoding is
        deterministic: any writer of a key wrote the same value), so
        merge order does not matter.  Only *this handle's* append
        target can flip the cache read-only — a foreign or corrupt
        sibling degrades to fewer preloaded entries, never to silence.
        """
        for path in self._sibling_paths():
            self._load_file(path, own=path == self.path)

    def _append(self, entries: list[tuple[bytes, bytes]]) -> None:
        path = self.path
        if path is None or self._read_only or not entries:
            return
        payload = "".join(
            f"{key.hex()} {value.hex()}\n" for key, value in entries
        ).encode("ascii")
        try:
            if not os.path.exists(path):
                # Publish the file whole, header and first entries, so no
                # handle ever opens it headerless (the lease idiom).
                tmp = f"{path}.{os.getpid()}.{id(self)}.tmp"
                with open(tmp, "wb") as fh:
                    header = json.dumps(self._header_fields(), sort_keys=True)
                    fh.write((header + "\n").encode("utf-8") + payload)
                try:
                    os.link(tmp, path)
                    return
                except FileExistsError:
                    pass  # another writer published first: append to its file
                finally:
                    os.remove(tmp)
            with open(path, "a+b") as fh:
                # Terminate an orphan partial line from a killed writer
                # so the loader drops exactly that orphan, not our first
                # entry concatenated onto it.  An empty file is not ours:
                # the seek fails and the handle goes read-only.
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
                fh.write(payload)
                fh.flush()
        except OSError:
            # Disk trouble degrades to a warm in-memory cache.
            self._read_only = True

    # -- the map --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look up packed key rows; returns ``(values, hit_mask)``.

        ``keys`` is ``(g, nwords)`` uint64; ``values`` is ``(g,
        value_bytes)`` uint8 with missed rows zero; ``hit_mask`` is a
        ``(g,)`` boolean.
        """
        clock = obs.StopWatch()
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        g = keys.shape[0]
        values = np.zeros((g, self.value_bytes), dtype=np.uint8)
        hit_mask = np.zeros(g, dtype=bool)
        table = self._table
        nhits = 0
        if table and g:
            # Every step iterates in C (row bytes, membership, gather,
            # join): this runs on every unique syndrome of every decode
            # call, the streaming decoder's per-commit path included.
            rows = _row_bytes(keys)
            hit_mask = np.fromiter(map(table.__contains__, rows), bool, count=g)
            hits = list(compress(rows, hit_mask.tolist()))
            nhits = len(hits)
            if nhits:
                found = np.frombuffer(b"".join(map(table.__getitem__, hits)), np.uint8)
                values[hit_mask] = found.reshape(nhits, self.value_bytes)
        _HITS.add(nhits)
        _MISSES.add(g - nhits)
        _LOOKUP_S.record(clock.elapsed)
        return values, hit_mask

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Record decoded corrections; persists immediately when on disk."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint8)
        if values.shape != (keys.shape[0], self.value_bytes):
            raise ValueError(
                f"expected values of shape {(keys.shape[0], self.value_bytes)}, "
                f"got {values.shape}"
            )
        fresh = {
            key: value
            for key, value in zip(_row_bytes(keys), _row_bytes(values))
            if key not in self._table
        }
        self._table.update(fresh)
        _INSERTS.add(len(fresh))
        self._append(list(fresh.items()))

    # -- construction for a decoder -------------------------------------------

    @classmethod
    def for_decoder(
        cls,
        decoder: "Decoder",
        directory: str | os.PathLike | None,
        writer_tag: str | None = None,
    ) -> "SyndromeCache":
        """The cache a decoder addresses: DEM fingerprint + its namespace.

        An in-memory cache (``directory=None``) names no file, so it
        skips fingerprinting the DEM.
        """
        return cls(
            directory=directory,
            dem_key="" if directory is None else decoder.dem.fingerprint(),
            namespace=decoder.cache_namespace,
            key_bytes=decoder.cache_key_words * 8,
            value_bytes=decoder.cache_value_bytes,
            writer_tag=writer_tag,
        )


def compact_cache_dir(directory: str | os.PathLike) -> dict[str, int]:
    """Fold per-writer syndrome-cache shards back into their base files.

    For every ``<stem>.w<tag>.cache`` shard whose header matches its
    base, the entries are merged (sorted, deduplicated — any writer of
    a key wrote the same value) and the base ``<stem>.cache`` is
    rewritten atomically; the absorbed shards are then removed.  Files
    with unreadable or mismatched headers are left untouched.  Safe to
    run any time: worst case a racing writer's latest appends land in a
    fresh shard file that the next compaction absorbs.
    """
    directory = os.fspath(directory)
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return {"files": 0, "absorbed": 0, "entries": 0}
    shards: dict[str, list[str]] = {}
    for name in names:
        if not (name.startswith("syn-") and name.endswith(".cache")):
            continue
        stem = name[: -len(".cache")]
        base = stem.split(".w", 1)[0]
        shards.setdefault(base, []).append(os.path.join(directory, name))
    absorbed = 0
    entries = 0
    compacted_files = 0
    for base, paths in shards.items():
        writer_shards = [p for p in paths if ".w" in os.path.basename(p)]
        if not writer_shards:
            continue
        parsed = [_read_cache_file(path) for path in paths]
        if any(p is None for p in parsed):
            continue
        headers = {json.dumps(head, sort_keys=True) for head, _ in parsed}
        if len(headers) != 1:
            continue
        table: dict[bytes, bytes] = {}
        for _, file_entries in parsed:
            table.update(file_entries)
        base_path = os.path.join(directory, base + ".cache")
        tmp = base_path + ".compact.tmp"
        with open(tmp, "wb") as fh:
            fh.write((headers.pop() + "\n").encode("utf-8"))
            for key in sorted(table):
                fh.write(f"{key.hex()} {table[key].hex()}\n".encode("ascii"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, base_path)
        for path in writer_shards:
            try:
                os.remove(path)
            except OSError:
                pass
        absorbed += len(writer_shards)
        entries += len(table)
        compacted_files += 1
    return {"files": compacted_files, "absorbed": absorbed, "entries": entries}
