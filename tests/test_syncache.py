"""Persistent syndrome→correction cache: durability and bit-identity.

The cache may only ever *accelerate* decoding.  These tests pin the two
halves of that contract: (1) any on-disk damage — truncated header,
garbled hex, torn trailing line, interleaved partial writes — degrades
to a cache miss (recompute), never a wrong correction; (2) a warm cache
produces bit-for-bit the same packed decode as a cold one, which itself
matches the dense reference (the litmus battery, extended to the
cache-hit path).
"""

import contextlib
import os

import numpy as np
import pytest
from test_decoders_packed import assert_packed_matches_dense

from repro import obs
from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.decoders import (
    BpOsdDecoder,
    LookupDecoder,
    MatchingDecoder,
    SyndromeCache,
    detector_subset_for_basis,
)
from repro.decoders.metrics import dem_for
from repro.decoders import syncache
from repro.decoders.syncache import compact_cache_dir, summarize_cache_dir
from repro.noise import NoiseModel
from repro.sim import DemSampler
from repro.sim.dem import DetectorErrorModel, ErrorMechanism


@pytest.fixture(scope="module")
def surface_dem():
    code = rotated_surface_code(3)
    return dem_for(code, nz_schedule(code), NoiseModel(p=3e-3), basis="z", rounds=3)


def _cache(directory, key_bytes=8, value_bytes=2, writer_tag=None):
    return SyndromeCache(
        directory,
        dem_key="a" * 64,
        namespace="test:ns",
        key_bytes=key_bytes,
        value_bytes=value_bytes,
        writer_tag=writer_tag,
    )


def _keys(n, nwords=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, size=(n, nwords), dtype=np.uint64)


class TestRoundTrip:
    def test_insert_lookup_persist_reopen(self, tmp_path):
        cache = _cache(tmp_path)
        keys = _keys(5)
        values = np.arange(10, dtype=np.uint8).reshape(5, 2)
        got, hit = cache.lookup(keys)
        assert not hit.any()
        cache.insert(keys, values)
        got, hit = cache.lookup(keys)
        assert hit.all() and np.array_equal(got, values)
        # A fresh instance reloads everything from disk.
        reopened = _cache(tmp_path)
        assert len(reopened) == 5
        got, hit = reopened.lookup(keys)
        assert hit.all() and np.array_equal(got, values)

    def test_memory_mode(self):
        cache = _cache(None)
        keys = _keys(3)
        cache.insert(keys, np.ones((3, 2), dtype=np.uint8))
        _, hit = cache.lookup(keys)
        assert hit.all() and cache.path is None

    def test_duplicate_insert_not_reappended(self, tmp_path):
        cache = _cache(tmp_path)
        keys = _keys(4)
        values = np.zeros((4, 2), dtype=np.uint8)
        cache.insert(keys, values)
        size = (tmp_path / _name(cache)).stat().st_size
        cache.insert(keys, values)  # all already present
        assert (tmp_path / _name(cache)).stat().st_size == size

    def test_value_shape_validated(self, tmp_path):
        cache = _cache(tmp_path)
        with pytest.raises(ValueError):
            cache.insert(_keys(2), np.zeros((2, 3), dtype=np.uint8))

    def test_stats_count_hits_and_misses(self, tmp_path):
        cache = _cache(tmp_path)
        keys = _keys(4)
        with _syncache_counts() as counts:
            cache.lookup(keys)
            cache.insert(keys, np.zeros((4, 2), dtype=np.uint8))
            cache.lookup(keys[:2])
        assert counts == {"hits": 2, "misses": 4}
        assert len(cache) == 4


@contextlib.contextmanager
def _syncache_counts():
    """Telemetry on for the block; yields the ``syncache.hits`` and
    ``syncache.misses`` it added, filled in when the block exits."""
    counters = {k: obs.counter(f"syncache.{k}") for k in ("hits", "misses")}
    start = {k: c.value for k, c in counters.items()}
    counts: dict[str, int] = {}
    with obs.enabled_to(True):
        yield counts
    counts.update({k: c.value - start[k] for k, c in counters.items()})


def _name(cache):
    import os

    return os.path.basename(cache.path)


class TestCorruptionDegradesToMiss:
    def test_truncated_trailing_line_dropped(self, tmp_path):
        cache = _cache(tmp_path)
        keys = _keys(3)
        cache.insert(keys, np.full((3, 2), 7, dtype=np.uint8))
        path = tmp_path / _name(cache)
        text = path.read_text()
        path.write_text(text[:-5])  # tear into the last entry
        reopened = _cache(tmp_path)
        _, hit = reopened.lookup(keys)
        assert hit.sum() == 2  # torn entry is a miss, not garbage
        assert not reopened._read_only  # file is still ours to append to

    def test_garbled_lines_skipped(self, tmp_path):
        cache = _cache(tmp_path)
        keys = _keys(2)
        cache.insert(keys, np.full((2, 2), 9, dtype=np.uint8))
        path = tmp_path / _name(cache)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("nothexatall zz\n")  # bad hex
            fh.write("abcd\n")  # missing value column
            fh.write("00112233445566 aabb\n")  # wrong key width (7 bytes)
            fh.write("0011223344556677 aa\n")  # wrong value width (1 byte)
        reopened = _cache(tmp_path)
        assert len(reopened) == 2
        _, hit = reopened.lookup(keys)
        assert hit.all()

    def test_corrupt_header_means_read_only_misses(self, tmp_path):
        cache = _cache(tmp_path)
        cache.insert(_keys(2), np.zeros((2, 2), dtype=np.uint8))
        path = tmp_path / _name(cache)
        original = path.read_text()
        path.write_text("not json\n" + original)
        degraded = _cache(tmp_path)
        assert degraded._read_only and len(degraded) == 0
        _, hit = degraded.lookup(_keys(2))
        assert not hit.any()
        # Writes are refused: the unparseable file is never touched.
        degraded.insert(_keys(2, seed=1), np.ones((2, 2), dtype=np.uint8))
        assert path.read_text() == "not json\n" + original

    def test_parameter_drift_means_read_only(self, tmp_path):
        """Same filename, different widths in the header: treat as
        foreign, serve misses, never overwrite."""
        cache = _cache(tmp_path, value_bytes=2)
        cache.insert(_keys(1), np.zeros((1, 2), dtype=np.uint8))
        clashing = SyndromeCache(
            tmp_path,
            dem_key=cache.dem_key,
            namespace=cache.namespace,
            key_bytes=cache.key_bytes,
            value_bytes=4,
        )
        assert clashing._read_only and len(clashing) == 0

    def test_empty_file_means_read_only(self, tmp_path):
        cache = _cache(tmp_path)
        (tmp_path / _name(cache)).write_text("")
        reopened = _cache(tmp_path)
        assert reopened._read_only


class TestConcurrentWriters:
    def test_append_after_interrupted_writer_preserves_both(self, tmp_path):
        """Mirrors the ResultStore torn-line tolerance: a killed writer
        loses its own unfinished trailing line, never an entry another
        process appends after it."""
        a = _cache(tmp_path)
        keys_a = _keys(2, seed=1)
        a.insert(keys_a, np.full((2, 2), 1, dtype=np.uint8))
        path = tmp_path / _name(a)
        # Writer A dies mid-append: an unterminated partial entry.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0011223344556677 a")
        # Writer B opens the same cache and appends a full entry.
        b = _cache(tmp_path)
        assert len(b) == 2
        keys_b = _keys(2, seed=2)
        b.insert(keys_b, np.full((2, 2), 2, dtype=np.uint8))
        # B dies mid-append itself; writer C appends after it.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("8899aabbccddeeff")
        c = _cache(tmp_path)
        c.insert(_keys(1, seed=3), np.full((1, 2), 3, dtype=np.uint8))

        reopened = _cache(tmp_path)
        assert len(reopened) == 5
        for keys, fill in ((keys_a, 1), (keys_b, 2), (_keys(1, seed=3), 3)):
            got, hit = reopened.lookup(keys)
            assert hit.all() and (got == fill).all()

    def test_handle_opened_while_first_writer_publishes(self, tmp_path, monkeypatch):
        """A second handle opened while the first writer is creating
        the file never sees it headerless, so both writers persist."""
        handles = []
        real_dumps = syncache.json.dumps

        def dumps_then_open_second(*args, **kwargs):
            if len(handles) == 1:
                handles.append(_cache(tmp_path))
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(syncache.json, "dumps", dumps_then_open_second)
        handles.append(_cache(tmp_path))
        handles[0].insert(_keys(3, seed=1), np.full((3, 2), 1, dtype=np.uint8))
        assert len(handles) == 2
        handles[1].insert(_keys(3, seed=2), np.full((3, 2), 2, dtype=np.uint8))
        assert len(_cache(tmp_path)) == 6
        assert os.listdir(tmp_path) == [_name(handles[0])]

    def test_cross_process_writers(self, tmp_path):
        """Two real processes interleaving inserts keep the file
        loadable and complete."""
        import subprocess
        import sys

        script = """
import sys
import numpy as np
from repro.decoders import SyndromeCache
seed = int(sys.argv[2])
cache = SyndromeCache(sys.argv[1], dem_key="a" * 64,
                      namespace="test:ns", key_bytes=8, value_bytes=2)
rng = np.random.default_rng(seed)
for _ in range(20):
    keys = rng.integers(0, 2**63, size=(5, 1), dtype=np.uint64)
    cache.insert(keys, np.full((5, 2), seed, dtype=np.uint8))
"""
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(seed)],
            )
            for seed in (1, 2)
        ]
        for p in procs:
            assert p.wait() == 0
        reopened = _cache(tmp_path)
        # Every writer's entries survive (keys are disjoint w.h.p.).
        assert len(reopened) == 200


class TestDecoderBitIdentity:
    """Litmus extension: every memo state decodes ≡ the dense reference."""

    def _warm_vs_cold(self, dem, make_decoder, shots, tmp_path):
        """Every memo state decodes exactly like the dense reference."""

        def check(dec):
            rng = np.random.default_rng(shots)  # the same batch every time
            assert_packed_matches_dense(dem, dec, shots, rng)

        # Cold: the default in-memory memo fills up.
        dec = make_decoder()
        check(dec)
        memo = dec.syndrome_cache
        assert memo.directory is None
        filled = len(memo)
        assert filled > 0

        # Repeat call: every syndrome is a memo hit.
        with _syncache_counts() as counts:
            check(dec)
        assert counts["misses"] == 0 and counts["hits"] > 0
        assert len(memo) == filled

        # An on-disk cache attached after in-memory hits replaces the
        # memo, so the next decode writes every syndrome to disk.
        dec.attach_syndrome_cache(SyndromeCache.for_decoder(dec, tmp_path))
        check(dec)
        disk = dec.syndrome_cache
        assert disk is not memo and len(disk) == filled

        # Warm: a fresh decoder serves everything from disk.
        warm = make_decoder()
        warm.attach_syndrome_cache(SyndromeCache.for_decoder(warm, tmp_path))
        assert len(warm.syndrome_cache) == filled
        with _syncache_counts() as counts:
            check(warm)
        assert counts["misses"] == 0

        # Corrupted: every stored value garbled (not valid hex) loads as
        # nothing, and the decode recomputes.
        with open(disk.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        damaged = [lines[0]] + [line.split(" ")[0] + " zz" for line in lines[1:]]
        with open(disk.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(damaged) + "\n")
        fresh = make_decoder()
        fresh.attach_syndrome_cache(SyndromeCache.for_decoder(fresh, tmp_path))
        assert len(fresh.syndrome_cache) == 0
        check(fresh)

    @pytest.mark.parametrize("shots", [65, 1000])
    def test_matching_warm_equals_cold(self, surface_dem, shots, tmp_path):
        self._warm_vs_cold(
            surface_dem,
            lambda: MatchingDecoder(
                surface_dem, detector_subset_for_basis(surface_dem, "z")
            ),
            shots,
            tmp_path,
        )

    @pytest.mark.parametrize("shots", [65, 500])
    def test_bposd_warm_equals_cold(self, surface_dem, shots, tmp_path):
        self._warm_vs_cold(
            surface_dem, lambda: BpOsdDecoder(surface_dem), shots, tmp_path
        )

    def test_lookup_warm_equals_cold(self, tmp_path):
        from repro.circuits import Circuit
        from repro.sim import extract_dem

        c = Circuit()
        c.append("R", [0, 1, 2])
        c.append("DEPOLARIZE1", [0, 1, 2], args=[0.05])
        c.append("CNOT", [0, 2])
        c.append("CNOT", [1, 2])
        c.append("M", [0, 1, 2])
        c.append("DETECTOR", [2])
        c.append("OBSERVABLE_INCLUDE", [0], args=[0])
        dem = extract_dem(c)
        self._warm_vs_cold(dem, lambda: LookupDecoder(dem), 200, tmp_path)

    def test_namespaces_address_distinct_files(self, surface_dem, tmp_path):
        """Decoder parameters that change output must not share a file."""
        subset = detector_subset_for_basis(surface_dem, "z")
        a = MatchingDecoder(surface_dem, subset)
        b = BpOsdDecoder(surface_dem)
        c = BpOsdDecoder(surface_dem, max_iterations=7)
        paths = set()
        for dec in (a, b, c):
            dec.attach_syndrome_cache(SyndromeCache.for_decoder(dec, tmp_path))
            paths.add(dec.syndrome_cache.path)
        assert len(paths) == 3

    def test_matching_stores_one_flip_byte(self, surface_dem, tmp_path):
        """Matching's on-disk value is its predicted flip as one byte."""
        dec = MatchingDecoder(surface_dem, detector_subset_for_basis(surface_dem, "z"))
        dec.attach_syndrome_cache(SyndromeCache.for_decoder(dec, tmp_path))
        batch = DemSampler(surface_dem).sample_packed(2000, np.random.default_rng(5))
        dec.decode_batch_packed(batch)
        entries = _entries(dec.syndrome_cache.path)
        assert set(entries.values()) == {"00", "01"}
        raw = bytes.fromhex("".join(entries))
        keys = np.frombuffer(raw, dtype=np.uint64).reshape(len(entries), -1)
        flips = dec._decode_unique_keys(keys, len(dec.subset))
        assert [f"{f:02x}" for f in flips] == list(entries.values())

    def test_base_path_stores_little_endian_packbits(self, tmp_path):
        """The base path stores ``packbits(observable row, "little")``:
        observables 0 and 9 of ten are bytes ``01 02``."""
        dem = _dem(2, 10, (0.1, (0,), (0, 9)), (0.1, (1,), (3,)))
        dec = LookupDecoder(dem)
        dec.attach_syndrome_cache(SyndromeCache.for_decoder(dec, tmp_path))
        batch = DemSampler(dem).sample_packed(2000, np.random.default_rng(5))
        dec.decode_batch_packed(batch)
        # Keys are the packed syndrome word, little-endian uint64 bytes.
        assert _entries(dec.syndrome_cache.path) == {
            "0000000000000000": "0000",
            "0100000000000000": "0102",
            "0200000000000000": "0800",
            "0300000000000000": "0902",
        }

    def test_decoding_fills_the_one_memo(self, surface_dem, monkeypatch):
        """``syndrome_cache`` is each decoder's only memo: decoding
        fills it, no other dict-valued attribute grows, and the
        in-memory memo never fingerprints the DEM."""

        def no_fingerprint(dem):
            raise AssertionError("the in-memory memo fingerprinted the DEM")

        def dict_sizes(dec):
            return {k: len(v) for k, v in vars(dec).items() if isinstance(v, dict)}

        subset = detector_subset_for_basis(surface_dem, "z")
        decoders = (
            MatchingDecoder(surface_dem, subset),
            BpOsdDecoder(surface_dem),
            LookupDecoder(_dem(1, 1, (0.1, (0,), (0,)))),
        )
        monkeypatch.setattr(DetectorErrorModel, "fingerprint", no_fingerprint)
        for dec in decoders:
            before = dict_sizes(dec)
            batch = DemSampler(dec.dem).sample_packed(300, np.random.default_rng(2))
            dec.decode_batch_packed(batch)
            dec.decode_batch(batch.detectors_dense())
            assert len(dec.syndrome_cache) > 0
            assert dict_sizes(dec) == before
            assert [k for k in vars(dec) if "cache" in k] == ["_syndrome_cache"]


def _dem(num_detectors, num_observables, *mechanisms):
    """A hand-built DEM from ``(prob, detectors, observables)`` triples."""
    return DetectorErrorModel.from_mechanisms(
        [ErrorMechanism(p, d, o, sources=()) for p, d, o in mechanisms],
        num_detectors=num_detectors,
        num_observables=num_observables,
    )


def _entries(path) -> dict[str, str]:
    """A cache file's ``key-hex -> value-hex`` entries, header dropped."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.split(" ") for line in fh.read().splitlines()[1:])


class TestCompactCacheDir:
    def test_merges_shards_and_skips_malformed_lines(self, tmp_path):
        base = _cache(tmp_path)
        base.insert(_keys(2, seed=1), np.ones((2, 2), dtype=np.uint8))
        shard = _cache(tmp_path, writer_tag="w1")
        shard.insert(_keys(3, seed=2), np.full((3, 2), 2, dtype=np.uint8))
        with open(shard.path, "a", encoding="utf-8") as fh:
            fh.write("00112233 zz\n0011223344556677 ab")  # malformed lines
        assert compact_cache_dir(tmp_path) == {"files": 1, "absorbed": 1, "entries": 5}
        assert not os.path.exists(shard.path)
        reopened = _cache(tmp_path)
        assert len(reopened) == 5 and not reopened._read_only
        assert list(_entries(base.path)) == sorted(_entries(base.path))

    @pytest.mark.parametrize("bad", ["mismatched", "unreadable"])
    def test_leaves_bad_header_groups_untouched(self, tmp_path, bad):
        base = _cache(tmp_path)
        base.insert(_keys(2, seed=1), np.ones((2, 2), dtype=np.uint8))
        shard = tmp_path / _name(base).replace(".cache", ".w1.cache")
        if bad == "mismatched":
            # Same file stem, other value width.
            clash = _cache(tmp_path, value_bytes=4, writer_tag="1")
            clash.insert(_keys(1, seed=2), np.ones((1, 4), dtype=np.uint8))
            assert clash.path == str(shard)
        else:
            shard.write_bytes(b"\xff not a header\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert compact_cache_dir(tmp_path)["files"] == 0
        assert before == {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_summarize_cache_dir(tmp_path):
    """Counts cache files and distinct entries.  Handles opened before
    any of them writes (as forked workers are) each append the
    syndromes they share, twice into the base file and again into a
    writer shard; each syndrome counts once."""
    keys = _keys(7)
    values = np.zeros((7, 2), dtype=np.uint8)
    first, second = _cache(tmp_path), _cache(tmp_path)
    shard = _cache(tmp_path, writer_tag="1")
    first.insert(keys[:5], values[:5])
    second.insert(keys[:5], values[:5])
    shard.insert(keys[3:], values[3:])
    lines = sum(len(p.read_bytes().splitlines()) - 1 for p in tmp_path.iterdir())
    assert lines == 14
    other = SyndromeCache(
        tmp_path, dem_key="b" * 64, namespace="other", key_bytes=8, value_bytes=1
    )
    other.insert(_keys(3, seed=9), np.zeros((3, 1), dtype=np.uint8))
    (tmp_path / "unrelated.txt").write_text("not a cache\n")
    assert summarize_cache_dir(tmp_path) == {"files": 3, "entries": 10}
    assert summarize_cache_dir(tmp_path / "missing") == {"files": 0, "entries": 0}
