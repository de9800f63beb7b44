"""End-to-end eviction identity: iphoto_import400 replayed on an
HDD/ext4 target whose page cache holds only 256 pages.

No shipped platform evicts on these traces (``smallcache`` holds 131k
pages), so this is the replay that exercises eviction, dirty writeback
and readahead into a full cache.  The values are those the per-page
LRU cache produced; the block-interval cache must reproduce them
exactly in every mode: per-action outcomes, simulated elapsed time,
final file-system digest, stack counters and cache hits and misses.
"""

import hashlib
from collections import namedtuple

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode
from repro.verify import fs_digest
from repro.workloads.magritte import build_suite

CACHE_PAGES = 256
SEED = 1

Pinned = namedtuple("Pinned", "elapsed actions fs stats hits misses")

PINNED = {
    ReplayMode.ARTC: Pinned(
        elapsed=14.582818928229926,
        actions="d09ccf01819a800fdb56ceeef376e524f67ba3922ad147ee1bae8e6b72a60b59",
        fs="a90f12efc053610a3a54588fe993c56bb54e2f2350c78a5dbdb5aee352ebd643",
        stats=dict(reads_submitted=2292, writes_submitted=1596, blocks_read=48944,
                   blocks_written=12162, fsyncs=468, journal_commits=468),
        hits=49654,
        misses=11000,
    ),
    ReplayMode.SINGLE: Pinned(
        elapsed=17.398732082749586,
        actions="d09ccf01819a800fdb56ceeef376e524f67ba3922ad147ee1bae8e6b72a60b59",
        fs="a90f12efc053610a3a54588fe993c56bb54e2f2350c78a5dbdb5aee352ebd643",
        stats=dict(reads_submitted=2279, writes_submitted=1646, blocks_read=48875,
                   blocks_written=12172, fsyncs=468, journal_commits=468),
        hits=49723,
        misses=10931,
    ),
    ReplayMode.TEMPORAL: Pinned(
        elapsed=17.28075529309861,
        actions="d09ccf01819a800fdb56ceeef376e524f67ba3922ad147ee1bae8e6b72a60b59",
        fs="a90f12efc053610a3a54588fe993c56bb54e2f2350c78a5dbdb5aee352ebd643",
        stats=dict(reads_submitted=2273, writes_submitted=1644, blocks_read=48869,
                   blocks_written=12174, fsyncs=468, journal_commits=468),
        hits=49728,
        misses=10925,
    ),
    ReplayMode.UNCONSTRAINED: Pinned(
        elapsed=8.836906694330832,
        actions="c429ae106b992ffcef640a4dc5c7b0aa78b10a3ed792285e08cd94dbee70c7b3",
        fs="ce6e50923dfa2c0d1723ce7d807a42f7242557b058ed5b846d76e19d2d78b11d",
        stats=dict(reads_submitted=2347, writes_submitted=1567, blocks_read=42017,
                   blocks_written=11522, fsyncs=454, journal_commits=454),
        hits=42832,
        misses=11593,
    ),
}


@pytest.fixture(scope="module")
def iphoto():
    app = build_suite(["iphoto_import400"])["iphoto_import400"]
    traced = trace_application(app, PLATFORMS["hdd-ext4"], seed=SEED)
    return compile_trace(traced.trace, traced.snapshot)


def _actions_digest(report):
    h = hashlib.sha256()
    for r in report.results:
        h.update(("%d|%s|%s|%d|%d;" % (
            r.idx, r.name, r.err, r.matched, r.skipped)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_small_cache_replay_is_unchanged(iphoto, mode):
    target = PLATFORMS["hdd-ext4"].variant(
        "hdd-ext4-256p", cache_bytes=CACHE_PAGES * 4096)
    fs = target.make_fs(seed=SEED)
    initialize(fs, iphoto.snapshot)
    report = replay(iphoto, fs, ReplayConfig(mode=mode))
    cache = fs.stack.cache
    assert Pinned(
        elapsed=report.elapsed,
        actions=_actions_digest(report),
        fs=fs_digest(fs),
        stats=fs.stack.stats.as_dict(),
        hits=cache.hits,
        misses=cache.misses,
    ) == PINNED[mode]
    assert cache.capacity_pages == CACHE_PAGES
