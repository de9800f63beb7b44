"""Storage-stack edge cases: in-flight pages, RAID writes, journal wrap."""

from repro.errors import DeviceError
from repro.faults import FaultPlan, FaultRule
from repro.faults.inject import FaultInjector
from repro.sim import Engine
from repro.sim.events import Delay
from repro.storage import HDD, RAID0, StorageStack
from repro.storage.alloc import BlockAllocator


def make_stack(device=None, **kwargs):
    engine = Engine(kwargs.pop("seed", 0))
    stack = StorageStack(engine, device or HDD(), 64 << 20, **kwargs)
    return engine, stack


class TestInflightPages(object):
    def test_second_reader_waits_for_inflight_page(self):
        engine, stack = make_stack()
        stack.alloc.ensure_blocks("f", 64)
        done = {}

        def reader(tid):
            # Mid-file offset: no readahead, exactly one block involved.
            yield from stack.read(tid, "f", 100 * 4096, 4096)
            done[tid] = engine.now

        engine.spawn(reader(1))
        engine.spawn(reader(2))
        engine.run()
        # One physical read served both; the second reader finished at
        # (or a hair after) the same moment, not after a second seek.
        assert stack.stats.reads_submitted == 1
        assert abs(done[1] - done[2]) < 0.001

    def test_inflight_map_drains(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 65536)

        engine.run_process(body())
        engine.run()
        assert stack._inflight == {}

    def test_reader_behind_prefetch_waits_not_skips(self):
        engine, stack = make_stack()
        latencies = []

        def body():
            # Sequential stream: triggers readahead.
            for block in range(32):
                start = engine.now
                yield from stack.read(1, "f", block * 4096, 4096)
                latencies.append(engine.now - start)

        engine.run_process(body())
        # The stream cannot run faster than the disk: total time must be
        # at least the media-rate transfer of all the data it consumed.
        transfer = 32 * 4096 / (100 * 1024 * 1024)
        assert sum(latencies) >= transfer


class TestEvictionWriteback(object):
    def test_failed_flush_reinsert_writes_back_evictions(self):
        engine = Engine(0)
        stack = StorageStack(engine, HDD(), 8 * 4096)
        stack.cache.dirty_limit = 8  # no throttling: the cache fills
        stack.attach_faults(FaultInjector(
            FaultPlan([FaultRule("eio", rate=1.0, op="write", count=1)], seed=1)
        ))
        errors = []

        def flusher():
            yield from stack.write(1, "a", 0, 4 * 4096)
            try:
                yield from stack.fsync(1, "a")
            except DeviceError as exc:
                errors.append(exc)

        def filler():
            # Runs while the flush of "a" is on the device: fills the
            # cache with dirty pages of "b".
            yield Delay(0.0005)
            yield from stack.write(2, "b", 0, 8 * 4096)

        engine.spawn(flusher())
        engine.spawn(filler())
        engine.run()
        assert len(errors) == 1
        # "a" is dirty again; the four pages of "b" its re-insert
        # evicted went to the device instead of being dropped.
        assert sorted(stack.cache.dirty_keys_of("a")) == [("a", b) for b in range(4)]
        assert len(stack.cache.dirty_keys_of("b")) == 4
        # Four blocks of the failed flush, then the four evicted ones.
        assert stack.stats.blocks_written == 8


class TestRaidWrites(object):
    def test_large_write_stripes_across_members(self):
        engine, stack = make_stack(RAID0(2), scheduler="fifo")

        def body():
            yield from stack.write(1, "f", 0, 2 << 20)  # 2 MB, 4 chunks
            yield from stack.fsync(1, "f")

        engine.run_process(body())
        # Both members saw traffic: head moved on each spindle.
        positions = [s.position() for s in stack.device.spindles]
        assert all(p > 0 for p in positions)

    def test_striped_fsync_faster_than_single_disk(self):
        def timed(device):
            engine, stack = make_stack(device, scheduler="fifo", seed=4)

            def body():
                yield from stack.write(1, "f", 0, 8 << 20)
                yield from stack.fsync(1, "f")

            engine.run_process(body())
            return engine.now

        assert timed(RAID0(2)) < timed(HDD()) * 0.8


class TestJournal(object):
    def test_journal_cursor_wraps(self):
        engine, stack = make_stack()
        for _ in range(10000):
            stack._journal_lba(16)
        assert 0 <= stack._meta_journal_cursor < BlockAllocator.JOURNAL_ZONE_BLOCKS

    def test_journal_writes_in_journal_zone(self):
        engine, stack = make_stack()
        lba = stack._journal_lba(8)
        assert BlockAllocator.INODE_ZONE_BLOCKS <= lba
        assert lba < BlockAllocator.INODE_ZONE_BLOCKS + BlockAllocator.JOURNAL_ZONE_BLOCKS


class TestMetadataWarmth(object):
    def test_warm_metadata_makes_meta_read_cheap(self):
        engine, stack = make_stack()
        stack.warm_metadata([42])

        def body():
            start = engine.now
            yield from stack.meta_read(1, 42)
            return engine.now - start

        assert engine.run_process(body()) < 0.0001

    def test_drop_caches_keep_metadata(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 4096)
            yield from stack.meta_read(1, 42)

        engine.run_process(body())
        stack.drop_caches(keep_metadata=True)
        assert stack.cache.contains(("ino", 42))
        assert not stack.cache.contains(("f", 0))
        stack.drop_caches(keep_metadata=False)
        assert not stack.cache.contains(("ino", 42))
