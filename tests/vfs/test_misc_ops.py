"""VFS tests: hints, mmap, shm, fcntl, and attribute-list calls."""

import pytest

from repro.vfs import flags as F
from tests.conftest import make_fs, run


@pytest.fixture
def fs():
    filesystem = make_fs()
    filesystem.create_file_now("/data", size=1 << 20)
    return filesystem


def call(fs, gen):
    return run(fs, gen)


def opened(fs, path="/data", flags=F.O_RDWR):
    fd, err = call(fs, fs.open(1, path, flags))
    assert err is None
    return fd


class TestHints(object):
    def test_fadvise_prefetches(self, fs):
        fd = opened(fs)
        call(fs, fs.fadvise(1, fd, 0, 65536))
        fs.engine.run()  # drain the async readahead
        assert fs.stack.cache.contains((fs.lookup("/data").ino, 0))

    def test_fadvise_then_read_is_fast(self, fs):
        fd = opened(fs)
        call(fs, fs.fadvise(1, fd, 0, 65536))
        fs.engine.run()

        def body():
            start = fs.engine.now
            yield from fs.pread(1, fd, 65536, 0)
            return fs.engine.now - start

        # Clock may keep advancing afterwards for async readahead; only
        # the in-call latency matters here.
        assert run(fs, body()) < 0.001

    def test_read_right_after_fadvise_waits_for_device(self, fs):
        fd = opened(fs)
        stats = fs.stack.stats

        def body():
            # Mid-file, so the read itself starts no readahead.
            yield from fs.fadvise(1, fd, 65536, 65536)
            submitted = stats.reads_submitted
            start = fs.engine.now
            yield from fs.pread(1, fd, 65536, 65536)
            return fs.engine.now - start, stats.reads_submitted - submitted

        latency, resubmitted = run(fs, body())
        # The advised pages are in flight, not yet filled: the read
        # waits for the prefetch's device time instead of re-reading.
        assert latency > 0.001
        assert resubmitted == 0

    def test_fadvise_evicting_dirty_pages_writes_them_back(self):
        fs = make_fs(cache_bytes=16 * 4096)
        fs.create_file_now("/data", size=1 << 20)
        fs.stack.cache.dirty_limit = 16  # let the cache fill with dirty pages
        fd = opened(fs)
        other = opened(fs, "/other", F.O_RDWR | F.O_CREAT)
        call(fs, fs.pwrite(1, other, 16 * 4096, 0))
        assert fs.stack.cache.dirty_count == 16
        written = fs.stack.stats.blocks_written
        call(fs, fs.fadvise(1, fd, 0, 16 * 4096))
        assert fs.stack.cache.dirty_count == 0
        assert fs.stack.stats.blocks_written - written == 16

    def test_fallocate_extends_size(self, fs):
        fd = opened(fs)
        assert call(fs, fs.fallocate(1, fd, 1 << 20, 65536)) == (0, None)
        assert fs.lookup("/data").size == (1 << 20) + 65536

    def test_flock_succeeds(self, fs):
        fd = opened(fs)
        assert call(fs, fs.flock(1, fd)) == (0, None)

    def test_flock_bad_fd(self, fs):
        assert call(fs, fs.flock(1, 99)) == (-1, "EBADF")


class TestMmap(object):
    def test_mmap_faults_in_pages(self, fs):
        fd = opened(fs)
        addr, err = call(fs, fs.mmap(1, fd, 0, 65536))
        assert err is None
        assert addr > 0
        assert fs.stack.cache.contains((fs.lookup("/data").ino, 0))

    def test_anonymous_mmap(self, fs):
        addr, err = call(fs, fs.mmap(1, -1, 0, 4096))
        assert err is None

    def test_munmap_msync(self, fs):
        assert call(fs, fs.munmap(1, 0x7F0000000000, 4096)) == (0, None)
        assert call(fs, fs.msync(1, 0x7F0000000000, 4096)) == (0, None)


class TestShm(object):
    def test_shm_open_creates_under_dev_shm(self, fs):
        fd, err = call(fs, fs.shm_open(1, "seg"))
        assert err is None
        assert fs.exists("/dev/shm/seg")

    def test_shm_unlink(self, fs):
        call(fs, fs.shm_open(1, "seg"))
        assert call(fs, fs.shm_unlink(1, "seg")) == (0, None)
        assert not fs.exists("/dev/shm/seg")


class TestAttributeLists(object):
    def test_getattrlist_like_stat(self, fs):
        stat, err = call(fs, fs.getattrlist(1, "/data"))
        assert err is None
        assert stat.size == 1 << 20

    def test_getattrlist_missing(self, fs):
        assert call(fs, fs.getattrlist(1, "/zzz")) == (-1, "ENOENT")

    def test_setattrlist(self, fs):
        assert call(fs, fs.setattrlist(1, "/data")) == (0, None)


class TestMetaWrites(object):
    def test_chmod(self, fs):
        assert call(fs, fs.chmod(1, "/data", 0o400)) == (0, None)
        assert fs.lookup("/data").mode == 0o400

    def test_fchmod(self, fs):
        fd = opened(fs)
        assert call(fs, fs.fchmod(1, fd, 0o755)) == (0, None)
        assert fs.lookup("/data").mode == 0o755

    def test_utimes_and_chown(self, fs):
        assert call(fs, fs.utimes(1, "/data")) == (0, None)
        assert call(fs, fs.chown(1, "/data")) == (0, None)

    def test_utimes_missing(self, fs):
        assert call(fs, fs.utimes(1, "/zzz")) == (-1, "ENOENT")
