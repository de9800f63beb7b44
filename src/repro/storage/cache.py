"""An exact LRU page cache with dirty tracking and readahead state.

The cache is pure bookkeeping -- all timing happens in the stack, which
asks the cache what is resident, inserts pages, and receives back the
dirty pages it must write out on eviction.  Keys are ``(file_id,
block_index)`` for data pages and ``("ino", file_id)`` for cached inode
metadata (the dentry/inode cache collapsed into one structure).

Representation.  The cache is a per-page LRU, but it stores data pages
as *batches*: the pages of one file that one call touched or inserted,
held as ascending, disjoint ``[start, end)`` block intervals.  The LRU
order is the order of the batches in ``_lru`` and, inside a batch,
block order.  That is exactly the order that touching or appending
each page in turn produces, so a 64-block read costs a few interval
operations instead of a hundred per-page ones, and re-reading a range
that is one whole single-interval batch is one ``move_to_end``.  A
per-file index of interval starts, searched with ``bisect``, maps a
block to its interval and batch.

Inode pages are single keys in the same ordered map: path walks look
them up one at a time, and a plain key keeps that O(1).  They go
through the per-key methods only; the range methods assert it.

Dirty state is per page: ``_dirty`` in oldest-dirtied order, with
per-file views.  An insert that must evict goes page by page on the
same structure, so the eviction order and the dirty keys handed back
for writeback are the per-page LRU's by construction.
"""

from bisect import bisect_right
from collections import OrderedDict


def block_runs(blocks):
    """Coalesce an ascending block list into ``(start, end)`` runs of
    consecutive blocks."""
    runs = []
    start = end = None
    for block in blocks:
        if block != end:
            if start is not None:
                runs.append((start, end))
            start = block
        end = block + 1
    if start is not None:
        runs.append((start, end))
    return runs


class _Batch(object):
    """Pages of one file in LRU order: ``ivs`` holds ``[start, end,
    batch]`` intervals in ascending block order, shared with the file's
    index."""

    __slots__ = ("file_id", "ivs", "size")

    def __init__(self, file_id):
        self.file_id = file_id
        self.ivs = []
        self.size = 0


class PageCache(object):
    def __init__(self, capacity_pages, dirty_ratio=0.20):
        if capacity_pages <= 0:
            raise ValueError("cache must hold at least one page")
        self.capacity_pages = capacity_pages
        self.dirty_limit = max(1, int(capacity_pages * dirty_ratio))
        self._lru = OrderedDict()  # _Batch or ("ino", n) -> None, LRU first
        self._index = {}  # file_id -> (starts, ivs), ascending by start
        self._count = 0
        self._dirty = OrderedDict()  # key -> True, oldest-dirtied first
        # Per-file view of ``_dirty`` (``key[0]`` -> {key: True}), so
        # per-file fsync and unlink are O(pages of that file); within
        # one file its order is the global oldest-dirtied order.
        self._file_dirty = {}
        self._streams = {}  # (tid, file_id) -> (next_block, window)
        self.hits = 0
        self.misses = 0

    # -- residency ---------------------------------------------------

    def __len__(self):
        return self._count

    @property
    def dirty_count(self):
        return len(self._dirty)

    def contains(self, key):
        if key[0] == "ino":
            return key in self._lru
        return not self.absent(key[0], key[1], key[1] + 1)

    def lookup(self, key):
        """Touch ``key``; return True on hit."""
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
            self.hits += 1
            return True
        if key[0] == "ino":
            self.misses += 1
            return False
        return not self.lookup_range(key[0], key[1], 1)

    def lookup_range(self, file_id, first, n):
        """The same as :meth:`lookup` on each block of ``[first, first
        + n)``, in order.  Returns the missing blocks as ascending
        ``(start, end)`` runs."""
        assert file_id != "ino"
        end = first + n
        index = self._index.get(file_id)
        if index is None:
            self.misses += n
            return [(first, end)] if n > 0 else []
        starts, ivs = index
        i = bisect_right(starts, first) - 1
        if i >= 0:
            iv = ivs[i]
            if iv[0] == first and iv[1] == end and len(iv[2].ivs) == 1:
                self._lru.move_to_end(iv[2])
                self.hits += n
                return []
        pieces = []
        pos = self._carve(starts, ivs, first, end, pieces)
        missing = []
        cursor = first
        if pieces:
            batch = _Batch(file_id)
            for piece in pieces:
                if piece[0] > cursor:
                    missing.append((cursor, piece[0]))
                cursor = piece[1]
                piece.append(batch)
                batch.size += cursor - piece[0]
            batch.ivs = pieces
            ivs[pos:pos] = pieces
            starts[pos:pos] = [piece[0] for piece in pieces]
            self._lru[batch] = None
            self.hits += batch.size
            n -= batch.size
        if cursor < end:
            missing.append((cursor, end))
        self.misses += n
        return missing

    def absent(self, file_id, start, end):
        """The blocks of ``[start, end)`` that :meth:`contains` reports
        absent, as ascending ``(start, end)`` runs (the readahead
        probe).  Touches nothing."""
        assert file_id != "ino"
        if start >= end:
            return []
        index = self._index.get(file_id)
        if index is None:
            return [(start, end)]
        starts, ivs = index
        i = bisect_right(starts, start) - 1
        if i < 0 or ivs[i][1] <= start:
            i += 1
        out = []
        cursor = start
        n = len(ivs)
        while i < n:
            s, e, _batch = ivs[i]
            if s >= end:
                break
            if s > cursor:
                out.append((cursor, s))
            cursor = e
            i += 1
        if cursor < end:
            out.append((cursor, end))
        return out

    def insert(self, key, dirty):
        """Make ``key`` resident.  Returns a list of evicted *dirty*
        keys that the caller must write back."""
        if key[0] != "ino":
            block = key[1]
            return self.insert_runs(key[0], ((block, block + 1),), dirty)
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
            if dirty and key not in self._dirty:
                self._mark_dirty(key)
            return []
        evicted = []
        while self._count >= self.capacity_pages:
            self._evict_head(evicted)
        lru[key] = None
        self._count += 1
        if dirty:
            self._mark_dirty(key)
        return evicted

    def insert_range(self, file_id, first, n, dirty):
        """The same as :meth:`insert` on each block of ``[first, first +
        n)``, in order; returns the evicted dirty keys."""
        if n <= 0:
            return []
        return self.insert_runs(file_id, ((first, first + n),), dirty)

    def insert_blocks(self, file_id, blocks, dirty):
        """The same as :meth:`insert` on each of the ascending
        ``blocks``, in order; returns the evicted dirty keys."""
        return self.insert_runs(file_id, block_runs(blocks), dirty)

    def insert_runs(self, file_id, runs, dirty):
        """The same as :meth:`insert` on each block of the ascending,
        disjoint, non-empty ``(start, end)`` runs, in order; returns the
        evicted dirty keys."""
        assert file_id != "ino"
        if not runs:
            return []
        total = 0
        resident = 0
        index = self._index.get(file_id)
        for start, end in runs:
            total += end - start
            if index is not None:
                resident += self._resident(index, start, end)
        if self._count + total - resident > self.capacity_pages:
            return self._insert_evicting(file_id, runs, dirty)
        if index is None:
            index = self._index[file_id] = ([], [])
        starts, ivs = index
        batch = _Batch(file_id)
        bivs = batch.ivs
        for start, end in runs:
            pos = self._carve(starts, ivs, start, end, [])
            if bivs and bivs[-1][1] == start:
                bivs[-1][1] = end
                continue
            iv = [start, end, batch]
            bivs.append(iv)
            ivs.insert(pos, iv)
            starts.insert(pos, start)
        batch.size = total
        self._lru[batch] = None
        self._count += total - resident
        if dirty:
            self._dirty_runs(file_id, runs)
        return []

    def _insert_evicting(self, file_id, runs, dirty):
        """:meth:`insert_runs` when it must evict: page by page, as the
        per-key loop does, so evictions interleave exactly."""
        evicted = []
        batch = _Batch(file_id)
        lru = self._lru
        dirty_map = self._dirty
        for start, end in runs:
            for block in range(start, end):
                index = self._index.get(file_id)
                if index is not None and self._resident(index, block, block + 1):
                    self._carve(index[0], index[1], block, block + 1, [])
                else:
                    while self._count >= self.capacity_pages:
                        self._evict_head(evicted)
                    self._count += 1
                if not batch.size:
                    lru[batch] = None  # (re)enters at the MRU end
                self._append(batch, block)
                if dirty and (file_id, block) not in dirty_map:
                    self._mark_dirty((file_id, block))
        return evicted

    def _append(self, batch, block):
        """Make ``block`` (not resident) the last page of ``batch``."""
        bivs = batch.ivs
        batch.size += 1
        if bivs and bivs[-1][1] == block:
            bivs[-1][1] = block + 1
            return
        iv = [block, block + 1, batch]
        bivs.append(iv)
        index = self._index.get(batch.file_id)
        if index is None:
            index = self._index[batch.file_id] = ([], [])
        starts, ivs = index
        pos = bisect_right(starts, block)
        ivs.insert(pos, iv)
        starts.insert(pos, block)

    @staticmethod
    def _resident(index, start, end):
        """How many blocks of ``[start, end)`` are resident."""
        starts, ivs = index
        i = bisect_right(starts, start) - 1
        if i < 0 or ivs[i][1] <= start:
            i += 1
        count = 0
        n = len(ivs)
        while i < n:
            s, e = ivs[i][0], ivs[i][1]
            if s >= end:
                break
            count += min(e, end) - max(s, start)
            i += 1
        return count

    def _carve(self, starts, ivs, a, b, pieces):
        """Take the resident pages of ``[a, b)`` out of their batches
        (the caller re-homes them or accounts for their loss).  Appends
        the taken sub-ranges to ``pieces`` as ``[start, end]`` lists,
        adjacent ones merged, and returns the index position where
        intervals inside ``[a, b)`` now belong."""
        i = bisect_right(starts, a) - 1
        n = len(ivs)
        if i < 0:
            i = 0
        else:
            iv = ivs[i]
            s, e, batch = iv
            if s < a < e:
                if e > b:
                    # [a, b) lies strictly inside one interval: split.
                    iv[1] = a
                    right = [b, e, batch]
                    bivs = batch.ivs
                    bivs.insert(bivs.index(iv) + 1, right)
                    ivs.insert(i + 1, right)
                    starts.insert(i + 1, b)
                    batch.size -= b - a
                    pieces.append([a, b])
                    return i + 1
                iv[1] = a
                batch.size -= e - a
                pieces.append([a, e])
                i += 1
            elif e <= a:
                i += 1
        j = i
        lru = self._lru
        while j < n:
            iv = ivs[j]
            s, e, batch = iv
            if s >= b:
                break
            if e > b:
                iv[0] = b
                starts[j] = b
                batch.size -= b - s
                self._take(pieces, s, b)
                break
            batch.size -= e - s
            batch.ivs.remove(iv)
            if not batch.size:
                del lru[batch]
            self._take(pieces, s, e)
            j += 1
        if j > i:
            del ivs[i:j]
            del starts[i:j]
        return i

    @staticmethod
    def _take(pieces, start, end):
        if pieces and pieces[-1][1] == start:
            pieces[-1][1] = end
        else:
            pieces.append([start, end])

    def _evict_head(self, evicted):
        """Evict the least recently used page; a dirty one is appended
        to ``evicted``."""
        lru = self._lru
        unit = next(iter(lru))
        if type(unit) is tuple:
            del lru[unit]
            key = unit
        else:
            iv = unit.ivs[0]
            block = iv[0]
            file_id = unit.file_id
            starts, ivs = self._index[file_id]
            pos = bisect_right(starts, block) - 1
            if iv[1] == block + 1:
                del unit.ivs[0]
                del ivs[pos]
                del starts[pos]
                if not ivs:
                    del self._index[file_id]
            else:
                iv[0] = starts[pos] = block + 1
            unit.size -= 1
            if not unit.size:
                del lru[unit]
            key = (file_id, block)
        self._count -= 1
        if key in self._dirty:
            del self._dirty[key]
            self._drop_from_index(self._file_dirty, key)
            evicted.append(key)

    def _mark_dirty(self, key):
        self._dirty[key] = True
        self._file_dirty.setdefault(key[0], {})[key] = True

    def _dirty_runs(self, file_id, runs):
        dirty = self._dirty
        bucket = self._file_dirty.setdefault(file_id, {})
        for start, end in runs:
            for block in range(start, end):
                key = (file_id, block)
                if key not in dirty:
                    dirty[key] = True
                    bucket[key] = True

    @staticmethod
    def _drop_from_index(index, key):
        bucket = index.get(key[0])
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del index[key[0]]

    def mark_clean(self, keys):
        for key in keys:
            if self._dirty.pop(key, None):
                self._drop_from_index(self._file_dirty, key)

    def dirty_keys_of(self, file_id):
        return list(self._file_dirty.get(file_id, ()))

    def all_dirty_keys(self):
        return list(self._dirty)

    def oldest_dirty(self, count):
        out = []
        for key in self._dirty:
            out.append(key)
            if len(out) >= count:
                break
        return out

    def invalidate_keys(self, keys):
        """Drop specific pages (e.g. a faulted read that never filled
        them); dirty state is discarded with the page."""
        for key in keys:
            if key[0] == "ino":
                if key not in self._lru:
                    continue
                del self._lru[key]
            else:
                index = self._index.get(key[0])
                if index is None:
                    continue
                taken = []
                self._carve(index[0], index[1], key[1], key[1] + 1, taken)
                if not taken:
                    continue
                if not index[1]:
                    del self._index[key[0]]
            self._count -= 1
            if self._dirty.pop(key, None):
                self._drop_from_index(self._file_dirty, key)

    def invalidate_file(self, file_id):
        """Drop every page of ``file_id`` (e.g. after unlink of the last
        link); dirty pages are discarded, as on a real kernel."""
        lru = self._lru
        if file_id == "ino":
            for key in [unit for unit in lru if type(unit) is tuple]:
                del lru[key]
                self._count -= 1
        else:
            index = self._index.pop(file_id, None)
            if index is None:
                return
            for s, e, batch in index[1]:
                lru.pop(batch, None)
                self._count -= e - s
        for key in self._file_dirty.pop(file_id, ()):
            del self._dirty[key]

    def drop_clean(self, keep_metadata=True):
        """Evict clean pages (``echo 1 > drop_caches``).

        With ``keep_metadata`` the inode/dentry entries survive, which
        matches the common benchmarking situation: data caches are
        cleared (or simply too small) while the namespace that setup
        just created is still hot.  Pass False for a full
        ``echo 3``-style drop."""
        units = list(self._lru)
        self._lru = OrderedDict()
        self._index = {}
        self._count = 0
        dirty = self._dirty
        for unit in units:
            if type(unit) is tuple:
                if keep_metadata or unit in dirty:
                    self._lru[unit] = None
                    self._count += 1
                continue
            file_id = unit.file_id
            if not self._file_dirty.get(file_id):
                continue
            kept = [
                block
                for s, e, _batch in unit.ivs
                for block in range(s, e)
                if (file_id, block) in dirty
            ]
            if kept:
                batch = _Batch(file_id)
                self._lru[batch] = None
                for block in kept:
                    self._append(batch, block)
                self._count += len(kept)
        self._streams.clear()

    # -- readahead ---------------------------------------------------

    READAHEAD_MIN = 8
    READAHEAD_MAX = 64

    def readahead_plan(self, tid, file_id, first_block, nblocks):
        """Update per-stream sequentiality state; return the block range
        ``(start, end)`` to prefetch asynchronously (empty for random
        access).

        A stream is sequential when each read starts where the previous
        one ended (prefetched blocks in between are cache hits and do
        not break the stream).  The window doubles up to
        ``READAHEAD_MAX`` and is pulled in chunks: a new chunk is
        issued when the reader crosses the second half of the
        previously prefetched region, like the kernel's async
        readahead."""
        key = (tid, file_id)
        state = self._streams.get(key)  # [expected_next, window, ra_end]
        read_end = first_block + nblocks
        if state is not None and first_block == state[0]:
            window = min(max(state[1] * 2, self.READAHEAD_MIN), self.READAHEAD_MAX)
            ra_end = max(state[2], read_end)
        elif state is None and first_block == 0:
            window = self.READAHEAD_MIN  # fresh scan from BOF
            ra_end = read_end
        else:
            self._streams[key] = [read_end, 0, read_end]
            return (read_end, read_end)  # random access: no prefetch
        target = read_end + window
        if target - ra_end >= max(1, window // 2) or read_end > ra_end - window // 2:
            start, end = ra_end, max(ra_end, target)
        else:
            start, end = ra_end, ra_end  # still inside the last chunk
        self._streams[key] = [read_end, window, max(ra_end, end)]
        return (start, end)
