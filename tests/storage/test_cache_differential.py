"""Differential property test: the block-interval page cache against the
per-page reference cache.

Both caches see the same random call sequence over every public method
-- data pages of several files through the per-key and the range API,
plus single-key ``"ino"`` pages -- at capacities from 1 to 64 pages, so
most sequences evict.  After every call the return values, the per-page
LRU order, the dirty order, the hit and miss counters and the size must
agree.
"""

from hypothesis import given, settings, strategies as st

from repro.storage.cache import PageCache
from tests.storage.reference_cache import PageCache as ReferenceCache

FILES = ["f", "g", 7]

files = st.sampled_from(FILES)
blocks = st.integers(min_value=0, max_value=47)
lengths = st.integers(min_value=0, max_value=24)
dirty = st.booleans()
data_keys = st.tuples(files, blocks)
ino_keys = st.tuples(st.just("ino"), st.integers(min_value=0, max_value=5))
keys = st.one_of(data_keys, ino_keys)
key_lists = st.lists(keys, max_size=8)
owners = st.sampled_from(FILES + ["ino"])


def _runs(pairs):
    """Ascending, disjoint, possibly adjacent runs from (gap, length)."""
    runs = []
    cursor = 0
    for gap, length in pairs:
        start = cursor + gap
        runs.append((start, start + length))
        cursor = start + length
    return runs


CALLS = st.one_of(
    st.tuples(st.just("lookup"), keys),
    st.tuples(st.just("contains"), keys),
    st.tuples(st.just("insert"), keys, dirty),
    st.tuples(st.just("lookup_range"), files, blocks, lengths),
    st.tuples(st.just("absent"), files, blocks, lengths).map(
        lambda c: (c[0], c[1], c[2], c[2] + c[3])),
    st.tuples(st.just("insert_range"), files, blocks, lengths, dirty),
    st.tuples(st.just("insert_blocks"), files,
              st.sets(blocks, max_size=16).map(sorted), dirty),
    st.tuples(st.just("insert_runs"), files,
              st.lists(st.tuples(st.integers(0, 4), st.integers(1, 10)),
                       max_size=4).map(_runs), dirty),
    st.tuples(st.just("mark_clean"), key_lists),
    st.tuples(st.just("dirty_keys_of"), owners),
    st.tuples(st.just("all_dirty_keys")),
    st.tuples(st.just("oldest_dirty"), st.integers(min_value=1, max_value=10)),
    st.tuples(st.just("invalidate_keys"), key_lists),
    st.tuples(st.just("invalidate_file"), owners),
    st.tuples(st.just("drop_clean"), st.booleans()),
)


def lru_pages(cache):
    """Resident keys of the interval cache, least recently used first,
    checking its internal invariants on the way."""
    pages = []
    for unit in cache._lru:
        if type(unit) is tuple:
            pages.append(unit)
            continue
        assert unit.size == sum(end - start for start, end, _b in unit.ivs) > 0
        previous_end = None
        for start, end, owner in unit.ivs:
            assert owner is unit and start < end
            assert previous_end is None or previous_end < start
            previous_end = end
            pages.extend((unit.file_id, block) for block in range(start, end))
    indexed = 0
    for file_id, (starts, ivs) in cache._index.items():
        assert ivs and starts == [iv[0] for iv in ivs]
        for left, right in zip(ivs, ivs[1:]):
            assert left[1] <= right[0]
        for iv in ivs:
            assert iv[2].file_id == file_id and any(iv is x for x in iv[2].ivs)
            indexed += iv[1] - iv[0]
    assert indexed == sum(1 for key in pages if key[0] != "ino")
    return pages


def _normal(value):
    if isinstance(value, list):
        return [tuple(item) for item in value]
    return value


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.lists(CALLS, max_size=60))
def test_interval_cache_matches_per_page_reference(capacity, calls):
    cache = PageCache(capacity)
    reference = ReferenceCache(capacity)
    for call in calls:
        name, args = call[0], call[1:]
        got = getattr(cache, name)(*args)
        expected = getattr(reference, name)(*args)
        assert _normal(got) == _normal(expected), call
        assert lru_pages(cache) == list(reference._pages), call
        assert cache.all_dirty_keys() == reference.all_dirty_keys(), call
        for owner in FILES + ["ino"]:
            assert cache.dirty_keys_of(owner) == reference.dirty_keys_of(owner)
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert len(cache) == len(reference)
        assert cache.dirty_count == reference.dirty_count
