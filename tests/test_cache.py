from lsmclab.cache import BlockCache


def test_hit_and_miss_accounting():
    cache = BlockCache(1024)
    assert cache.get((1, "data", 0)) is None
    cache.put((1, "data", 0), b"x" * 10)
    assert cache.get((1, "data", 0)) == b"x" * 10
    assert cache.misses["data"] == 1
    assert cache.hits["data"] == 1


def test_lru_eviction_order():
    cache = BlockCache(30)
    cache.put((1, "data", 0), b"a" * 10)
    cache.put((1, "data", 1), b"b" * 10)
    cache.put((1, "data", 2), b"c" * 10)
    cache.get((1, "data", 0))  # touch: 1 is now the LRU block
    cache.put((1, "data", 3), b"d" * 10)
    assert cache.get((1, "data", 1)) is None
    assert cache.get((1, "data", 0)) is not None
    assert cache.resident_bytes == 30


def test_zero_capacity_disables_cache():
    cache = BlockCache(0)
    cache.put((1, "data", 0), b"x")
    assert cache.get((1, "data", 0)) is None
    assert cache.resident_bytes == 0


def test_oversized_block_not_admitted():
    cache = BlockCache(8)
    cache.put((1, "index", 0), b"x" * 9)
    assert cache.resident_bytes == 0


def test_replacement_updates_residency():
    cache = BlockCache(100)
    cache.put((1, "data", 0), b"x" * 10)
    cache.put((1, "data", 0), b"y" * 4)
    assert cache.resident_bytes == 4
    assert cache.get((1, "data", 0)) == b"y" * 4


def test_drop_file_evicts_all_kinds():
    cache = BlockCache(1024)
    cache.put((1, "data", 0), b"a")
    cache.put((1, "index", 0), b"b")
    cache.put((2, "data", 0), b"c")
    cache.drop_file(1)
    assert cache.get((1, "data", 0)) is None
    assert cache.get((1, "index", 0)) is None
    assert cache.get((2, "data", 0)) == b"c"


def test_clear():
    cache = BlockCache(1024)
    cache.put((1, "data", 0), b"a")
    cache.clear()
    assert cache.resident_bytes == 0
    assert cache.get((1, "data", 0)) is None


def test_drop_file_leaves_other_files_untouched():
    cache = BlockCache(100)
    for i in range(6):
        cache.put((i % 3, "data", i), bytes([65 + i]) * (10 + i))
    cache.put((1, "index", 0), b"i" * 7)
    cache.get((0, "data", 0))
    cache.get((2, "data", 9))
    # evicts the two least recently used blocks, of files 1 and 2
    cache.put((3, "filter", 0), b"f" * 30)
    others = [(k, v) for k, v in cache._blocks.items() if k[0] != 1]
    dropped = sum(len(v) for k, v in cache._blocks.items() if k[0] == 1)
    resident = cache.resident_bytes
    hits, misses = dict(cache.hits), dict(cache.misses)

    cache.drop_file(1)

    assert list(cache._blocks.items()) == others
    assert cache.resident_bytes == resident - dropped
    assert cache.hits == hits and cache.misses == misses
    # the per-file key sets still track eviction after the drop
    cache.put((4, "data", 0), b"x" * 60)
    cache.drop_file(0)
    cache.drop_file(2)
    assert [k[0] for k in cache._blocks] == [3, 4]
    assert cache.resident_bytes == sum(len(v) for v in cache._blocks.values())
