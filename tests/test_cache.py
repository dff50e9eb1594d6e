from lsmclab.cache import BlockCache


def test_hit_and_miss_accounting():
    cache = BlockCache(1024)
    assert cache.get((1, "data", 0)) is None
    cache.put((1, "data", 0), b"x" * 10, 10)
    assert cache.get((1, "data", 0)) == b"x" * 10
    assert cache.misses["data"] == 1
    assert cache.hits["data"] == 1


def test_lru_eviction_order():
    cache = BlockCache(30)
    cache.put((1, "data", 0), b"a" * 10, 10)
    cache.put((1, "data", 1), b"b" * 10, 10)
    cache.put((1, "data", 2), b"c" * 10, 10)
    cache.get((1, "data", 0))  # touch: 1 is now the LRU block
    cache.put((1, "data", 3), b"d" * 10, 10)
    assert cache.get((1, "data", 1)) is None
    assert cache.get((1, "data", 0)) is not None
    assert cache.resident_bytes == 30


def test_zero_capacity_disables_cache():
    cache = BlockCache(0)
    cache.put((1, "data", 0), b"x", 1)
    assert cache.get((1, "data", 0)) is None
    assert cache.resident_bytes == 0


def test_oversized_block_not_admitted():
    cache = BlockCache(8)
    cache.put((1, "index", 0), b"x" * 9, 9)
    assert cache.resident_bytes == 0


def test_replacement_updates_residency():
    cache = BlockCache(100)
    cache.put((1, "data", 0), b"x" * 10, 10)
    cache.put((1, "data", 0), b"y" * 4, 4)
    assert cache.resident_bytes == 4
    assert cache.get((1, "data", 0)) == b"y" * 4


def test_drop_file_evicts_all_kinds():
    cache = BlockCache(1024)
    cache.put((1, "data", 0), b"a", 1)
    cache.put((1, "index", 0), b"b", 1)
    cache.put((2, "data", 0), b"c", 1)
    cache.drop_file(1)
    assert cache.get((1, "data", 0)) is None
    assert cache.get((1, "index", 0)) is None
    assert cache.get((2, "data", 0)) == b"c"


def test_drop_file_leaves_other_files_untouched():
    cache = BlockCache(100)
    for i in range(6):
        cache.put((i % 3, "data", i), bytes([65 + i]) * (10 + i), 10 + i)
    cache.put((1, "index", 0), b"i" * 7, 7)
    cache.get((0, "data", 0))
    cache.get((2, "data", 9))
    # evicts the two least recently used blocks, of files 1 and 2
    cache.put((3, "filter", 0), b"f" * 30, 30)
    others = [(k, v) for k, v in cache._blocks.items() if k[0] != 1]
    dropped = sum(len(v) for k, v in cache._blocks.items() if k[0] == 1)
    resident = cache.resident_bytes
    hits, misses = dict(cache.hits), dict(cache.misses)

    cache.drop_file(1)

    assert list(cache._blocks.items()) == others
    assert cache.resident_bytes == resident - dropped
    assert cache.hits == hits and cache.misses == misses
    # the per-file key sets still track eviction after the drop
    cache.put((4, "data", 0), b"x" * 60, 60)
    cache.drop_file(0)
    cache.drop_file(2)
    assert [k[0] for k in cache._blocks] == [3, 4]
    assert cache.resident_bytes == sum(len(v) for v in cache._blocks.values())


def test_eviction_follows_the_given_charge():
    """A parsed block is charged its length on disk, not its own len()."""
    cache = BlockCache(100)
    fences = [b"k1", b"k2"]  # len 2, charged 60
    cache.put((1, "index", 0), fences, 60)
    cache.put((1, "data", 0), b"d" * 30, 30)
    assert cache.resident_bytes == 90
    assert cache.get((1, "index", 0)) is fences
    # 90 + 30 > 100: the least recently used block, the data page, goes
    cache.put((2, "data", 0), b"e" * 30, 30)
    assert cache.get((1, "data", 0)) is None
    assert cache.resident_bytes == 90
    # a charge over the capacity is not admitted, whatever the object's len()
    cache.put((3, "filter", 0), [b"f"], 101)
    assert cache.get((3, "filter", 0)) is None and cache.resident_bytes == 90
    # replacing a block swaps its charge; dropping its file frees the charge
    cache.put((1, "index", 0), fences, 20)
    assert cache.resident_bytes == 50
    cache.drop_file(1)
    assert cache.resident_bytes == 30
    assert list(cache._blocks) == [(2, "data", 0)]
