"""Block cache with least-recently-used eviction.

Blocks are keyed by (file_id, kind, block_index) where kind is one of
"data", "index", "filter". A capacity of zero disables caching entirely,
which gives cold-cache behavior for benchmarking.
"""

from __future__ import annotations

from collections import OrderedDict

BLOCK_KINDS = ("data", "index", "filter")

CacheKey = tuple[int, str, int]


class BlockCache:
    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self._blocks: OrderedDict[CacheKey, bytes] = OrderedDict()
        # file_id -> its cached keys, so dropping a file skips other files' blocks
        self._file_keys: dict[int, set[CacheKey]] = {}
        self._resident_bytes = 0
        self.hits = {kind: 0 for kind in BLOCK_KINDS}
        self.misses = {kind: 0 for kind in BLOCK_KINDS}

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def get(self, key: CacheKey) -> bytes | None:
        block = self._blocks.get(key)
        if block is None:
            self.misses[key[1]] += 1
            return None
        self._blocks.move_to_end(key)
        self.hits[key[1]] += 1
        return block

    def put(self, key: CacheKey, block: bytes) -> None:
        if self.capacity_bytes <= 0 or len(block) > self.capacity_bytes:
            return
        old = self._blocks.pop(key, None)
        if old is not None:
            self._resident_bytes -= len(old)
        self._blocks[key] = block
        self._file_keys.setdefault(key[0], set()).add(key)
        self._resident_bytes += len(block)
        while self._resident_bytes > self.capacity_bytes:
            old_key, evicted = self._blocks.popitem(last=False)
            self._resident_bytes -= len(evicted)
            keys = self._file_keys[old_key[0]]
            keys.discard(old_key)
            if not keys:
                del self._file_keys[old_key[0]]

    def drop_file(self, file_id: int) -> None:
        """Evict all blocks of a file removed from the manifest."""
        for key in self._file_keys.pop(file_id, ()):
            self._resident_bytes -= len(self._blocks.pop(key))

    def clear(self) -> None:
        self._blocks.clear()
        self._file_keys.clear()
        self._resident_bytes = 0
