"""Block cache with least-recently-used eviction.

Blocks are keyed by (file_id, kind, block_index) where kind is one of
"data", "index", "filter". A block is what a lookup uses: a data page's
bytes, a parsed filter or a fence-key list, charged the byte count its
caller gives (the block's length on disk). A capacity of zero disables
caching entirely, which gives cold-cache behavior for benchmarking.
"""

from __future__ import annotations

from collections import OrderedDict

BLOCK_KINDS = ("data", "index", "filter")

CacheKey = tuple[int, str, int]


class BlockCache:
    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self._blocks: OrderedDict[CacheKey, object] = OrderedDict()
        # file_id -> {its cached key: that block's charge}, so dropping a
        # file skips other files' blocks
        self._file_keys: dict[int, dict[CacheKey, int]] = {}
        self.resident_bytes = 0
        self.hits = {kind: 0 for kind in BLOCK_KINDS}
        self.misses = {kind: 0 for kind in BLOCK_KINDS}

    def get(self, key: CacheKey):
        block = self._blocks.get(key)
        if block is None:
            self.misses[key[1]] += 1
            return None
        self._blocks.move_to_end(key)
        self.hits[key[1]] += 1
        return block

    def put(self, key: CacheKey, block, nbytes: int) -> None:
        if self.capacity_bytes <= 0 or nbytes > self.capacity_bytes:
            return
        charges = self._file_keys.setdefault(key[0], {})
        self.resident_bytes += nbytes - charges.get(key, 0)
        charges[key] = nbytes
        self._blocks[key] = block
        self._blocks.move_to_end(key)
        while self.resident_bytes > self.capacity_bytes:
            old_key, _evicted = self._blocks.popitem(last=False)
            charges = self._file_keys[old_key[0]]
            self.resident_bytes -= charges.pop(old_key)
            if not charges:
                del self._file_keys[old_key[0]]

    def drop_file(self, file_id: int) -> None:
        """Evict all blocks of a file removed from the manifest."""
        for key, nbytes in self._file_keys.pop(file_id, {}).items():
            del self._blocks[key]
            self.resident_bytes -= nbytes
