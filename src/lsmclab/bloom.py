"""Per-file Bloom filters with double hashing.

Keys are hashed by multiply-xor mixing of their first 16 bytes (padded)
plus the key length, which vectorizes over numpy arrays so filter builds
stay off the per-entry Python path. The reporting model for the
false-positive rate is the standard ``0.6185 ** bits_per_key`` curve,
which the measured rate of this implementation tracks closely (about
0.8% at 10 bits per key).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable

import numpy as np

_HDR = struct.Struct("<QB")
_WORDS = struct.Struct("<QQ")

_MASK = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_C3 = 0x165667B19E3779F9
_C4 = 0x27D4EB2F165667C5


def false_positive_rate(bits_per_key: float) -> float:
    """Modeled FPR for a filter built with ``bits_per_key`` bits per entry."""
    if bits_per_key < 0:
        raise ValueError("bits_per_key must be >= 0")
    if bits_per_key == 0:
        return 1.0
    return 0.6185**bits_per_key


def _hash_pair(key: bytes) -> tuple[int, int]:
    w0, w1 = _WORDS.unpack(key[:16].ljust(16, b"\x00"))
    n = len(key)
    # the low 64 bits of a xor are the xor of the low 64 bits: mask once
    h1 = (w0 * _C1 ^ w1 * _C2 ^ n * _C3) & _MASK
    h1 = ((h1 ^ (h1 >> 29)) * _C4) & _MASK
    h2 = (w0 * _C3 ^ w1 * _C4 ^ n) & _MASK
    h2 = ((h2 ^ (h2 >> 32)) * _C1) & _MASK
    # odd stride so the probe sequence never collapses
    return h1, h2 | 1


def probe_sequence(hashes: tuple[int, int], k: int) -> list[int]:
    """The ``k`` values ``h1 + i * h2`` (mod 2**64) of a hash pair, each
    the one before plus ``h2``, so a lookup can test every file's filter
    against one list (Kirsch & Mitzenmacher double hashing)."""
    h, step = hashes
    probes = [h]
    for _ in range(k - 1):
        h = (h + step) & _MASK
        probes.append(h)
    return probes


def key_hashes(words: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector twin of _hash_pair: words is (n, 2) little-endian uint64, each
    key's zero-padded first 16 bytes; lengths are the keys' lengths."""
    c1 = np.uint64(_C1)
    c2 = np.uint64(_C2)
    c3 = np.uint64(_C3)
    c4 = np.uint64(_C4)
    w0 = words[:, 0]
    w1 = words[:, 1]
    lengths = lengths.astype(np.uint64, copy=False)
    h1 = (w0 * c1) ^ (w1 * c2) ^ (lengths * c3)
    h1 = (h1 ^ (h1 >> np.uint64(29))) * c4
    h2 = (w0 * c3) ^ (w1 * c4) ^ lengths
    h2 = (h2 ^ (h2 >> np.uint64(32))) * c1
    return h1, h2 | np.uint64(1)


def _positions(h1: np.ndarray, h2: np.ndarray, num_hashes: int, num_bits: int) -> np.ndarray:
    """The (num_hashes, n) bit positions ``(h1 + i * h2) % 2**64 % num_bits``;
    each numpy op runs one long inner loop over the keys. Row i is row
    i - 1 plus ``h2``, as in :func:`probe_sequence`."""
    x = np.empty((num_hashes, len(h1)), dtype=np.uint64)
    x[0] = h1
    for i in range(1, num_hashes):
        np.add(x[i - 1], h2, out=x[i])
    m = np.uint64(num_bits)
    # x % m, as numpy floor-divides uint64 by a scalar about 3x faster
    return x - x // m * m


def _pack_keys(keys: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    raw = b"".join(k[:16].ljust(16, b"\x00") for k in keys)
    words = np.frombuffer(raw, dtype="<u8").reshape(len(keys), 2)
    lengths = np.fromiter((len(k) for k in keys), dtype=np.uint64, count=len(keys))
    return words, lengths


class BloomFilter:
    """Immutable membership filter with no false negatives."""

    __slots__ = ("num_bits", "num_hashes", "_bits")

    def __init__(self, num_bits: int, num_hashes: int, bits: bytes) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bits

    @classmethod
    def from_keys(cls, keys: Iterable[bytes], bits_per_key: float) -> "BloomFilter":
        keys = list(keys)
        if bits_per_key <= 0 or not keys:
            return cls(0, 0, b"")
        return cls._build(key_hashes(*_pack_keys(keys)), bits_per_key)

    @classmethod
    def from_key_words(
        cls, hashes: tuple[np.ndarray, np.ndarray], bits_per_key: float
    ) -> "BloomFilter":
        """Build from the keys' hash pairs, as :func:`key_hashes` computes
        them, so a writer can hash a whole job's keys once."""
        if bits_per_key <= 0 or len(hashes[0]) == 0:
            return cls(0, 0, b"")
        return cls._build(hashes, bits_per_key)

    @classmethod
    def _build(
        cls, hashes: tuple[np.ndarray, np.ndarray], bits_per_key: float
    ) -> "BloomFilter":
        h1, h2 = hashes
        num_bits = max(64, int(math.ceil(len(h1) * bits_per_key)))
        num_bits = (num_bits + 7) // 8 * 8
        num_hashes = max(1, round(bits_per_key * math.log(2)))
        bitarr = np.zeros(num_bits, dtype=np.uint8)
        # positions fit in int64, and numpy indexes with int64 fastest
        bitarr[_positions(h1, h2, num_hashes, num_bits).view(np.int64).ravel()] = 1
        packed = np.packbits(bitarr, bitorder="little").tobytes()
        return cls(num_bits, num_hashes, packed)

    def might_contain(self, key: bytes, probes: list[int] | None = None) -> bool:
        """``probes`` is the key's probe sequence, a list that one lookup
        passes to every filter it tests: an empty or short list is filled
        in place with ``probe_sequence(_hash_pair(key), num_hashes)``, so
        the key is hashed once, and only its first ``num_hashes`` values
        are tested."""
        m = self.num_bits
        if m == 0:
            return True
        k = self.num_hashes
        if probes is None:
            probes = []
        if len(probes) < k:
            probes[:] = probe_sequence(_hash_pair(key), k)
        elif len(probes) > k:
            probes = probes[:k]
        bits = self._bits
        for x in probes:
            pos = x % m
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    @property
    def size_bytes(self) -> int:
        return _HDR.size + len(self._bits)

    def to_bytes(self) -> bytes:
        return _HDR.pack(self.num_bits, self.num_hashes) + self._bits

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        num_bits, num_hashes = _HDR.unpack_from(raw, 0)
        return cls(num_bits, num_hashes, raw[_HDR.size :])
