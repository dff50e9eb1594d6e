"""Shared fixtures: a small tree geometry so flushes and compactions
happen within a few hundred operations."""

from __future__ import annotations

import pytest

from lsmclab import TreeConfig


def small_config(**overrides) -> TreeConfig:
    """16 entries per buffer, 4 per page, 4 pages per file."""
    kwargs = dict(
        size_ratio=4,
        buffer_bytes=1024,
        page_bytes=256,
        entry_bytes=64,
        bits_per_key=10.0,
        block_cache_bytes=64 * 1024,
    )
    kwargs.update(overrides)
    return TreeConfig(**kwargs)


@pytest.fixture
def cfg() -> TreeConfig:
    return small_config()


def key(i: int, width: int = 8) -> bytes:
    return b"%0*d" % (width, i)


def value(i: int, size: int = 20) -> bytes:
    return (b"v%d" % i).ljust(size, b".")


# Keys of 1-24 bytes in byte order: prefix pairs that differ only by a
# trailing zero byte or one more byte, and keys longer than 8 and 16 bytes.
MIXED_KEYS = (
    b"a",
    b"a\x00",
    b"ab",
    b"abcdefgh",
    b"abcdefgh\x00",
    b"abcdefghi",
    b"k" * 16,
    b"k" * 16 + b"\x00",
    b"k" * 17,
    b"z" * 24,
)
