import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsmclab.bloom import (
    BloomFilter,
    _hash_pair,
    _pack_keys,
    _positions,
    false_positive_rate,
    key_hashes,
    probe_sequence,
)

from conftest import key


def test_no_false_negatives():
    keys = [key(i) for i in range(0, 2000, 2)]
    filt = BloomFilter.from_keys(keys, 10.0)
    assert all(filt.might_contain(k) for k in keys)
    # a probe sequence the caller computed once gives the same answers
    probes = [key(i) for i in range(2000)]
    sequences = [probe_sequence(_hash_pair(k), filt.num_hashes) for k in probes]
    assert [filt.might_contain(k, seq) for k, seq in zip(probes, sequences)] == [
        filt.might_contain(k) for k in probes
    ]


def test_measured_fpr_tracks_model():
    keys = [key(i) for i in range(0, 40000, 2)]
    filt = BloomFilter.from_keys(keys, 10.0)
    probes = [key(i) for i in range(1, 40000, 2)]  # none inserted
    hits = sum(filt.might_contain(k) for k in probes)
    measured = hits / len(probes)
    model = false_positive_rate(10.0)
    assert model == pytest.approx(0.0082, abs=0.0002)
    assert measured == pytest.approx(model, abs=0.006)


def test_fpr_model_edges():
    assert false_positive_rate(0.0) == 1.0
    assert false_positive_rate(5.0) > false_positive_rate(10.0)
    with pytest.raises(ValueError):
        false_positive_rate(-1.0)


def test_zero_bits_always_contains():
    filt = BloomFilter.from_keys([b"a"], 0.0)
    assert filt.might_contain(b"zzz")
    assert filt.size_bytes >= 0


def test_empty_key_set():
    filt = BloomFilter.from_keys([], 10.0)
    assert filt.might_contain(b"anything")


def test_serialization_round_trip():
    keys = [key(i) for i in range(500)]
    filt = BloomFilter.from_keys(keys, 8.0)
    clone = BloomFilter.from_bytes(filt.to_bytes())
    assert clone.num_bits == filt.num_bits
    assert clone.num_hashes == filt.num_hashes
    probes = [key(i) for i in range(1000)]
    assert [clone.might_contain(k) for k in probes] == [
        filt.might_contain(k) for k in probes
    ]


def test_size_scales_with_bits_per_key():
    keys = [key(i) for i in range(1000)]
    small = BloomFilter.from_keys(keys, 4.0)
    large = BloomFilter.from_keys(keys, 16.0)
    assert large.size_bytes > small.size_bytes


MASK = 2**64 - 1
# hash values spread over 64 bits and crowded near 2**64, where the adds wrap
hash_values = st.integers(0, MASK) | st.integers(MASK - 2**20, MASK)


@given(h1=hash_values, h2=hash_values, k=st.integers(1, 24))
@settings(max_examples=300, deadline=None)
def test_probe_sequence_is_double_hashing(h1, h2, k):
    assert probe_sequence((h1, h2), k) == [(h1 + i * h2) & MASK for i in range(k)]


@given(
    pairs=st.lists(st.tuples(hash_values, hash_values), min_size=1, max_size=40),
    num_hashes=st.integers(1, 12),
    num_bits=st.integers(64, 2**20),
)
@settings(max_examples=300, deadline=None)
def test_positions_match_modulo(pairs, num_hashes, num_bits):
    h1 = np.array([a for a, _b in pairs], dtype=np.uint64)
    h2 = np.array([b for _a, b in pairs], dtype=np.uint64)
    got = _positions(h1, h2, num_hashes, num_bits)
    assert got.dtype == np.uint64
    assert got.tolist() == [
        [((a + i * b) & MASK) % num_bits for a, b in pairs] for i in range(num_hashes)
    ]
    steps = np.arange(num_hashes, dtype=np.uint64)[:, None]
    assert (got == (h1 + steps * h2) % np.uint64(num_bits)).all()


def reference_contains(filt, key):
    """The filter test written out: k positions (h1 + i*h2) mod 2**64 mod m."""
    if filt.num_bits == 0:
        return True
    bits = filt.to_bytes()[9:]
    h1, h2 = _hash_pair(key)
    for i in range(filt.num_hashes):
        pos = ((h1 + i * h2) & MASK) % filt.num_bits
        if not bits[pos >> 3] >> (pos & 7) & 1:
            return False
    return True


@given(
    keys=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=60, unique=True),
    others=st.lists(st.binary(min_size=1, max_size=24), max_size=60),
    bits_per_key=st.sampled_from([1.0, 2.0, 4.0, 10.0, 20.0]),
    k=st.integers(1, 16),
)
@settings(max_examples=200, deadline=None)
def test_probe_sequence_agrees_with_hash_pair_path(keys, others, bits_per_key, k):
    filt = BloomFilter.from_keys(keys, bits_per_key)
    h1, h2 = key_hashes(*_pack_keys(keys + others))
    assert [_hash_pair(probe) for probe in keys + others] == list(zip(h1.tolist(), h2.tolist()))
    for probe in keys + others:
        expected = reference_contains(filt, probe)
        assert filt.might_contain(probe) == expected
        # an empty list is filled in place; a sequence of another length is
        # extended in place if short, never truncated, and a long one is
        # tested on its first k values
        empty = []
        assert filt.might_contain(probe, empty) == expected
        assert empty == probe_sequence(_hash_pair(probe), filt.num_hashes)
        seq = probe_sequence(_hash_pair(probe), k)
        assert filt.might_contain(probe, seq) == expected
        assert seq == probe_sequence(_hash_pair(probe), max(k, filt.num_hashes))
    assert all(filt.might_contain(probe) for probe in keys)
