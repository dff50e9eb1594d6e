import pytest

from lsmclab.bloom import BloomFilter, _hash_pair, false_positive_rate

from conftest import key


def test_no_false_negatives():
    keys = [key(i) for i in range(0, 2000, 2)]
    filt = BloomFilter.from_keys(keys, 10.0)
    assert all(filt.might_contain(k) for k in keys)
    # a hash pair the caller computed once gives the same answers
    probes = [key(i) for i in range(2000)]
    assert [filt.might_contain(k, _hash_pair(k)) for k in probes] == [
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
