"""Stable hashing and partitioning — includes determinism properties."""

import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.partition import HashPartitioner, hash_partitioner, stable_hash

keys = st.one_of(
    st.text(max_size=30),
    st.integers(-(2**62), 2**62),
    st.binary(max_size=30),
    st.tuples(st.integers(), st.text(max_size=5)),
)


class TestStableHash:
    @given(keys)
    @settings(max_examples=100)
    def test_deterministic_within_process(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    @settings(max_examples=100)
    def test_32bit_range(self, key):
        h = stable_hash(key)
        assert 0 <= h < 2**32

    def test_known_values_stable_across_processes(self):
        # The whole point of stable_hash: identical values in a fresh
        # interpreter (str hashes would be salted differently).
        code = (
            "from repro.mapreduce.partition import stable_hash;"
            "print(stable_hash('user-42'), stable_hash(1234567))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.split()
        assert int(out[0]) == stable_hash("user-42")
        assert int(out[1]) == stable_hash(1234567)

    def test_distinct_types_hash_differently_enough(self):
        # Not a strict requirement, but catches degenerate implementations.
        values = ["a", "b", "c", 1, 2, 3, ("a", 1), b"a"]
        assert len({stable_hash(v) for v in values}) >= 7


#: ``(key, stable_hash(key), [hash_partitioner(key, n) for n in (1, 2, 7, 64)])``
#: recorded from the isinstance-only implementation.  Partition assignment
#: decides which reducer sees a key, so these values are a contract.
GOLDEN = [
    ("", 0, [0, 0, 0, 0]),
    ("user-42", 2097592435, [0, 1, 1, 51]),
    ("naïve café ☕", 1777339548, [0, 0, 5, 28]),
    (0, 3971697493, [0, 1, 1, 21]),
    (-7, 1814212606, [0, 0, 3, 62]),
    (2**100, 3164740810, [0, 0, 0, 10]),
    (-(2**127), 17025141, [0, 1, 0, 53]),
    (True, 1121180356, [0, 0, 2, 4]),
    (False, 3971697493, [0, 1, 1, 21]),
    (b"\x00\xffraw", 4258657195, [0, 1, 2, 43]),
    (("k", 3), 225596770, [0, 0, 0, 34]),
    ((1, (2.5, "x")), 3478199129, [0, 1, 6, 25]),
    (3.14159, 380760387, [0, 1, 0, 3]),
    (None, 2029700232, [0, 0, 0, 8]),
]


class _Str(str):
    pass


class _Int(int):
    pass


class TestGoldenValues:
    @pytest.mark.parametrize("key,expected_hash,expected_parts", GOLDEN)
    def test_stable_hash_and_partitions(self, key, expected_hash, expected_parts):
        assert stable_hash(key) == expected_hash
        assert [hash_partitioner(key, n) for n in (1, 2, 7, 64)] == expected_parts

    def test_subclasses_hash_like_their_base(self):
        assert stable_hash(_Str("user-42")) == 2097592435
        assert stable_hash(_Int(-7)) == 1814212606

    def test_int_beyond_128_bits_rejected(self):
        with pytest.raises(OverflowError):
            stable_hash(2**127)


class TestHashPartitioner:
    @given(keys, st.integers(1, 64))
    @settings(max_examples=100)
    def test_in_range(self, key, n):
        assert 0 <= hash_partitioner(key, n) < n

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            hash_partitioner("k", 0)

    def test_one_partition_accepts_unhashable_keys(self):
        # One partition never hashes, so keys stable_hash rejects are
        # accepted there and fail only once there is a choice to make.
        assert hash_partitioner(2**200, 1) == 0
        assert hash_partitioner(lambda: None, 1) == 0
        with pytest.raises(OverflowError):
            hash_partitioner(2**200, 2)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            hash_partitioner(lambda: None, 2)

    def test_spreads_keys(self):
        n = 8
        counts = [0] * n
        for i in range(4000):
            counts[hash_partitioner(f"key-{i}", n)] += 1
        # Every partition sees a meaningful share (within 2x of fair).
        assert min(counts) > 4000 / n / 2
        assert max(counts) < 4000 / n * 2

    def test_callable_class(self):
        p = HashPartitioner()
        assert p("abc", 10) == hash_partitioner("abc", 10)
