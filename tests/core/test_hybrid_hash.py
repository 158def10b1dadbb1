"""Hybrid hash grouping: correctness under every memory regime."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COLLECT, COUNT, SUM
from repro.core.hybrid_hash import HybridHashGrouper, SpilledState
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters

pair_streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-5, 5)), max_size=300
)


def group_all(pairs, memory_bytes, aggregator=COUNT, **kwargs):
    disk = LocalDisk()
    counters = Counters()
    g = HybridHashGrouper(
        disk, "hh", memory_bytes, aggregator=aggregator, counters=counters, **kwargs
    )
    for k, v in pairs:
        g.add(k, v)
    return dict(g.finish()), disk, counters, g


class TestInMemory:
    def test_counts(self):
        pairs = [("a", 1)] * 5 + [("b", 1)] * 3
        results, disk, counters, g = group_all(pairs, 1 << 20)
        assert results == {"a": 5, "b": 3}
        assert not g.frozen
        assert counters[C.REDUCE_SPILL_BYTES] == 0
        assert disk.list_files() == []

    def test_collect_grouping(self):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        results, *_ = group_all(pairs, 1 << 20, aggregator=COLLECT)
        assert results == {"a": [1, 3], "b": [2]}

    def test_empty(self):
        results, *_ = group_all([], 1 << 20)
        assert results == {}

    def test_finish_twice_raises(self):
        _, _, _, g = group_all([("a", 1)], 1 << 20)
        with pytest.raises(RuntimeError):
            list(g.finish())

    def test_add_after_finish_raises(self):
        _, _, _, g = group_all([("a", 1)], 1 << 20)
        with pytest.raises(RuntimeError):
            g.add("x", 1)


class TestOverflow:
    def test_tiny_memory_still_correct(self):
        pairs = [(f"k{i % 37}", 1) for i in range(2000)]
        results, _, counters, g = group_all(pairs, 2048)
        assert results == dict(Counter(k for k, _ in pairs))
        assert g.frozen
        assert counters[C.REDUCE_SPILL_BYTES] > 0

    def test_resident_keys_keep_aggregating_in_memory(self):
        # The first key to arrive stays resident; later duplicates of it
        # must not be spilled.
        pairs = [("hot", 1)] + [(f"cold{i}", 1) for i in range(500)]
        pairs += [("hot", 1)] * 100
        results, _, _, g = group_all(pairs, 1024)
        assert results["hot"] == 101

    def test_spill_partition_count_respected(self):
        pairs = [(f"k{i}", 1) for i in range(400)]
        disk = LocalDisk()
        g = HybridHashGrouper(disk, "hh", 512, aggregator=COUNT, spill_partitions=4)
        for k, v in pairs:
            g.add(k, v)
        live = [p for p in disk.list_files("hh/") if "l0" in p]
        assert 1 <= len(live) <= 4
        dict(g.finish())

    def test_spill_files_cleaned_after_finish(self):
        pairs = [(f"k{i % 60}", 1) for i in range(600)]
        results, disk, _, _ = group_all(pairs, 1024)
        assert disk.list_files("hh/") == []
        assert len(results) == 60

    def test_eviction_of_linear_states(self):
        # Collect states on a frozen table must eventually be shed to disk.
        pairs = [("big", "x" * 100) for _ in range(200)]
        pairs += [(f"other{i}", "y") for i in range(50)]
        pairs += [("big", "x" * 100) for _ in range(200)]
        results, _, _, _ = group_all(pairs, 4096, aggregator=COLLECT)
        assert len(results["big"]) == 400

    def test_single_key_partition_is_not_respilled(self):
        # One key whose state alone exceeds the budget cannot be split by
        # rehashing; its partition must be finished at the first level
        # where it is alone instead of re-spilled down to max_levels.
        pairs = [(f"light{i % 20}", i) for i in range(100)]
        pairs += [("heavy", i) for i in range(2000)]
        pairs += [(f"light{i % 20}", -i) for i in range(100)]
        unbudgeted, *_ = group_all(pairs, 1 << 30, aggregator=COLLECT)
        spills = set()
        for max_levels in (16, 24):
            results, disk, counters, _ = group_all(
                pairs, 1024, aggregator=COLLECT, max_levels=max_levels
            )
            assert results == unbudgeted
            assert disk.list_files("hh/") == []
            # Re-spilling "heavy" at every level would alone cost
            # max_levels - 1 spills.
            assert counters[C.REDUCE_SPILLS] < max_levels - 1
            spills.add(counters[C.REDUCE_SPILLS])
        assert len(spills) == 1  # the recursion depth no longer matters

    def test_spilled_state_roundtrip(self):
        inner = COUNT.initial()
        inner.update(None)
        wrapper = SpilledState(inner)
        assert wrapper.state.result() == 1

    @given(pair_streams, st.sampled_from([256, 1024, 16384, 1 << 20]))
    @settings(max_examples=40, deadline=None)
    def test_property_counts_match_reference(self, pairs, memory):
        results, *_ = group_all(pairs, memory)
        assert results == dict(Counter(k for k, _ in pairs))

    @given(pair_streams, st.sampled_from([512, 8192]))
    @settings(max_examples=25, deadline=None)
    def test_property_sums_match_reference(self, pairs, memory):
        results, *_ = group_all(pairs, memory, aggregator=SUM)
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert results == expected


class TestValidation:
    def test_bad_memory(self):
        with pytest.raises(ValueError):
            HybridHashGrouper(LocalDisk(), "x", 0)

    def test_bad_partitions(self):
        with pytest.raises(ValueError):
            HybridHashGrouper(LocalDisk(), "x", 100, spill_partitions=1)

    def test_max_levels_fallback(self):
        # With max_levels=1 the overflow path must finish without recursion.
        disk = LocalDisk()
        g = HybridHashGrouper(disk, "hh", 512, aggregator=COUNT, max_levels=1)
        for i in range(300):
            g.add(f"k{i % 23}", 1)
        results = dict(g.finish())
        assert results == {f"k{i}": 300 // 23 + (1 if i < 300 % 23 else 0) for i in range(23)}
