"""Map-side scan partitioning and hash combining."""

from collections import Counter

import pytest

from repro.core.aggregates import COUNT, SUM
from repro.core.hash_tables import AccountedStateTable
from repro.core.hybrid_hash import SpilledState
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import hash_partitioner


class Sink:
    def __init__(self):
        self.chunks: list[tuple[int, list, int]] = []

    def __call__(self, partition, pairs, nbytes):
        self.chunks.append((partition, list(pairs), nbytes))

    def pairs_for(self, partition):
        return [p for part, pairs, _ in self.chunks if part == partition for p in pairs]

    def all_pairs(self):
        return [p for _, pairs, _ in self.chunks for p in pairs]


class TestScanPartitionBuffer:
    def test_all_pairs_delivered_once(self):
        sink = Sink()
        buf = ScanPartitionBuffer(3, sink, buffer_bytes=256)
        pairs = [(f"k{i}", i) for i in range(100)]
        for k, v in pairs:
            buf.add(k, v)
        buf.finish()
        assert sorted(sink.all_pairs()) == sorted(pairs)

    def test_partitioning_consistent_per_key(self):
        sink = Sink()
        buf = ScanPartitionBuffer(4, sink, buffer_bytes=128)
        for i in range(200):
            buf.add(f"k{i % 10}", i)
        buf.finish()
        seen: dict[str, int] = {}
        for partition, pairs, _ in sink.chunks:
            for k, _v in pairs:
                assert seen.setdefault(k, partition) == partition

    def test_no_grouping_no_ordering(self):
        # Scan-only: pairs arrive downstream in arrival order per partition.
        sink = Sink()
        buf = ScanPartitionBuffer(1, sink, buffer_bytes=1 << 20)
        buf.add("b", 1)
        buf.add("a", 2)
        buf.add("b", 3)
        buf.finish()
        assert sink.pairs_for(0) == [("b", 1), ("a", 2), ("b", 3)]

    def test_flush_at_buffer_boundary(self):
        sink = Sink()
        buf = ScanPartitionBuffer(1, sink, buffer_bytes=200)
        for i in range(50):
            buf.add("k", "x" * 20)
        assert len(sink.chunks) > 1  # flushed before finish

    def test_counters(self):
        counters = Counters()
        buf = ScanPartitionBuffer(2, Sink(), counters=counters)
        for i in range(10):
            buf.add(i, i)
        assert counters[C.MAP_OUTPUT_RECORDS] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanPartitionBuffer(0, Sink())


class TestMapSideHashCombiner:
    def unwrap(self, pairs):
        return {k: v.state.result() for k, v in pairs}

    def test_emits_partial_states(self):
        sink = Sink()
        comb = MapSideHashCombiner(2, COUNT, sink, memory_bytes=1 << 20)
        for key in "aabbbc":
            comb.add(key, 1)
        comb.finish()
        merged: Counter = Counter()
        for _, pairs, _ in sink.chunks:
            for k, v in pairs:
                assert isinstance(v, SpilledState)
                merged[k] += v.state.result()
        assert merged == Counter("aabbbc")

    def test_combining_shrinks_records(self):
        sink = Sink()
        comb = MapSideHashCombiner(1, COUNT, sink, memory_bytes=1 << 20)
        for _ in range(1000):
            comb.add("same", 1)
        comb.finish()
        assert len(sink.all_pairs()) == 1

    def test_memory_pressure_flushes(self):
        sink = Sink()
        comb = MapSideHashCombiner(1, SUM, sink, memory_bytes=4096)
        for i in range(2000):
            comb.add(f"key-{i}", 1)
        assert comb.flushes >= 1
        comb.finish()
        total = sum(v.state.result() for _, pairs, _ in sink.chunks for _k, v in pairs)
        assert total == 2000

    def test_partial_sums_recombine_exactly(self):
        sink = Sink()
        comb = MapSideHashCombiner(3, SUM, sink, memory_bytes=2048)
        expected: dict[str, int] = {}
        for i in range(3000):
            key, value = f"k{i % 40}", i % 5
            comb.add(key, value)
            expected[key] = expected.get(key, 0) + value
        comb.finish()
        merged: dict[str, int] = {}
        for _, pairs, _ in sink.chunks:
            for k, v in pairs:
                merged[k] = merged.get(k, 0) + v.state.result()
        assert merged == expected

    def test_flushes_on_the_same_pairs_as_a_full_sum(self):
        pairs = [(f"k{i % 97}", i) for i in range(3000)]
        # A budget the tables reach exactly after the 50th pair: the flush
        # must land on that pair, not one later.
        _, memory = _summing_combiner(pairs[:50], 5, 1 << 30)
        comb = MapSideHashCombiner(5, SUM, Sink(), memory_bytes=memory)
        flushed_after = []
        for i, (key, value) in enumerate(pairs):
            before = comb.flushes
            comb.add(key, value)
            if comb.flushes != before:
                flushed_after.append(i)
        assert flushed_after[0] == 49
        assert flushed_after == _summing_combiner(pairs, 5, memory)[0]

    @pytest.mark.parametrize("batch", [False, True])
    def test_counts_map_output_records(self, batch):
        counters = Counters()
        comb = MapSideHashCombiner(3, SUM, Sink(), memory_bytes=2048, counters=counters)
        pairs = [(f"k{i % 40}", 1) for i in range(500)]
        if batch:
            comb.add_batch(pairs)
        else:
            for key, value in pairs:
                comb.add(key, value)
        comb.finish()
        assert comb.flushes > 1
        assert counters[C.MAP_OUTPUT_RECORDS] == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            MapSideHashCombiner(0, COUNT, Sink())
        with pytest.raises(ValueError):
            MapSideHashCombiner(1, COUNT, Sink(), memory_bytes=0)


def _summing_combiner(pairs, num_partitions, memory):
    """Replay a combiner that sums every partition's table after each pair.

    Returns the indices of the pairs it flushed after and the tables'
    total after the last pair.
    """
    tables = [AccountedStateTable(SUM) for _ in range(num_partitions)]
    points = []
    for i, (key, value) in enumerate(pairs):
        tables[hash_partitioner(key, num_partitions)].update(key, value)
        if sum(t.used_bytes for t in tables) >= memory:
            points.append(i)
            for table in tables:
                table.clear()
    return points, sum(t.used_bytes for t in tables)
