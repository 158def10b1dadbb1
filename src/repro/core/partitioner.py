"""Map-side output handling without sorting.

The paper's map module offers two options to replace Hadoop's sort:

1. **Scan-only partitioning** (no combine function): "the map output is
   scanned once for partitioning, and no effort is spent for grouping."
   :class:`ScanPartitionBuffer` appends each pair to its reducer's buffer
   and pushes a chunk downstream when the buffer fills.
2. **Map-side hybrid hash** (combine function present): pairs aggregate
   into per-partition in-memory hash tables ("in most cases the map output
   fits in memory so Hybrid Hash is simply in-memory hashing"); when the
   task's memory budget fills, each table's partial *states* are flushed
   downstream and the tables reset.  Downstream consumers fold the states
   via ``AggregateState.merge``.

Neither option ever compares keys for order — the CPU the baseline spends
in Table II's "Sorting" row simply does not exist on this path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.aggregates import Aggregator
from repro.core.hash_tables import AccountedStateTable
from repro.core.hybrid_hash import SpilledState
from repro.io.serialization import estimate_size
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import Partitioner, hash_partitioner

__all__ = ["ScanPartitionBuffer", "MapSideHashCombiner"]

#: Called with (partition, pairs, approx_bytes) whenever a chunk is ready.
ChunkSink = Callable[[int, list[tuple[Any, Any]], int], None]

_PAIR_OVERHEAD = 32


class ScanPartitionBuffer:
    """Option 1: partition map output in one scan, no grouping, no sort."""

    def __init__(
        self,
        num_partitions: int,
        sink: ChunkSink,
        *,
        buffer_bytes: int = 4 * 1024 * 1024,
        partitioner: Partitioner = hash_partitioner,
        counters: Counters | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.sink = sink
        self.buffer_bytes = buffer_bytes
        self.partitioner = partitioner
        self.counters = counters if counters is not None else Counters()
        self._buffers: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._bytes = [0] * num_partitions

    def add(self, key: Any, value: Any) -> None:
        partition = self.partitioner(key, self.num_partitions)
        self._buffers[partition].append((key, value))
        self._bytes[partition] += (
            estimate_size(key) + estimate_size(value) + _PAIR_OVERHEAD
        )
        self.counters.inc(C.MAP_OUTPUT_RECORDS)
        if self._bytes[partition] >= self.buffer_bytes:
            self._flush(partition)

    def add_batch(self, pairs: list[tuple[Any, Any]]) -> None:
        """Partition many pairs; identical chunks to per-pair :meth:`add`.

        The flush threshold is still checked after every pair, so chunk
        boundaries (and hence pushed-chunk contents) match the tuple path
        exactly — only the per-pair attribute lookups are hoisted.
        """
        partitioner = self.partitioner
        num_partitions = self.num_partitions
        buffers = self._buffers
        sizes = self._bytes
        budget = self.buffer_bytes
        flush = self._flush
        n = 0
        for key, value in pairs:
            n += 1
            partition = partitioner(key, num_partitions)
            buffers[partition].append((key, value))
            sizes[partition] += (
                estimate_size(key) + estimate_size(value) + _PAIR_OVERHEAD
            )
            if sizes[partition] >= budget:
                flush(partition)
        self.counters.inc(C.MAP_OUTPUT_RECORDS, n)

    def _flush(self, partition: int) -> None:
        pairs = self._buffers[partition]
        if not pairs:
            return
        nbytes = self._bytes[partition]
        self._buffers[partition] = []
        self._bytes[partition] = 0
        self.sink(partition, pairs, nbytes)

    def finish(self) -> None:
        for partition in range(self.num_partitions):
            self._flush(partition)


class MapSideHashCombiner:
    """Option 2: per-partition in-memory hash aggregation (Hybrid Hash).

    The flush unit is the whole task (all partitions) because the memory
    budget is shared; each flush emits ``(key, SpilledState)`` pairs that
    the reducer merges, so the algebra works for any aggregator.
    """

    def __init__(
        self,
        num_partitions: int,
        aggregator: Aggregator,
        sink: ChunkSink,
        *,
        memory_bytes: int = 8 * 1024 * 1024,
        partitioner: Partitioner = hash_partitioner,
        counters: Counters | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        self.num_partitions = num_partitions
        self.aggregator = aggregator
        self.sink = sink
        self.memory_bytes = memory_bytes
        self.partitioner = partitioner
        self.counters = counters if counters is not None else Counters()
        self._tables = [AccountedStateTable(aggregator) for _ in range(num_partitions)]
        # Running total of every table's ``used_bytes``, kept by the delta
        # of the one table each pair touches.
        self._used = 0
        # Pairs added since the last flush, counted into the counters there.
        self._pending = 0
        self.flushes = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def add(self, key: Any, value: Any) -> None:
        partition = self.partitioner(key, self.num_partitions)
        table = self._tables[partition]
        before = table.used_bytes
        table.update(key, value)
        self._pending += 1
        self._used += table.used_bytes - before
        if self._used >= self.memory_bytes:
            self.flush()

    def add_batch(self, pairs: list[tuple[Any, Any]]) -> None:
        """Aggregate many pairs; identical flushes to per-pair :meth:`add`.

        The shared-budget check still runs after every pair (a flush must
        trigger at the same pair as the tuple path); the win is hoisting
        the partitioner and table lookups out of the dispatch.
        """
        partitioner = self.partitioner
        num_partitions = self.num_partitions
        tables = self._tables
        memory = self.memory_bytes
        self._pending += len(pairs)
        for key, value in pairs:
            table = tables[partitioner(key, num_partitions)]
            before = table.used_bytes
            table.update(key, value)
            self._used += table.used_bytes - before
            if self._used >= memory:
                self.flush()

    def flush(self) -> None:
        """Emit every partition's partial states downstream and reset."""
        if self._pending:
            self.counters.inc(C.MAP_OUTPUT_RECORDS, self._pending)
            self._pending = 0
        self._used = 0
        any_emitted = False
        for partition, table in enumerate(self._tables):
            if len(table) == 0:
                continue
            pairs = [
                (key, SpilledState(state)) for key, state in table.items()
            ]
            nbytes = table.used_bytes
            table.clear()
            self.sink(partition, pairs, nbytes)
            self.counters.inc(C.COMBINE_OUTPUT_RECORDS, len(pairs))
            any_emitted = True
        if any_emitted:
            self.flushes += 1

    def finish(self) -> None:
        self.flush()


def iter_states(pairs: list[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
    """Unwrap ``SpilledState`` values for callers that want raw results."""
    for key, value in pairs:
        yield key, value.state.result() if isinstance(value, SpilledState) else value
