"""The one-pass analytics engine — the platform sketched in §V of the paper.

The engine keeps the MapReduce programming model but replaces every
sort-merge component with hash-based ones:

* map side: scan-only partitioning, or in-memory hash aggregation when the
  job has a combiner algebra (an :class:`~repro.core.aggregates.Aggregator`);
* shuffle: push-based — mappers deliver chunks to reducers as they are
  produced (Table III's "Push / Pull" row);
* reduce side, by :attr:`OnePassConfig.mode`:

  - ``"hybrid"``       — hybrid hash grouping (blocking; baseline),
  - ``"incremental"``  — per-key states updated on arrival, early emission,
  - ``"hotset"``       — incremental + Space-Saving hot-key cache when
    memory is smaller than the total state size.

Jobs with no aggregator (holistic reduces such as sessionization) run the
grouping path: hybrid hash collects each key's values without ever sorting,
then the reduce function is applied per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.core.aggregates import COLLECT, Aggregator
from repro.core.hotset import ApproximateResult, HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper
from repro.core.incremental import EmitPolicy, IncrementalHash
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer
from repro.io.disk import LocalDisk
from repro.mapreduce.api import ReduceFn
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.driver import JobDriver, JobResult, JobRun
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.journal import K_CHECKPOINT
from repro.mapreduce.recovery import CheckpointStore, PartitionLog, SpeculationPolicy
from repro.mapreduce.runtime import LocalCluster
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = [
    "OnePassConfig",
    "OnePassJob",
    "OnePassReduceTask",
    "OnePassEngine",
    "execute_onepass_map",
]

FinalizeFn = Callable[[Any, Any], Iterable[Any]]

_MODES = ("hybrid", "incremental", "hotset")


@dataclass(slots=True)
class OnePassConfig:
    """Tuning knobs of the one-pass engine."""

    num_reducers: int = 2
    map_buffer_bytes: int = 2 * 1024 * 1024
    map_memory_bytes: int = 8 * 1024 * 1024
    reduce_memory_bytes: int = 64 * 1024 * 1024
    mode: str = "incremental"
    hotset_capacity: int = 1024
    spill_partitions: int = 8
    map_side_combine: bool = True
    #: Batch kernel path: map output and pushed chunks are folded through
    #: the hoisted ``add_batch``/``update_batch`` loops (see
    #: docs/PERFORMANCE.md).  Byte-identical output; CPU cost only.
    batch: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hotset_capacity < 1:
            raise ValueError("hotset_capacity must be >= 1")
        for name in ("map_buffer_bytes", "map_memory_bytes", "reduce_memory_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(slots=True)
class OnePassJob:
    """A job for the one-pass engine.

    Exactly one of two shapes:

    * **aggregate job** — ``aggregator`` set: the reduce is the aggregate's
      algebra; ``finalize(key, result)`` (default: yield ``(key, result)``)
      shapes output records.  Supports incremental/hotset modes and early
      emission via ``emit_policy``.
    * **grouping job** — ``reduce_fn`` set: each key's collected values are
      passed to the reduce function, as in classic MapReduce.  Runs on the
      (blocking) hybrid-hash path; no sorting anywhere.
    """

    name: str
    map_fn: Callable[[Any], Iterable[tuple[Any, Any]]]
    aggregator: Aggregator | None = None
    reduce_fn: ReduceFn | None = None
    finalize: FinalizeFn | None = None
    emit_policy: EmitPolicy | None = None
    config: OnePassConfig = field(default_factory=OnePassConfig)
    input_path: str = ""
    output_path: str = ""

    def __post_init__(self) -> None:
        if (self.aggregator is None) == (self.reduce_fn is None):
            raise ValueError("set exactly one of aggregator / reduce_fn")
        if self.reduce_fn is not None and self.config.mode != "hybrid":
            # Holistic jobs cannot run incrementally; fall back silently is
            # worse than being explicit.
            raise ValueError(
                "grouping jobs (reduce_fn) require mode='hybrid'; "
                f"got mode={self.config.mode!r}"
            )
        if self.emit_policy is not None and self.aggregator is None:
            raise ValueError("emit_policy requires an aggregator")

    @property
    def is_aggregate(self) -> bool:
        return self.aggregator is not None


class OnePassReduceTask:
    """One reduce partition's hash backend, fed by pushed chunks."""

    def __init__(
        self,
        job: OnePassJob,
        partition: int,
        node: str,
        disk: LocalDisk,
        *,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.job = job
        self.partition = partition
        self.node = node
        self.disk = disk
        self.counters = Counters()
        self.tracer = tracer
        self._task = f"reduce:{partition:03d}"
        #: Chunks 1..restored_through are already covered by a restored
        #: journal checkpoint; :meth:`accept` drops them on re-delivery.
        self.restored_through = 0
        self._chunks_seen = 0
        cfg = job.config
        namespace = f"onepass/{partition:03d}"
        self._incremental: IncrementalHash | None = None
        self._hotset: HotSetIncrementalHash | None = None
        self._grouper: HybridHashGrouper | None = None
        if job.is_aggregate and cfg.mode == "incremental":
            self._incremental = IncrementalHash(
                job.aggregator,
                memory_bytes=cfg.reduce_memory_bytes,
                disk=disk,
                namespace=namespace,
                emit_policy=job.emit_policy,
                counters=self.counters,
            )
        elif job.is_aggregate and cfg.mode == "hotset":
            self._hotset = HotSetIncrementalHash(
                job.aggregator,
                disk,
                namespace,
                capacity=cfg.hotset_capacity,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )
        else:
            self._grouper = HybridHashGrouper(
                disk,
                namespace,
                cfg.reduce_memory_bytes,
                aggregator=job.aggregator or COLLECT,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )

    # -- ingestion (push target) ----------------------------------------------

    def accept(self, pairs: list[tuple[Any, Any]], nbytes: int) -> bool:
        """Absorb one pushed chunk; False when a restored checkpoint covers it."""
        self._chunks_seen += 1
        if self._chunks_seen <= self.restored_through:
            return False
        counters = self.counters
        counters.inc(C.SHUFFLE_BYTES, nbytes)
        counters.inc(C.REDUCE_INPUT_RECORDS, len(pairs))
        trc = self.tracer
        backend = self._incremental or self._hotset or self._grouper
        spill0 = backend.spilled_records if trc.enabled else 0
        perf = time.perf_counter
        t0 = perf()
        batch = self.job.config.batch
        if self._incremental is not None:
            if batch:
                self._incremental.update_batch(pairs)
            else:
                update = self._incremental.update
                for key, value in pairs:
                    update(key, value)
        elif self._hotset is not None:
            # Tuple fallback: hot-set cache admission/eviction decisions are
            # inherently per-pair, so there is no batch variant to take.
            update = self._hotset.update
            for key, value in pairs:
                update(key, value)
        else:
            assert self._grouper is not None
            if batch:
                self._grouper.add_batch(pairs)
            else:
                add = self._grouper.add
                for key, value in pairs:
                    add(key, value)
        counters.inc(C.T_HASH, perf() - t0)
        if trc.enabled:
            # Spill bytes settle only when writers close, so the live
            # observable is the backends' spilled-pair count.
            spilled = backend.spilled_records - spill0
            if spilled > 0:
                # The hash backend spilled pairs to disk while absorbing
                # this chunk — surface it as a spill span so hash-table
                # spills line up with sort-merge ones.
                c0 = trc.clock
                trc.event(
                    "hash.spill", "spill", node=self.node, task=self._task
                )
                trc.add_span(
                    "spill",
                    "spill",
                    c0,
                    c0 + spilled,
                    node=self.node,
                    task=self._task,
                    records=spilled,
                )
        return True

    # -- early answers -----------------------------------------------------------

    @property
    def early_emitted(self) -> list[tuple[Any, Any]]:
        if self._incremental is not None:
            return self._incremental.early_emitted
        return []

    def approximate_results(self) -> list[ApproximateResult]:
        if self._hotset is not None:
            return list(self._hotset.approximate_results())
        return []

    # -- finish ---------------------------------------------------------------------

    def finish(self) -> list[Any]:
        """Drain the backend and produce this partition's output records."""
        counters = self.counters
        counters.inc(C.REDUCE_TASKS)
        job = self.job
        output: list[Any] = []
        groups = 0
        backend = self._incremental or self._hotset
        if backend is not None:
            self.tracer.metrics.gauge("hash.resident.keys").record(
                self.tracer.clock, backend.resident_keys
            )
        with self.tracer.span(
            "reduce", "reduce", node=self.node, task=self._task
        ) as reduce_span:
            if job.is_aggregate:
                finalize = job.finalize or _default_finalize
                for key, result in self._aggregate_results():
                    groups += 1
                    output.extend(finalize(key, result))
            else:
                assert self._grouper is not None and job.reduce_fn is not None
                perf = time.perf_counter
                t_reduce = 0.0
                for key, values in self._grouper.finish():
                    groups += 1
                    t0 = perf()
                    output.extend(job.reduce_fn(key, iter(values)))
                    t_reduce += perf() - t0
                counters.inc(C.T_REDUCE_FN, t_reduce)
            reduce_span.set_cost(max(1, groups))
            reduce_span.set(groups=groups, out_records=len(output))
        counters.inc(C.REDUCE_INPUT_GROUPS, groups)
        counters.inc(C.REDUCE_OUTPUT_RECORDS, len(output))
        return output

    def _aggregate_results(self) -> Iterator[tuple[Any, Any]]:
        if self._incremental is not None:
            return self._incremental.results()
        if self._hotset is not None:
            return self._hotset.results()
        assert self._grouper is not None
        return self._grouper.finish()

    # -- checkpointing --------------------------------------------------------------

    def checkpoint_payload(self) -> bytes | None:
        """Snapshot the reduce state, if this backend supports it.

        Only the incremental-hash backend is checkpointable (its state is
        one in-memory table); hotset and hybrid-hash backends return
        ``None`` and recover by full log replay instead.
        """
        if self._incremental is None:
            return None
        return self._incremental.checkpoint_payload()

    def restore_payload(self, payload: bytes) -> None:
        """Load a checkpoint produced by :meth:`checkpoint_payload`."""
        assert self._incremental is not None
        self._incremental.restore_payload(payload)


def _default_finalize(key: Any, result: Any) -> Iterable[Any]:
    yield (key, result)


def execute_onepass_map(
    job: OnePassJob,
    codec: Any,
    data: bytes,
    sink: Callable[[int, list[tuple[Any, Any]], int], None],
    *,
    tracer: Any = NULL_TRACER,
    task_id: int = 0,
    node: str = "",
) -> Counters:
    """One map task's pure body: decode, map, partition/combine into ``sink``.

    This is the worker-side half of the one-pass map task (the
    ``onepass_map`` kernel): no disk or HDFS access, no engine state — its
    only effect is the ordered stream of chunks pushed through ``sink``.
    Returns the task's counters for the coordinator to merge.
    """
    from repro.exec.kernels import timed_decode

    cfg = job.config
    task_counters = Counters()
    task_counters.inc(C.MAP_TASKS)
    records = timed_decode(codec, data, task_counters)
    task_counters.inc(C.MAP_INPUT_BYTES, len(data))

    if job.is_aggregate and cfg.map_side_combine:
        buffer: Any = MapSideHashCombiner(
            cfg.num_reducers,
            job.aggregator,
            sink,
            memory_bytes=cfg.map_memory_bytes,
            counters=task_counters,
        )
    else:
        buffer = ScanPartitionBuffer(
            cfg.num_reducers,
            sink,
            buffer_bytes=cfg.map_buffer_bytes,
            counters=task_counters,
        )

    map_fn = job.map_fn
    perf = time.perf_counter
    t_map_fn = 0.0
    t_hash = 0.0
    n_in = 0
    use_batch = cfg.batch
    with tracer.span(
        "map", "map", node=node, task=f"map:{task_id:05d}"
    ) as map_span:
        for record in records:
            n_in += 1
            t0 = perf()
            emitted = list(map_fn(record))
            t1 = perf()
            if use_batch:
                buffer.add_batch(emitted)
            else:
                for key, value in emitted:
                    buffer.add(key, value)
            t_hash += perf() - t1
            t_map_fn += t1 - t0
        t0 = perf()
        buffer.finish()
        t_hash += perf() - t0
        map_span.set_cost(max(1, n_in))
        map_span.set(records=n_in, bytes=len(data))
    task_counters.inc(C.MAP_INPUT_RECORDS, n_in)
    task_counters.inc(C.T_MAP_FN, t_map_fn)
    task_counters.inc(C.T_HASH, t_hash)
    return task_counters


class OnePassEngine(JobDriver):
    """Runs :class:`OnePassJob` programs over a :class:`LocalCluster`.

    With a ``fault_plan``, map output is *staged* per task and delivered to
    reducers only when the task completes; a killed attempt's staged chunks
    are discarded and the task re-runs on another node.  This is the
    fault-tolerance overhead the paper alludes to when it excludes infinite
    streams: push-based pipelining and recoverability pull in opposite
    directions, and recovery costs one task's worth of buffering latency.

    Because pushed output never stays at the mappers, reduce-side recovery
    needs its own durability: with a fault plan, every delivered chunk is
    also appended to a 2-way replicated :class:`PartitionLog` (real,
    accounted disk I/O — the overhead ``bench_fault_overhead`` measures).
    A lost reduce task — killed attempt or node crash — is rebuilt by
    replaying its partition's log in delivery order, which reproduces the
    exact pre-failure state (and output byte-for-byte).  With
    ``checkpoint_interval > 0`` the incremental-hash state is additionally
    snapshotted into a :class:`CheckpointStore` every that-many chunks, so
    recovery restores the newest checkpoint and replays only the log
    suffix past it.
    """

    name = "onepass"
    map_kernel = "onepass_map"

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        checkpoint_interval: int = 0,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        super().__init__(
            cluster,
            map_slots=map_slots,
            fault_plan=fault_plan,
            speculation=speculation,
            executor=executor,
            tracer=tracer,
            journal=journal,
        )
        self.checkpoint_interval = checkpoint_interval

    def run(self, job: OnePassJob) -> JobResult:
        """Execute ``job``; returns the merged counters and output path."""
        return self._drive(job)

    def _new_reducer(self, r: JobRun, partition: int, node: str) -> OnePassReduceTask:
        disk = self.cluster.nodes[node].intermediate_disk
        return OnePassReduceTask(r.job, partition, node, disk, tracer=self.tracer)

    def _setup(self, r: JobRun) -> None:
        for partition in sorted(r.checkpoints):
            # Restore journaled reduce state so only the post-checkpoint
            # suffix of re-delivered chunks is absorbed.  Only the
            # incremental backend is checkpointable; committed partitions
            # never run at all.
            rtask = r.reduce_tasks[partition]
            if partition in r.committed or rtask.checkpoint_payload() is None:
                continue
            seq, payload = r.checkpoints[partition]
            rtask.restore_payload(payload)
            rtask.restored_through = seq
            r.counters.inc(C.CHECKPOINT_RESTORES)
            self.tracer.event(
                "checkpoint.restored",
                "recovery",
                node=rtask.node,
                task=f"reduce:{partition:03d}",
                seq=seq,
            )
        r.logs, r.checkpoint_stores = self._replicated(r, PartitionLog, CheckpointStore)
        r.since_checkpoint = dict.fromkeys(r.logs, 0)

    def _map_spec(self, r: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import OnePassMapSpec

        return OnePassMapSpec(task_id, node, data)

    def _deliver(self, r: JobRun, task_id: int, node: str, res: Any) -> int:
        for partition, pairs, nbytes in res.staged:
            if self.fault_plan is not None:
                # Held back until the attempt survived; a killed attempt's
                # staged output never reaches the reducers.
                r.counters.inc(C.STAGED_OUTPUT_BYTES, nbytes)
            self._push(r, partition, pairs, nbytes, task_id)
        return sum(nbytes for _, _, nbytes in res.staged)

    def _push(
        self, r: JobRun, partition: int, pairs: list[tuple[Any, Any]], nbytes: int, map_task: int
    ) -> None:
        """Deliver one chunk to its reducer: log it, absorb it, checkpoint."""
        if partition in r.committed:
            return  # journaled output; the reducer never runs
        r.network_bytes += nbytes
        rtask = r.reduce_tasks[partition]
        self.tracer.metrics.histogram("push.chunk.bytes").observe(nbytes)
        with self.tracer.span(
            "push",
            "shuffle",
            node=rtask.node,
            task=f"reduce:{partition:03d}",
            cost=byte_cost(nbytes),
            bytes=nbytes,
            records=len(pairs),
            map_task=map_task,
        ):
            if partition in r.logs:
                r.logs[partition].append(pairs, nbytes)
            absorbed = rtask.accept(pairs, nbytes)
        if absorbed and self.checkpoint_interval and partition in r.since_checkpoint:
            r.since_checkpoint[partition] += 1
            if r.since_checkpoint[partition] >= self.checkpoint_interval:
                if self._save_checkpoint(
                    rtask, r.logs[partition], r.checkpoint_stores[partition]
                ):
                    r.since_checkpoint[partition] = 0

    def _save_checkpoint(
        self,
        rtask: OnePassReduceTask,
        log: PartitionLog,
        store: CheckpointStore,
    ) -> bool:
        payload = rtask.checkpoint_payload()
        if payload is None:
            return False
        store.save(log.last_seq, payload)
        self.journal.append(
            K_CHECKPOINT, partition=rtask.partition, seq=log.last_seq, payload=payload
        )
        self.tracer.event(
            "checkpoint.saved",
            "checkpoint",
            node=rtask.node,
            task=f"reduce:{rtask.partition:03d}",
            seq=log.last_seq,
            bytes=len(payload),
        )
        return True

    def _rebuild_reducer(self, r: JobRun, partition: int, node: str) -> OnePassReduceTask:
        """Reconstruct a lost reduce task on ``node``.

        Restores the newest surviving checkpoint (if any) and replays the
        delivery log past it, in sequence order — which reproduces the
        exact pre-failure state, early emissions included.  Without a
        checkpoint the whole log replays.
        """
        self.cluster.nodes[node].intermediate_disk.delete_prefix(f"onepass/{partition:03d}")
        rtask = self._new_reducer(r, partition, node)
        after_seq = 0
        checkpoint = r.checkpoint_stores[partition].latest()
        if checkpoint is not None:
            after_seq, payload = checkpoint
            rtask.restore_payload(payload)
            r.counters.inc(C.CHECKPOINT_RESTORES)
            self.tracer.event(
                "checkpoint.restored",
                "recovery",
                node=node,
                task=f"reduce:{partition:03d}",
                seq=after_seq,
            )
        self._replay(r, r.logs[partition], rtask, rtask.accept, after_seq)
        return rtask

    def _reduce(self, r: JobRun, partition: int, first: Any) -> list[Any]:
        rtask = r.reduce_tasks[partition]
        approx = rtask.approximate_results()
        output = rtask.finish()
        r.reduce_extras[partition] = (approx, list(rtask.early_emitted))
        return output

    def _extras(self, r: JobRun) -> dict[str, Any]:
        parts = [r.reduce_extras[p] for p in sorted(r.reduce_extras)]
        return {
            "early_emitted": [e for _, early in parts for e in early],
            "approximate_results": [a for approx, _ in parts for a in approx],
            "mode": r.job.config.mode,
        }
