"""The job driver: the one phase pipeline behind all three engines.

The paper's three execution models — Hadoop's sort-merge, HOP's
pipelining and the hash-based one-pass platform — differ in how map
output is partitioned, moved and grouped, not in the job around it:
splits and locality scheduling, map waves, crash recovery, the reduce
phase and the output commit.  :class:`JobDriver` owns that skeleton once;
each engine subclasses it and supplies only its task strategy (the hooks
at the end of the class).

One loop serves clean and faulty runs.  Every map and reduce task runs
through :class:`~repro.mapreduce.recovery.RecoveryManager` — without a
fault plan that is one attempt, returned as is.  First map attempts
leave in waves through ``session.run_batch``: ``session.max_batch`` tasks
per wave without a plan, one task under a plan, because crash handling
after each completed map can move the next task.  Wave size is the only
thing a plan changes here.

Journal protocol: a resume skips journaled reduce partitions, and when
every partition (or the output itself) is journaled it rebuilds the
output from the commits alone.  Each reduce commit is journaled before
its output is appended to HDFS, so a crash in between replays the commit
instead of duplicating output.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.exec import resolve_executor
from repro.hdfs.filesystem import InputSplit
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.journal import (
    K_JOB_SPEC,
    K_MAP_COMMIT,
    K_OUTPUT_COMMIT,
    K_REDUCE_COMMIT,
    K_SHUFFLE_COMMIT,
    K_TASK_GRANT,
    NULL_JOURNAL,
    emit_committed_output,
    job_fingerprint,
    output_digest,
)
from repro.mapreduce.recovery import RecoveryManager, SpeculationPolicy
from repro.mapreduce.scheduler import ScheduleStats, TaskAssignment, WaveScheduler
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["JobResult", "JobRun", "JobDriver", "read_block"]


@dataclass(slots=True)
class JobResult:
    """Outcome of one engine run: counters, timings and output location."""

    job_name: str
    engine: str
    output_path: str
    counters: Counters
    wall_time: float
    phase_times: dict[str, float] = field(default_factory=dict)
    schedule: ScheduleStats | None = None
    network_bytes: int = 0
    output_records: int = 0
    snapshots: list[Any] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)
    #: The run's merged :class:`~repro.obs.tracer.Tracer` when tracing was
    #: on, else ``None``.
    trace: Any = None

    def summary(self) -> dict[str, float]:
        """The headline numbers for reports."""
        c = self.counters
        return {
            "wall_time": self.wall_time,
            "map_input_bytes": c[C.MAP_INPUT_BYTES],
            "map_output_bytes": c[C.MAP_OUTPUT_BYTES],
            "reduce_spill_bytes": c[C.REDUCE_SPILL_BYTES],
            "merge_read_bytes": c[C.MERGE_READ_BYTES],
            "output_records": self.output_records,
            "network_bytes": self.network_bytes,
        }


def read_block(hdfs: Any, split: InputSplit, node: str) -> tuple[bytes, bool]:
    """Read a split's raw bytes for a task on ``node``, preferring the local
    replica; returns ``(data, local)``."""
    local = node in split.preferred_nodes
    return hdfs.read_block_bytes(split.block_id, from_node=node if local else None), local


@dataclass
class JobRun:
    """One run's coordinator state, shared by the driver and the engine.

    Engines keep their own per-run state (shuffle, logs, snapshot cursor)
    as further attributes, set in :meth:`JobDriver._setup`.
    """

    job: Any
    counters: Counters
    recovery: RecoveryManager
    reducer_nodes: dict[int, str]
    live: list[str]
    splits: dict[int, InputSplit]
    session: Any = None
    reduce_tasks: dict[int, Any] = field(default_factory=dict)
    #: Journaled reduce output by partition; those reducers never run.
    committed: dict[int, tuple[Any, ...]] = field(default_factory=dict)
    #: Journaled ``(log seq, reduce state)`` checkpoints by partition.
    checkpoints: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    #: Replicated logs and checkpoint stores, re-homed when a node crashes.
    stores: list[Any] = field(default_factory=list)
    maps_done: int = 0
    network_bytes: int = 0
    snapshots: list[Any] = field(default_factory=list)
    #: Side results of each partition's winning reduce attempt.
    reduce_extras: dict[int, Any] = field(default_factory=dict)


class JobDriver:
    """Runs a job's phases; subclasses supply the task strategy hooks."""

    name = ""
    #: Kernel that runs one map attempt.
    map_kernel = ""
    #: Kernel that runs one reduce attempt, if the engine has one: without
    #: a fault plan all its partitions then go out in one wave.
    reduce_kernel: str | None = None

    def __init__(
        self,
        cluster: Any,
        *,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = WaveScheduler(cluster.compute_node_names, map_slots=map_slots)
        self.fault_plan = fault_plan
        self.speculation = speculation
        self.executor = resolve_executor(executor)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal if journal is not None else NULL_JOURNAL

    def _drive(self, job: Any) -> JobResult:
        if not job.input_path or not job.output_path:
            raise ValueError("job must set input_path and output_path")
        hdfs, tracer, journal = self.cluster.hdfs, self.tracer, self.journal
        counters = Counters()
        t_start = time.perf_counter()
        assignments, schedule = self.scheduler.schedule(hdfs.input_splits(job.input_path))
        r = JobRun(
            job,
            counters,
            RecoveryManager(
                self.fault_plan, counters, speculation=self.speculation, tracer=tracer
            ),
            self.scheduler.assign_reducers(job.config.num_reducers),
            list(self.cluster.compute_node_names),
            {a.task_id: a.split for a in assignments},
        )
        mark = (journal.appends, journal.bytes_written)

        def result(records: int, phase_times: dict[str, float]) -> JobResult:
            return JobResult(
                job.name,
                self.name,
                job.output_path,
                counters,
                time.perf_counter() - t_start,
                phase_times,
                schedule,
                r.network_bytes,
                records,
                r.snapshots,
                self._extras(r),
                tracer if tracer.enabled else None,
            )

        if journal.enabled:
            state = journal.resume_state()
            fingerprint = job_fingerprint(job, self.name)
            state.check_spec(fingerprint)
            if state.truncated_bytes:
                tracer.event("journal.truncated", "journal", bytes=state.truncated_bytes)
            done = state.output_commits > 0
            if done or state.complete(job.config.num_reducers):
                # Every partition's output is journaled: rebuild the output
                # file from commits alone, no recompute.  A journal that
                # already holds the output commit gets zero new appends, so
                # replaying it again is byte-identical (idempotent).
                if not done:
                    journal.append(K_JOB_SPEC, spec=fingerprint, engine=self.name, job=job.name)
                records = emit_committed_output(
                    hdfs, job, r.reducer_nodes, state, counters, tracer
                )
                self._close_journal(r, records, mark, commit=not done)
                return result(records, {"map": 0.0, "reduce": 0.0})
            journal.append(K_JOB_SPEC, spec=fingerprint, engine=self.name, job=job.name)
            r.committed = dict(state.reduce_commits)
            r.checkpoints = dict(state.checkpoints)
            if r.committed or r.checkpoints:
                counters.inc(C.JOURNAL_REPLAYED_COMMITS, len(r.committed))
                tracer.event(
                    "journal.resume",
                    "journal",
                    commits=len(r.committed),
                    checkpoints=len(r.checkpoints),
                )

        r.reduce_tasks = {p: self._new_reducer(r, p, n) for p, n in r.reducer_nodes.items()}
        self._setup(r)
        codec = hdfs.codec(hdfs.namenode.file_info(job.input_path).codec_name)
        context = {"job": job, "codec": codec, "trace": tracer.enabled, **self._context()}
        with self.executor.session(context) as r.session:
            t_map = self._map_phase(r, assignments)
            t_reduce, records = self._reduce_phase(r)
        for store in r.stores:
            store.cleanup()
        self._finish(r)
        counters.inc(C.OUTPUT_BYTES, hdfs.file_bytes(job.output_path))
        if journal.enabled:
            self._close_journal(r, records, mark)
        return result(records, {"map": t_map, "reduce": t_reduce})

    def _close_journal(
        self, r: JobRun, records: int, mark: tuple[int, int], *, commit: bool = True
    ) -> None:
        journal = self.journal
        if commit:
            path = r.job.output_path
            digest = output_digest(self.cluster.hdfs, path)
            journal.append(K_OUTPUT_COMMIT, path=path, records=records, digest=digest)
        journal.finalize()
        r.counters.inc(C.JOURNAL_APPENDS, journal.appends - mark[0])
        r.counters.inc(C.JOURNAL_BYTES, journal.bytes_written - mark[1])

    # -- map phase ----------------------------------------------------------

    def _map_phase(self, r: JobRun, assignments: list[TaskAssignment]) -> float:
        c0, t0 = self.tracer.clock, time.perf_counter()
        plan = self.fault_plan
        wave_size = r.session.max_batch if plan is None else 1
        queue = deque(assignments)
        while queue:
            wave = [queue.popleft() for _ in range(min(len(queue), wave_size))]
            for a, first in zip(wave, self._dispatch_maps(r, wave)):
                self._run_map(r, a, first)
                r.maps_done += 1
                for crashed in plan.crashes_due(r.maps_done) if plan is not None else ():
                    with r.counters.timer(C.T_RECOVERY):
                        queue.extend(self._node_crash(r, crashed))
                self._map_completed(r)
        self._map_phase_done(r)
        wall = time.perf_counter() - t0
        self.tracer.add_span("map-phase", "phase", c0, self.tracer.clock, wall_s=wall)
        get_logger(self.name).info(
            "map.phase.done", tasks=r.maps_done, snapshots=len(r.snapshots), wall_ms=wall * 1e3
        )
        for partition in sorted(r.reduce_tasks):
            if partition not in r.committed:
                self.journal.append(K_SHUFFLE_COMMIT, partition=partition)
        return wall

    def _dispatch_maps(self, r: JobRun, wave: list[TaskAssignment]) -> list[Any]:
        """Grant a wave of map tasks and run their first attempts as one batch."""
        specs = []
        for a in wave:
            self.journal.append(K_TASK_GRANT, task=a.task_id, node=a.node)
            specs.append(self._read_spec(r, a, r.recovery.candidates(a.node, r.live)[0]))
        return r.session.run_batch(self.map_kernel, specs)

    def _read_spec(self, r: JobRun, a: TaskAssignment, node: str) -> Any:
        data, local = read_block(self.cluster.hdfs, a.split, node)
        if not local:
            r.network_bytes += len(data)
        return self._map_spec(r, a.task_id, node, data)

    def _run_map(self, r: JobRun, a: TaskAssignment, first: Any) -> None:
        """Run one map task to success from its first attempt's result,
        hand its output to the engine and commit it.

        Every attempt — killed, speculative loser or winner — charges its
        work to the job; retries and backups run one at a time.
        """

        def attempt(node: str) -> Any:
            nonlocal first
            res, first = first, None
            if res is None:
                res = r.session.run_one(self.map_kernel, self._read_spec(r, a, node))
            if res.disk is not None:
                self.cluster.nodes[node].intermediate_disk.absorb(res.disk)
            r.counters.merge(res.counters)
            self.tracer.absorb(res.trace)
            return res

        node, res = r.recovery.run_map_task(
            a.task_id,
            a.node,
            r.live,
            a.split.nbytes,
            attempt,
            lambda dead, _res: self._discard_map(a.task_id, dead),
        )
        nbytes = self._deliver(r, a.task_id, node, res)
        self.journal.append(K_MAP_COMMIT, task=a.task_id, node=node, nbytes=nbytes)

    def _node_crash(self, r: JobRun, crashed: str) -> list[TaskAssignment]:
        """React to losing a whole node mid-job; returns map tasks to re-run.

        The node's HDFS replicas re-replicate, the replicated logs and
        checkpoint stores it held move to a survivor, and its reduce tasks
        restart on survivors.
        """
        cluster, counters = self.cluster, r.counters
        counters.inc(C.NODE_CRASHES)
        self.tracer.event("node.crash", "recovery", node=crashed)
        r.live.remove(crashed)
        if not r.live:
            raise RuntimeError(f"node crash of {crashed} left no live compute nodes")
        cluster.wipe_node(crashed)
        report = cluster.hdfs.handle_node_loss(crashed)
        if report.blocks_rereplicated:
            counters.inc(C.BLOCKS_REREPLICATED, report.blocks_rereplicated)
            counters.inc(C.BYTES_REREPLICATED, report.bytes_rereplicated)
        for store in r.stores:
            holders = [n for n, _ in store.replicas]
            spare = [n for n in r.live if n not in holders]
            if crashed in holders and spare:
                store.replace_replica(crashed, spare[0], cluster.nodes[spare[0]].intermediate_disk)
        lost = self._lost_maps(r, crashed)
        for partition in sorted(r.reducer_nodes):
            if r.reducer_nodes[partition] == crashed:
                self._replace_reducer(r, partition, r.live[partition % len(r.live)])
        return lost

    def _replace_reducer(self, r: JobRun, partition: int, node: str) -> None:
        dead = r.reduce_tasks[partition]
        r.counters.merge(dead.counters)  # its work still happened
        r.counters.inc(C.TASKS_RERUN)
        r.reducer_nodes[partition] = node
        r.reduce_tasks[partition] = self._rebuild_reducer(r, partition, node)

    # -- reduce phase --------------------------------------------------------

    def _reduce_phase(self, r: JobRun) -> tuple[float, int]:
        """Run, commit and emit every partition in order.

        The reduce-commit journal append and the output emission stay in
        this one function: the commit-before-emit lint check (REP204)
        looks at one function at a time.
        """
        job, journal, tracer, hdfs = r.job, self.journal, self.tracer, self.cluster.hdfs
        c0, t0 = tracer.clock, time.perf_counter()
        hdfs.namenode.create_file(job.output_path, codec_name="binary")
        order = sorted(r.reduce_tasks)
        size = len(order) if self.reduce_kernel and self.fault_plan is None else 1
        records = 0
        for i in range(0, len(order), size):
            wave = order[i : i + size]
            outputs = {p: list(r.committed[p]) for p in wave if p in r.committed}
            pending = [p for p in wave if p not in outputs]
            firsts = self._dispatch_reduces(r, pending)
            for partition in pending:

                def attempt(idx: int, partition: int = partition) -> list[Any]:
                    if idx > 0:
                        # The previous attempt died mid-reduce: restart the
                        # task on the next live node.
                        with r.counters.timer(C.T_RECOVERY):
                            node = r.live[(partition + idx) % len(r.live)]
                            self._replace_reducer(r, partition, node)
                    return self._reduce(r, partition, firsts.pop(partition, None))

                output = r.recovery.run_reduce_task(partition, attempt)
                r.counters.merge(r.reduce_tasks[partition].counters)
                journal.append(K_REDUCE_COMMIT, partition=partition, records=tuple(output))
                if journal.enabled:
                    tracer.event(
                        "journal.commit",
                        "journal",
                        task=f"reduce:{partition:03d}",
                        records=len(output),
                    )
                outputs[partition] = output
            for partition in wave:
                output = outputs[partition]
                records += len(output)
                if output:
                    hdfs.append_block(
                        job.output_path, output, writer_node=r.reducer_nodes[partition]
                    )
        wall = time.perf_counter() - t0
        tracer.add_span("reduce-phase", "phase", c0, tracer.clock, wall_s=wall)
        get_logger(self.name).info(
            "reduce.phase.done", partitions=len(order), records=records, wall_ms=wall * 1e3
        )
        return wall, records

    # -- shared by the push engines -------------------------------------------

    def _replicated(self, r: JobRun, *kinds: Any) -> list[dict[int, Any]]:
        """One replicated store per partition and kind, under a fault plan.

        Pushed map output never stays at the mappers, so a push engine
        logs it where reduce recovery can replay it: on the reducer's node
        plus the next compute node.  Without a plan nothing can be lost
        and the returned dicts stay empty.
        """
        out: list[dict[int, Any]] = [{} for _ in kinds]
        plan = self.fault_plan
        if plan is None:
            return out
        nodes = self.cluster.nodes
        names = self.cluster.compute_node_names
        for partition, node in r.reducer_nodes.items():
            chosen = [node]
            if len(names) > 1:
                chosen.append(names[(names.index(node) + 1) % len(names)])
            replicas = [(n, nodes[n].intermediate_disk) for n in chosen]
            for stores, kind in zip(out, kinds):
                stores[partition] = kind(partition, replicas, r.counters)
                r.stores.append(stores[partition])
        if plan.has_disk_faults:
            for name in sorted(names):
                nodes[name].intermediate_disk.fault_injector = plan
        return out

    def _replay(
        self, r: JobRun, log: Any, rtask: Any, accept: Any, after_seq: int = 0
    ) -> None:
        """Feed a rebuilt reduce task its log's chunks past ``after_seq``."""
        replayed = nbytes_replayed = 0
        with self.tracer.span(
            "replay", "recovery", node=rtask.node, task=f"reduce:{rtask.partition:03d}"
        ) as replay_span:
            for _seq, pairs, nbytes in log.replay(after_seq):
                accept(pairs, nbytes)
                replayed += len(pairs)
                nbytes_replayed += nbytes
                r.counters.inc(C.REPLAYED_RECORDS, len(pairs))
                r.counters.inc(C.BYTES_RESHUFFLED, nbytes)
            replay_span.set_cost(max(1, byte_cost(nbytes_replayed)))
            replay_span.set(records=replayed, bytes=nbytes_replayed)

    # -- task strategy: the hooks each engine supplies -------------------------

    def _context(self) -> dict[str, Any]:
        """Engine-specific entries of the kernels' job context."""
        return {}

    def _new_reducer(self, r: JobRun, partition: int, node: str) -> Any:
        """A fresh reduce task for ``partition`` on ``node``."""
        raise NotImplementedError

    def _setup(self, r: JobRun) -> None:
        """Create the engine's per-run state once the reduce tasks exist."""

    def _map_spec(self, r: JobRun, task_id: int, node: str, data: bytes) -> Any:
        """The ``map_kernel`` spec of one attempt on ``node``."""
        raise NotImplementedError

    def _deliver(self, r: JobRun, task_id: int, node: str, res: Any) -> int:
        """Hand a winning map attempt's output on; returns the bytes to commit."""
        raise NotImplementedError

    def _discard_map(self, task_id: int, node: str) -> None:
        """Clean up after a dead or losing map attempt on ``node``."""

    def _map_completed(self, r: JobRun) -> None:
        """Called after each committed map task (and any crash it triggered)."""

    def _map_phase_done(self, r: JobRun) -> None:
        """Called once every map task has committed."""

    def _lost_maps(self, r: JobRun, crashed: str) -> list[TaskAssignment]:
        """Completed map tasks whose output died with ``crashed``, rescheduled."""
        return []

    def _rebuild_reducer(self, r: JobRun, partition: int, node: str) -> Any:
        """A reduce task restarted on ``node`` after its predecessor was lost."""
        raise NotImplementedError

    def _dispatch_reduces(self, r: JobRun, partitions: list[int]) -> dict[int, Any]:
        """First-attempt ``reduce_kernel`` results of one wave, by partition."""
        return {}

    def _reduce(self, r: JobRun, partition: int, first: Any) -> list[Any]:
        """Run one reduce attempt (from its kernel result, if given)."""
        raise NotImplementedError

    def _finish(self, r: JobRun) -> None:
        """Clean up the engine's per-run state after the reduce phase."""

    def _extras(self, r: JobRun) -> dict[str, Any]:
        """Engine-specific :attr:`JobResult.extras`."""
        return {}
