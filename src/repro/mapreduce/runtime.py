"""The in-process cluster and the Hadoop-baseline job runner.

:class:`LocalCluster` assembles N simulated nodes — each with one or two
accounted local disks and a DataNode — plus an HDFS namespace over them.
:class:`HadoopEngine` executes a :class:`~repro.mapreduce.api.MapReduceJob`
on that cluster exactly the way the paper describes Hadoop doing it:
block-level map tasks with locality-aware scheduling, sort-spill map
output, pull shuffle after each map completion, multi-pass merge, blocking
reduce.  The job skeleton it shares with the other engines is
:class:`~repro.mapreduce.driver.JobDriver`; this module supplies the
sort-merge task strategy.

Everything runs in one Python process (task "parallelism" is logical), but
all data movement is real: records are really mapped, sorted, spilled,
merged and reduced, and every byte is accounted on the node disks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.hdfs.datanode import DataNode
from repro.hdfs.filesystem import HDFS
from repro.io.device import HDD_7200RPM, SSD_SATA, DeviceProfile
from repro.io.disk import DiskStats, LocalDisk
from repro.mapreduce.api import MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.driver import JobDriver, JobResult, JobRun
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.recovery import FetchRetryPolicy, SpeculationPolicy, TaskLineage
from repro.mapreduce.scheduler import TaskAssignment, WaveScheduler
from repro.mapreduce.shuffle import FetchFailedError, ShuffleService
from repro.mapreduce.sortmerge import SortMergeReduceTask
from repro.obs.tracer import byte_cost

__all__ = ["ClusterNode", "LocalCluster", "JobResult", "HadoopEngine"]


@dataclass(slots=True)
class ClusterNode:
    """One simulated machine: a name and its storage devices.

    ``intermediate`` names the disk that receives map output, spills and
    merge traffic.  In the default architecture it is the same device as
    HDFS data (``"hdd"``) — the contention the paper measures; in the
    HDD+SSD architecture it is the SSD.
    """

    name: str
    disks: dict[str, LocalDisk]
    intermediate: str = "hdd"

    @property
    def hdfs_disk(self) -> LocalDisk:
        return self.disks["hdd"]

    @property
    def intermediate_disk(self) -> LocalDisk:
        return self.disks[self.intermediate]


class LocalCluster:
    """A set of nodes plus the HDFS namespace spanning them.

    Parameters
    ----------
    num_nodes:
        Total machines.  With ``storage_nodes`` set, the first
        ``storage_nodes`` machines host HDFS only and the rest compute only
        (the paper's "separate distributed storage" architecture);
        otherwise every node does both (colocated, the default).
    with_ssd:
        Give each compute node an SSD and direct intermediate data to it
        (the paper's "separate storage devices" architecture).
    block_size:
        HDFS block size in bytes.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        *,
        with_ssd: bool = False,
        storage_nodes: int = 0,
        block_size: int = 1 * 1024 * 1024,
        replication: int = 1,
        hdd_profile: DeviceProfile = HDD_7200RPM,
        ssd_profile: DeviceProfile = SSD_SATA,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if storage_nodes >= num_nodes:
            raise ValueError("storage_nodes must leave at least one compute node")
        self.nodes: dict[str, ClusterNode] = {}
        names = [f"node{i:02d}" for i in range(num_nodes)]
        for name in names:
            disks = {"hdd": LocalDisk(hdd_profile, name=f"{name}.hdd")}
            intermediate = "hdd"
            if with_ssd:
                disks["ssd"] = LocalDisk(ssd_profile, name=f"{name}.ssd")
                intermediate = "ssd"
            self.nodes[name] = ClusterNode(name=name, disks=disks, intermediate=intermediate)

        if storage_nodes > 0:
            self.storage_node_names = names[:storage_nodes]
            self.compute_node_names = names[storage_nodes:]
        else:
            self.storage_node_names = names
            self.compute_node_names = names

        datanodes = {
            name: DataNode(name, self.nodes[name].hdfs_disk)
            for name in self.storage_node_names
        }
        self.hdfs = HDFS(datanodes, replication=replication, block_size=block_size)

    @property
    def separate_storage(self) -> bool:
        return self.storage_node_names != self.compute_node_names

    def node(self, name: str) -> ClusterNode:
        return self.nodes[name]

    def intermediate_disks(self) -> dict[str, LocalDisk]:
        """Map from compute-node name to its intermediate-data disk."""
        return {
            name: self.nodes[name].intermediate_disk
            for name in self.compute_node_names
        }

    def wipe_node(self, name: str) -> None:
        """Simulate a machine crash: every byte stored on the node is lost.

        HDFS block replicas, map output, spills, logs — all gone.  The
        disks' accounting survives (the I/O the node performed before the
        crash really happened and stays on the job's bill).
        """
        for disk in self.nodes[name].disks.values():
            disk.delete_prefix("")

    def disk_stats(self) -> dict[str, DiskStats]:
        """Snapshot of every disk's counters, keyed ``node.device``."""
        out: dict[str, DiskStats] = {}
        for node in self.nodes.values():
            for dev, disk in node.disks.items():
                out[f"{node.name}.{dev}"] = disk.stats.snapshot()
        return out

    def total_disk_stats(self) -> DiskStats:
        total = DiskStats()
        for node in self.nodes.values():
            for disk in node.disks.values():
                s = disk.stats
                total.bytes_read += s.bytes_read
                total.bytes_written += s.bytes_written
                total.read_ops += s.read_ops
                total.write_ops += s.write_ops
                total.random_ops += s.random_ops
                total.sequential_ops += s.sequential_ops
                total.deletes += s.deletes
                total.busy_time += s.busy_time
        return total


class HadoopEngine(JobDriver):
    """The sort-merge baseline: stock Hadoop's execution model.

    ``fault_plan`` injects deterministic failures, all recovered the way
    Hadoop's JobTracker recovers them — and all charged to the job's
    counters, because re-execution is not free:

    * killed map/reduce attempts run, their output is discarded, and the
      task retries on the next live candidate node;
    * transient shuffle fetch failures back off exponentially; a segment
      that stays unfetchable past the retry budget ("too many fetch
      failures") re-executes its map task;
    * a node crash loses every HDFS replica, completed map output and
      reduce state on the node: under-replicated blocks re-replicate,
      the lost maps re-execute on survivors, and the node's reducers
      restart elsewhere and re-pull their partitions;
    * slow nodes make completed-but-straggling attempts race a
      speculative backup; the loser's work is counted as waste.

    The synchronous map-output write is what makes this recovery
    possible — the fault-tolerance rationale the paper cites for that
    write.  ``fetch_interval`` sets how many map completions pass between
    reducer pulls (Hadoop's poll period); larger values leave segments
    unfetched longer, which matters when a node dies in between.
    """

    name = "hadoop"
    map_kernel = "hadoop_map"
    reduce_kernel = "hadoop_reduce"

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        fetch_interval: int = 1,
        retry_policy: FetchRetryPolicy | None = None,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        if fetch_interval < 1:
            raise ValueError("fetch_interval must be >= 1")
        super().__init__(
            cluster,
            map_slots=map_slots,
            fault_plan=fault_plan,
            speculation=speculation,
            executor=executor,
            tracer=tracer,
            journal=journal,
        )
        self.fetch_interval = fetch_interval
        self.retry_policy = retry_policy

    def run(self, job: MapReduceJob) -> JobResult:
        """Execute ``job``; returns the merged counters and output path."""
        return self._drive(job)

    # -- map side -------------------------------------------------------------

    def _new_reducer(self, r: JobRun, partition: int, node: str) -> SortMergeReduceTask:
        disk = self.cluster.nodes[node].intermediate_disk
        return SortMergeReduceTask(r.job, partition, node, disk, tracer=self.tracer)

    def _setup(self, r: JobRun) -> None:
        r.shuffle = ShuffleService(
            self.cluster.intermediate_disks(),
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
        )
        r.lineage = TaskLineage()
        r.since_drain = 0

    def _map_spec(self, r: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import HadoopMapSpec

        disk = self.cluster.nodes[node].intermediate_disk
        return HadoopMapSpec(task_id, node, data, disk.profile, disk.name)

    def _deliver(self, r: JobRun, task_id: int, node: str, res: Any) -> int:
        r.shuffle.register(res.output)
        r.lineage.record(task_id, node, res.output.total_bytes)
        return res.output.total_bytes

    def _discard_map(self, task_id: int, node: str) -> None:
        # The attempt died, lost the speculative race or is being re-run:
        # its output files are gone.
        disk = self.cluster.nodes[node].intermediate_disk
        disk.delete_prefix(f"mapout/{task_id:05d}")
        disk.delete_prefix(f"mapspill/{task_id:05d}")

    def _map_completed(self, r: JobRun) -> None:
        # Reducers pull every ``fetch_interval`` map completions.
        r.since_drain += 1
        if r.since_drain >= self.fetch_interval:
            self._drain(r)

    def _map_phase_done(self, r: JobRun) -> None:
        if r.since_drain:
            self._drain(r)

    def _lost_maps(self, r: JobRun, crashed: str) -> list[TaskAssignment]:
        # Completed map output on the node died with it.
        lost = r.lineage.tasks_on(crashed)
        for task_id in lost:
            r.shuffle.invalidate(task_id)
            r.lineage.forget(task_id)
        if lost:
            r.counters.inc(C.TASKS_RERUN, len(lost))
        return self._reschedule(r, lost)

    def _reschedule(self, r: JobRun, task_ids: list[int]) -> list[TaskAssignment]:
        """Place map tasks to re-run on the live nodes, with locality."""
        rescheduler = WaveScheduler(r.live, map_slots=self.scheduler.map_slots)
        placed, _ = rescheduler.schedule([r.splits[t] for t in task_ids])
        return [
            TaskAssignment(task_ids[a.task_id], a.split, a.node, a.wave, a.data_local)
            for a in placed
        ]

    def _rerun_lost_map(self, r: JobRun, task_id: int) -> None:
        """Re-execute a map whose output is lost; re-register fresh output.

        Already-delivered segments stay valid at their reducers (the
        shuffle keeps fetch marks across ``invalidate``), so only the
        still-missing segments are served from the new output.
        """
        old_node = r.lineage.node_of(task_id)
        if old_node is not None:
            self._discard_map(task_id, old_node)
        r.shuffle.invalidate(task_id)
        r.lineage.forget(task_id)
        r.counters.inc(C.TASKS_RERUN)
        self.tracer.event(
            "map.rerun", "recovery", node=old_node or "", task=f"map:{task_id:05d}"
        )
        wave = self._reschedule(r, [task_id])
        self._run_map(r, wave[0], self._dispatch_maps(r, wave)[0])

    # -- shuffle ---------------------------------------------------------------

    def _drain(self, r: JobRun) -> None:
        r.since_drain = 0
        for partition in sorted(r.reduce_tasks):
            if partition not in r.committed:  # journaled output; nothing to pull
                self._pull_partition(r, partition)

    def _pull_partition(self, r: JobRun, partition: int) -> None:
        """Fetch every pending segment for ``partition`` into its reduce task.

        A segment that exhausts its fetch retries ("too many fetch
        failures") re-executes its map task; the loop then pulls from the
        fresh output.
        """
        rtask = r.reduce_tasks[partition]
        while True:
            pending = r.shuffle.pending_fetches(partition)
            if not pending:
                return
            for task_id in pending:
                try:
                    seg = r.shuffle.fetch(task_id, partition)
                except FetchFailedError:
                    self.tracer.event(
                        "shuffle.fetch_failed",
                        "recovery",
                        node=rtask.node,
                        task=f"reduce:{partition:03d}",
                        map_task=task_id,
                    )
                    with r.counters.timer(C.T_RECOVERY):
                        self._rerun_lost_map(r, task_id)
                    continue
                self.tracer.metrics.histogram("shuffle.segment.bytes").observe(
                    seg.nbytes
                )
                with self.tracer.span(
                    "fetch",
                    "shuffle",
                    node=rtask.node,
                    task=f"reduce:{partition:03d}",
                    cost=byte_cost(seg.nbytes),
                    bytes=seg.nbytes,
                    map_task=task_id,
                ):
                    rtask.accept_segment(list(seg.pairs), seg.nbytes)

    # -- reduce side -------------------------------------------------------------

    def _rebuild_reducer(self, r: JobRun, partition: int, node: str) -> SortMergeReduceTask:
        # The lost task's fetched segments, merge runs and partial output
        # are gone: a fresh task re-pulls the whole partition.
        r.shuffle.reset_partition(partition)
        return self._new_reducer(r, partition, node)

    def _dispatch_reduces(self, r: JobRun, partitions: list[int]) -> dict[int, Any]:
        # Ship each reduce task's ingested state (in-memory segments +
        # on-disk runs) to the kernel.
        from repro.exec.kernels import HadoopReduceSpec

        specs = []
        for partition in partitions:
            node = r.reducer_nodes[partition]
            disk = self.cluster.nodes[node].intermediate_disk
            memory, memory_bytes, (runs, seq) = r.reduce_tasks[partition].export_ingested()
            specs.append(
                HadoopReduceSpec(
                    partition,
                    node,
                    disk.profile,
                    disk.name,
                    memory,
                    memory_bytes,
                    runs,
                    seq,
                    {path: disk.peek(path) for path, _ in runs},
                )
            )
        return dict(zip(partitions, r.session.run_batch(self.reduce_kernel, specs)))

    def _reduce(self, r: JobRun, partition: int, first: Any) -> list[Any]:
        if first is None:
            # A restarted attempt: pull the partition into the fresh task
            # and run it in place.
            self._pull_partition(r, partition)
            return r.reduce_tasks[partition].run()[0]
        self.cluster.nodes[r.reducer_nodes[partition]].intermediate_disk.absorb(first.disk)
        r.counters.merge(first.counters)
        self.tracer.absorb(first.trace)
        return first.output

    def _finish(self, r: JobRun) -> None:
        r.shuffle.cleanup()
        r.shuffle.merge_stats(r.counters)
        r.network_bytes += r.shuffle.network_bytes

