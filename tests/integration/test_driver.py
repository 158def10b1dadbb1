"""The shared job driver: one map loop and one reduce loop for all engines.

Clean and faulty runs go through the same coordinator loops, so an empty
fault plan must change nothing in the output, and HOP's backpressure
staging must survive crash recovery unchanged.
"""

import pytest

from repro.core.engine import OnePassEngine
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.journal import output_digest
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.documents import document_text_codec
from repro.workloads.inverted_index import inverted_index_job, inverted_index_onepass_job
from repro.workloads.page_frequency import page_frequency_job, page_frequency_onepass_job
from repro.workloads.sessionization import sessionization_job, sessionization_onepass_job

EXECUTORS = ("serial", "processes:2")
ENGINES = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}


def run_job(engine, records, jobs, *, codec=None, replication=1, **kw):
    """Run one engine on a fresh 4-node cluster; returns (result, digest)."""
    cluster = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=replication)
    cluster.hdfs.write_records("in", records, codec=codec)
    sortmerge_job, onepass_job = jobs
    job = onepass_job("in", "out") if engine == "onepass" else sortmerge_job("in", "out")
    result = ENGINES[engine](cluster, **kw).run(job)
    return result, output_digest(cluster.hdfs, "out")


def sessions(gap=5.0):
    return (
        lambda i, o: sessionization_job(i, o, gap=gap),
        lambda i, o: sessionization_onepass_job(i, o, gap=gap),
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_charges_parse_time(engine, clicks, documents):
    """Map kernels decode through ``timed_decode``: binary and text codecs
    alike show up in the parse timer."""
    binary, _ = run_job(engine, clicks, (page_frequency_job, page_frequency_onepass_job))
    text, _ = run_job(
        engine,
        documents,
        (inverted_index_job, inverted_index_onepass_job),
        codec=document_text_codec(),
    )
    assert binary.counters[C.T_PARSE] > 0
    assert text.counters[C.T_PARSE] > 0


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_empty_plan_equals_no_plan(engine, executor, clicks):
    _, clean = run_job(engine, clicks, sessions(), executor=executor)
    _, empty = run_job(engine, clicks, sessions(), executor=executor, fault_plan=FaultPlan())
    assert empty == clean


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hop_staging_survives_faults(seed, executor, clicks):
    """Every chunk is staged (backpressure 1 byte) while tasks die and a
    node crashes; the output stays byte-identical to the clean run."""
    hop = HOPConfig(granularity_records=200, backpressure_bytes=1)
    clean, clean_digest = run_job(
        "hop", clicks, sessions(), replication=2, hop_config=hop, executor=executor
    )
    probe = LocalCluster(num_nodes=4, block_size=64 * 1024)
    probe.hdfs.write_records("in", clicks)
    plan = FaultPlan.random(
        seed,
        num_map_tasks=len(probe.hdfs.input_splits("in")),
        num_reducers=2,
        nodes=probe.compute_node_names,
        crash_after=4,
    )
    faulty, digest = run_job(
        "hop",
        clicks,
        sessions(),
        replication=2,
        hop_config=hop,
        executor=executor,
        fault_plan=plan,
    )
    assert digest == clean_digest
    assert faulty.counters[C.MAP_SPILL_BYTES] > 0
    assert faulty.counters[C.NODE_CRASHES] == 1
    assert clean.counters[C.MAP_SPILL_BYTES] > 0
