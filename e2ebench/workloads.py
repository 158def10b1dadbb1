"""The benchmark's three workloads: inputs, jobs per engine, and oracles.

Each workload generates its input from a seed, loads it into a fresh
:class:`~repro.mapreduce.runtime.LocalCluster` with ``HDFS.write_records``
and builds one job per engine.  :func:`canonical_output` and
:attr:`Workload.oracle` give the sorted record list a correct run must
produce, computed by the reference implementations in ``repro.workloads``
without any engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.api import JobConfig
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads import (
    ClickStreamConfig,
    DocumentConfig,
    document_text_codec,
    generate_clicks,
    generate_documents,
    inverted_index_job,
    inverted_index_onepass_job,
    page_frequency_job,
    page_frequency_onepass_job,
    reference_index,
    reference_page_counts,
    reference_sessions,
    sessionization_job,
    sessionization_onepass_job,
)

__all__ = [
    "ENGINES",
    "WORKLOADS",
    "Workload",
    "load",
    "make_engine",
    "make_job",
    "canonical_output",
]

ENGINES = ("hadoop", "hop", "onepass")

_ENGINE_CLASSES = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}

#: Cluster shape of every workload: four colocated nodes, 256 KiB HDFS
#: blocks (the ``repro run`` CLI's layout), so inputs split into tens of
#: map tasks.
NODES = 4
BLOCK_SIZE = 256 * 1024

#: ``sessionize-spill`` gives every engine this much reduce memory per
#: 150k clicks (the shuffle buffer of the sort-merge engines, the hash
#: budget of the one-pass engine), so the engines spill in the same regime
#: at any input size.
SPILL_MEMORY_PER_150K = 1024 * 1024
SESSION_GAP = 5.0

INPUT_PATH = "in"
OUTPUT_PATH = "out"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``records(seed, scale)`` generates ``scale`` times the nominal input;
    ``job(engine, scale)`` builds the job an engine runs on it; ``oracle``
    turns the input into the sorted output a correct run produces.
    """

    name: str
    records: Callable[[int, float], list[Any]]
    job: Callable[[str, float], Any]
    oracle: Callable[[list[Any]], list[Any]]
    codec: Callable[[], Any] | None = None
    executor: str | None = None


def _clicks(base: int) -> Callable[[int, float], list[Any]]:
    def make(seed: int, scale: float) -> list[Any]:
        n = max(200, int(base * scale))
        # Users and URLs scale with the log as in ``repro run``: ~20
        # clicks per user and ~50 per URL, Zipf-skewed.
        cfg = ClickStreamConfig(
            num_clicks=n, num_users=max(10, n // 20), num_urls=max(10, n // 50), seed=seed
        )
        return list(generate_clicks(cfg))

    return make


def _documents(base: int) -> Callable[[int, float], list[Any]]:
    def make(seed: int, scale: float) -> list[Any]:
        # Many short documents: lengths are geometric, so the collection's
        # total size varies with the seed by about 1/sqrt(num_docs).
        cfg = DocumentConfig(
            num_docs=max(10, int(base * scale)),
            vocab_size=5_000,
            mean_doc_words=INDEX_DOC_WORDS,
            markup_per_word=2.0,
            seed=seed,
        )
        return list(generate_documents(cfg))

    return make


SESSION_CLICKS = 50_000
PAGEFREQ_CLICKS = 100_000
INDEX_DOCS = 2_000
INDEX_DOC_WORDS = 40


def _session_job(engine: str, scale: float) -> Any:
    # One reducer: its input volume then varies by well under 1% across
    # seeds (no Zipf-dependent partition split), so every seed spills the
    # same number of runs and merges in the same number of passes.
    memory = int(SPILL_MEMORY_PER_150K * SESSION_CLICKS * scale / 150_000)
    if engine == "onepass":
        config = OnePassConfig(
            mode="hybrid", map_side_combine=False, num_reducers=1, reduce_memory_bytes=memory
        )
        return sessionization_onepass_job(INPUT_PATH, OUTPUT_PATH, gap=SESSION_GAP, config=config)
    config = JobConfig(num_reducers=1, reduce_buffer_bytes=memory, merge_factor=4)
    return sessionization_job(INPUT_PATH, OUTPUT_PATH, gap=SESSION_GAP, config=config)


def _pagefreq_job(engine: str, scale: float) -> Any:
    if engine == "onepass":
        return page_frequency_onepass_job(INPUT_PATH, OUTPUT_PATH)
    return page_frequency_job(INPUT_PATH, OUTPUT_PATH)


def _index_job(engine: str, scale: float) -> Any:
    if engine == "onepass":
        return inverted_index_onepass_job(INPUT_PATH, OUTPUT_PATH)
    return inverted_index_job(INPUT_PATH, OUTPUT_PATH)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sessionize-spill",
            records=_clicks(SESSION_CLICKS),
            job=_session_job,
            oracle=lambda clicks: reference_sessions(clicks, gap=SESSION_GAP),
        ),
        Workload(
            name="pagefreq-combine",
            records=_clicks(PAGEFREQ_CLICKS),
            job=_pagefreq_job,
            oracle=lambda clicks: sorted(reference_page_counts(clicks).items()),
        ),
        Workload(
            name="invindex-proc2",
            records=_documents(INDEX_DOCS),
            job=_index_job,
            oracle=lambda docs: sorted(reference_index(docs).items()),
            codec=document_text_codec,
            executor="processes:2",
        ),
    )
}


def load(workload: Workload, records: list[Any]) -> LocalCluster:
    """Write ``records`` into a fresh cluster's HDFS at :data:`INPUT_PATH`."""
    cluster = LocalCluster(num_nodes=NODES, block_size=BLOCK_SIZE)
    codec = workload.codec() if workload.codec is not None else None
    cluster.hdfs.write_records(INPUT_PATH, records, codec=codec)
    return cluster


def make_engine(
    engine: str, cluster: LocalCluster, executor: str | None, tracer: Any = None
) -> Any:
    return _ENGINE_CLASSES[engine](cluster, executor=executor, tracer=tracer)


def make_job(workload: Workload, engine: str, scale: float, *, batch: bool = False) -> Any:
    job = workload.job(engine, scale)
    if batch:
        job = dataclasses.replace(job, config=dataclasses.replace(job.config, batch=True))
    return job


def canonical_output(cluster: LocalCluster, path: str = OUTPUT_PATH) -> list[Any]:
    """The job's output records in sorted order (engines differ in order)."""
    return sorted(cluster.hdfs.read_records(path))
