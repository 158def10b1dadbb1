"""Run writers/readers over LocalDisk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.disk import LocalDisk
from repro.io.runio import BLOCK_RECORDS, RunWriter, read_run, stream_run, write_run
from repro.mapreduce.api import JobConfig
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.sessionization import sessionization_job

pairs = st.lists(
    st.tuples(st.integers(-1000, 1000), st.text(max_size=20)), max_size=200
)


class TestRunWriter:
    def test_roundtrip(self, disk):
        items = [(i, f"v{i}") for i in range(100)]
        nbytes = write_run(disk, "run0", items)
        assert nbytes > 0
        assert read_run(disk, "run0") == items

    def test_stream_matches_read(self, disk):
        items = [(i, "x" * (i % 7)) for i in range(500)]
        write_run(disk, "run0", items)
        assert list(stream_run(disk, "run0", chunk_size=256)) == items

    def test_empty_run(self, disk):
        write_run(disk, "empty", [])
        assert read_run(disk, "empty") == []
        assert list(stream_run(disk, "empty")) == []

    def test_counts(self, disk):
        with RunWriter(disk, "run0") as w:
            w.write_all(range(10))
        assert w.records_written == 10
        assert w.bytes_written == disk.size("run0")

    def test_write_after_close_raises(self, disk):
        w = RunWriter(disk, "run0")
        w.close()
        with pytest.raises(ValueError):
            w.write(1)

    def test_flush_batches_disk_ops(self, disk):
        # With a large flush threshold the whole run is one disk append.
        before = disk.stats.write_ops
        write_run(disk, "run0", range(1000))
        assert disk.stats.write_ops - before <= 2  # create() doesn't count

    def test_small_flush_threshold_multiple_appends(self, disk):
        w = RunWriter(disk, "run0", flush_bytes=64)
        before = disk.stats.write_ops
        w.write_all(range(100))
        w.close()
        assert disk.stats.write_ops - before > 5

    def test_overwrites_previous_run(self, disk):
        write_run(disk, "run0", [1, 2, 3])
        write_run(disk, "run0", [4])
        assert read_run(disk, "run0") == [4]

    @given(pairs)
    @settings(max_examples=30)
    def test_property_roundtrip(self, items):
        disk = LocalDisk()
        write_run(disk, "r", items)
        assert list(stream_run(disk, "r", chunk_size=128)) == items

    def test_stream_detects_truncation(self, disk):
        write_run(disk, "r", [("key", "value" * 50)])
        data = disk.read("r")
        disk.write("r", data[: len(data) - 3], overwrite=True)
        with pytest.raises(ValueError):
            list(stream_run(disk, "r"))


class TestBlockFormat:
    def test_bytes_depend_on_values_not_object_sharing(self, disk):
        url = "http://example.com/" + "page" * 8
        shared = [(i % 3, (float(i), url)) for i in range(1200)]
        distinct = [(k, (t, "".join(list(u)))) for k, (t, u) in shared]
        assert distinct[0][1][1] is not distinct[1][1][1]
        write_run(disk, "shared", shared)
        write_run(disk, "distinct", distinct)
        assert disk.read("shared") == disk.read("distinct")

    def test_block_longer_than_chunk_streams(self, disk):
        items = [(i, "v" * 40) for i in range(BLOCK_RECORDS + 7)]
        write_run(disk, "r", items)
        assert list(stream_run(disk, "r", chunk_size=16)) == items

    @pytest.mark.parametrize(
        "n", [1, BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1, 3 * BLOCK_RECORDS + 5]
    )
    def test_partial_last_block_roundtrips(self, disk, n):
        items = [(i, -i) for i in range(n)]
        nbytes = write_run(disk, "r", items)
        assert nbytes == disk.size("r")
        assert read_run(disk, "r") == items
        assert list(stream_run(disk, "r", chunk_size=100)) == items

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_truncated_block_header_raises(self, disk, cut):
        items = [(i, str(i)) for i in range(BLOCK_RECORDS + 1)]
        write_run(disk, "r", items)
        data = disk.read("r")
        first_block = 4 + int.from_bytes(data[:4], "little")
        disk.write("r", data[: first_block + cut], overwrite=True)
        with pytest.raises(ValueError, match="block header"):
            list(stream_run(disk, "r"))
        with pytest.raises(ValueError, match="block header"):
            read_run(disk, "r")

    def test_truncated_block_raises(self, disk):
        items = [(i, str(i)) for i in range(BLOCK_RECORDS + 1)]
        write_run(disk, "r", items)
        data = disk.read("r")
        first_block = 4 + int.from_bytes(data[:4], "little")
        disk.write("r", data[: first_block // 2], overwrite=True)
        with pytest.raises(ValueError, match="truncated block in"):
            list(stream_run(disk, "r", chunk_size=64))
        with pytest.raises(ValueError, match="truncated block$"):
            read_run(disk, "r")

    def test_bytes_written_matches_disk_size_across_flushes(self, disk):
        with RunWriter(disk, "r", flush_bytes=64 * 700) as w:
            w.write_all((i, f"v{i}") for i in range(2000))
        assert w.bytes_written == disk.size("r")
        assert read_run(disk, "r") == [(i, f"v{i}") for i in range(2000)]


class TestRunBytesAcrossExecutors:
    @pytest.mark.parametrize("engine", ["hadoop", "hop"])
    def test_spill_and_shuffle_bytes_match_serial(self, clicks, engine):
        def run(executor):
            cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
            cluster.hdfs.write_records("in", clicks)
            config = JobConfig(
                num_reducers=2,
                map_buffer_bytes=64 * 1024,
                reduce_buffer_bytes=96 * 1024,
                merge_factor=3,
            )
            job = sessionization_job("in", "out", config=config)
            if engine == "hadoop":
                runner = HadoopEngine(cluster, executor=executor)
            else:
                # Low back-pressure makes pipelined map tasks stage chunks
                # to disk, which is HOP's map-side spill.
                hop = HOPConfig(backpressure_bytes=16 * 1024)
                runner = HOPEngine(cluster, hop_config=hop, executor=executor)
            counters = runner.run(job).counters
            return {
                name: counters[name]
                for name in (C.SHUFFLE_BYTES, C.MAP_SPILL_BYTES, C.REDUCE_SPILL_BYTES)
            }

        serial = run(None)
        assert all(serial.values()), serial
        assert run("processes:2") == serial
