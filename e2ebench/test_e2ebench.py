"""Tests of the benchmark itself, at a tiny input size.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the repository's src on sys.path)
from layers import (  # noqa: E402
    TARGETS,
    LayerTracer,
    MissingTargets,
    Target,
    changed_attrs,
    measure_overhead,
    snapshot_attrs,
)
from workloads import ENGINES, WORKLOADS, load  # noqa: E402

SCALE = "0.02"
_RUNS: dict[tuple[str, int, int], tuple[dict, list[str], str]] = {}


def bench(workload: str, trace: int, seed: int, report_dir: str) -> tuple[dict, list[str], str]:
    """Run the benchmark once (cached); return (result JSON, stdout lines, report dir)."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--scale", SCALE, "--report-dir", report_dir],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-1]), lines, report_dir)
    return _RUNS[key]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory: pytest.TempPathFactory) -> str:
    return str(tmp_path_factory.mktemp("layers"))


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _defs(metrics: list[run.Metric]) -> list[dict]:
    return [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics]


def test_metric_definitions_match_benchmark_json(spec: dict) -> None:
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["end_to_end"]] == _defs(
        run.end_to_end_metrics()
    )
    assert spec["per_layer"] == _defs(run.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit_and_direction(
    workload: str, trace: int, report_dir: str
) -> None:
    result, lines, _ = bench(workload, trace, 1, report_dir)
    defs = run.per_layer_metrics() if trace else run.end_to_end_metrics()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m.name for m in defs]
    for m in defs:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert isinstance(result["metrics"][m.name]["value"], (int, float))
        printed = [ln for ln in lines if ln.split() and ln.split()[0] == m.name]
        assert printed and printed[0].endswith(f"({m.better} is better)")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_job_fails(workload: str, trace: int, report_dir: str) -> None:
    result, _, _ = bench(workload, trace, 1, report_dir)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * len(ENGINES)
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_traced_pass_reports_every_layer(report_dir: str) -> None:
    bench("sessionize-spill", 1, 1, report_dir)
    with open(os.path.join(report_dir, "sessionize-spill-seed1-layers.json")) as fh:
        report = json.load(fh)
    assert sorted(report["engines"]) == sorted(ENGINES)
    for engine, data in report["engines"].items():
        own = "core" if engine == "onepass" else "mapreduce"
        for layer in ("workloads", "hdfs", "io", own, "exec", "obs", "unattributed"):
            assert data["layers"][layer]["spans"] > 0, (engine, layer)
        shares = sum(row["share"] for row in data["layers"].values())
        assert shares == pytest.approx(1.0, abs=0.01)
        assert data["metrics"]["obs.tracer_ratio"] > 0
        assert 0 < data["wall_s"]["subtracted"] < data["wall_s"]["wrapped"]


def test_missing_target_fails_before_anything_is_wrapped() -> None:
    snapshot = snapshot_attrs()
    gone = Target("repro.hdfs.filesystem:HDFS", "no_such_method", "hdfs.read")
    with pytest.raises(MissingTargets, match="HDFS.no_such_method"):
        with LayerTracer(TARGETS + (gone,)):
            pass
    assert changed_attrs(snapshot) == []


def test_wrapper_overhead_is_taken_out_of_self_time() -> None:
    # An empty span nested in another: with the measured overhead taken
    # out, both self times are close to zero, not to the wrappers' cost.
    n = 20_000
    tracer = LayerTracer(targets=(), overhead=measure_overhead())
    inner = tracer.wrap_fn("probe.inner", tuple)

    def outer() -> None:
        for _ in range(n):
            for _ in inner():
                pass

    bare = LayerTracer(targets=())
    bare_inner = bare.wrap_fn("probe.inner", tuple)

    def bare_outer() -> None:
        for _ in range(n):
            for _ in bare_inner():
                pass

    tracer.rec.call("probe.outer", outer, (), {})
    bare.rec.call("probe.outer", bare_outer, (), {})
    corrected = tracer.rec.self_s["probe.outer"] + tracer.rec.self_s["probe.inner"]
    raw = bare.rec.self_s["probe.outer"] + bare.rec.self_s["probe.inner"]
    assert corrected < 0.5 * raw
    assert tracer.rec.subtracted_s > 0.5 * raw


def test_wrappers_are_restored() -> None:
    snapshot = snapshot_attrs()
    assert len(snapshot) == len(TARGETS)
    with pytest.raises(ZeroDivisionError):
        with LayerTracer():
            assert sorted(changed_attrs(snapshot)) == sorted(snapshot)
            1 / 0
    assert changed_attrs(snapshot) == []


def test_failed_job_is_counted() -> None:
    workload = WORKLOADS["pagefreq-combine"]
    records = workload.records(1, 0.002)
    cluster = load(workload, records)
    checker = run.Checker()
    wrong = workload.oracle(records)[1:]
    assert run.run_job(cluster, workload, "hadoop", 0.002, wrong, checker) is None
    assert (checker.attempted, checker.failed) == (1, 1)
    assert not cluster.hdfs.namenode.exists("out")


def test_seed_changes_inputs_not_metric_set(report_dir: str) -> None:
    for workload in WORKLOADS.values():
        assert workload.records(1, 0.02) == workload.records(1, 0.02)
        assert workload.records(1, 0.02) != workload.records(2, 0.02)
    one, _, _ = bench("pagefreq-combine", 0, 1, report_dir)
    two, _, _ = bench("pagefreq-combine", 0, 2, report_dir)
    assert list(one["metrics"]) == list(two["metrics"])


def test_refuses_to_run_without_the_program(tmp_path: pytest.TempPathFactory) -> None:
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "pagefreq-combine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
