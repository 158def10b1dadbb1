"""End-to-end and per-layer benchmark of the three engines.

Run from the repository root::

    python3 e2ebench/run.py --workload sessionize-spill --seed 1 --seconds 34 --trace 0

``--trace 0`` times the engines' public ``run()`` with tracing off,
scales each job's seconds to the reference speed of the calibration
kernel timed around it (``calibrate.py``), and prints the end-to-end
metrics; ``--trace 1`` runs the traced pass and prints the per-layer
metrics (see ``e2ebench/README.md``).  Every job's
output is checked against the reference oracle in ``repro.workloads`` and
against the other engines.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any job failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import dataclasses
from dataclasses import dataclass
from typing import Any

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"e2ebench: the repro package was not found under {_SRC}")
sys.path.insert(0, _SRC)

from repro.mapreduce.counters import C  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402

from calibrate import calibrate, scaled  # noqa: E402
from layers import (  # noqa: E402
    LAYERS,
    LayerTracer,
    MissingTargets,
    changed_attrs,
    measure_overhead,
    missing_targets,
    snapshot_attrs,
)
from workloads import (  # noqa: E402
    ENGINES,
    OUTPUT_PATH,
    WORKLOADS,
    Workload,
    canonical_output,
    load,
    make_engine,
    make_job,
)

MB = 1e6

#: Timed rounds (one job per engine each) a run makes at least, whatever
#: ``--seconds`` says.
MIN_ROUNDS = 3
#: The warm-up jobs run on this share of the input before timing starts.
WARMUP_SCALE = 0.05
#: Set-ups repeated after the timed rounds, besides the one that loads the
#: jobs' input; ``setup_s`` is the median of them all.
EXTRA_SETUPS = 6


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


def end_to_end_metrics() -> list[Metric]:
    out = []
    for e in ENGINES:
        out.append(Metric(f"{e}.records_per_s", "1/s", "higher"))
        out.append(Metric(f"{e}.disk_mb", "MB", "lower"))
    out += [
        Metric("setup_s", "s", "lower"),
        Metric("peak_rss_mb", "MB", "lower"),
        Metric("ok_share", "ratio", "higher"),
    ]
    return out


_COMMON_LAYER = [
    ("hdfs.read_s", "s"), ("hdfs.read_mb", "MB"), ("hdfs.write_s", "s"),
    ("io.decode_s", "s"), ("io.size_estimate_s", "s"), ("io.size_estimate_calls", "count"),
    ("io.run_write_s", "s"), ("io.run_read_s", "s"), ("io.disk_ops", "count"),
    ("io.disk_busy_s", "s"),
    ("workloads.map_fn_s", "s"), ("workloads.reduce_fn_s", "s"),
    ("workloads.combine_fn_s", "s"),
]
_MAPREDUCE_LAYER = [
    ("mapreduce.map_task_s", "s"), ("mapreduce.spill_s", "s"), ("mapreduce.spills", "count"),
    ("mapreduce.shuffle_s", "s"), ("mapreduce.shuffle_mb", "MB"), ("mapreduce.merge_s", "s"),
    ("mapreduce.merge_passes", "count"), ("mapreduce.merge_read_mb", "MB"),
    ("mapreduce.reduce_task_s", "s"),
]
_CORE_LAYER = [
    ("core.map_s", "s"), ("core.reduce_accept_s", "s"), ("core.reduce_finish_s", "s"),
    ("core.spill_mb", "MB"), ("core.state_peak_mb", "MB"),
]
_TAIL_LAYER = [
    ("exec.dispatch_s", "s"), ("exec.tasks", "count"), ("exec.spec_mb", "MB"),
    ("obs.null_tracer_s", "s"), ("engine.self_s", "s"), ("engine.unattributed_share", "ratio"),
    ("obs.tracer_ratio", "ratio"), ("bench.wrap_ratio", "ratio"),
    ("bench.wrap_subtracted_s", "s"),
]


def per_layer_metrics() -> list[Metric]:
    out = []
    for e in ENGINES:
        own = _CORE_LAYER if e == "onepass" else _MAPREDUCE_LAYER
        # Every layer metric is a cost: time, bytes, operations or overhead.
        out += [
            Metric(f"{e}.{name}", unit, "lower")
            for name, unit in _COMMON_LAYER + own + _TAIL_LAYER
        ]
    return out


# -- running and checking jobs -------------------------------------------------


@dataclass
class Job:
    """One finished engine run."""

    wall_s: float
    #: ``wall_s`` at the calibration kernel's reference speed.
    scaled_s: float
    counters: Any
    disk: Any
    #: Peak resident MB of the processes that ran ``run()`` (see
    #: :func:`peak_rss_mb`).
    peak_mb: float
    #: The traced pass's spans of this job, when it ran wrapped.
    rec: Any = None


@dataclass
class Checker:
    """Counts attempted and failed jobs; a job fails when it raises or when
    its output differs from the oracle or from another engine's."""

    attempted: int = 0
    failed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def run_job(
    cluster: Any,
    workload: Workload,
    engine: str,
    scale: float,
    expected: list[Any],
    checker: Checker,
    *,
    executor: str | None = None,
    batch: bool = False,
    tracer: Any = None,
    wrap: LayerTracer | None = None,
    peers: dict[str, str] | None = None,
) -> Job | None:
    """Run one job, time its ``run()``, check its output, delete it.

    ``peers`` holds digests of the outputs other engines produced on the
    same input; the output must match each of them as well as ``expected``.
    The calibration kernel runs right before and right after ``run()``,
    each time on a freshly collected heap and with the job's objects gone.
    """
    checker.attempted += 1
    job = make_job(workload, engine, scale, batch=batch)
    if wrap is not None:
        job = _wrap_user_fns(wrap, job)
    eng = make_engine(engine, cluster, executor, tracer)
    gc.collect()
    speed_before = calibrate()
    before = cluster.total_disk_stats()
    try:
        reset_peak_rss()
        t0 = time.perf_counter()
        result = eng.run(job)
        wall = time.perf_counter() - t0
        peak_mb = peak_rss_mb()
        counters = result.counters
        # Take the spans before the output check reads HDFS through them.
        rec = wrap.take() if wrap is not None else None
        disk = cluster.total_disk_stats().delta(before)
        del eng, result
        gc.collect()
        speed_after = calibrate()
        output = canonical_output(cluster)
    except Exception as exc:  # a failing job is counted, not fatal
        checker.fail(f"{workload.name}/{engine}: {type(exc).__name__}: {exc}")
        return None
    finally:
        if cluster.hdfs.namenode.exists(OUTPUT_PATH):
            cluster.hdfs.delete_file(OUTPUT_PATH)
    if output != expected:
        checker.fail(f"{workload.name}/{engine}: output differs from the oracle")
        return None
    digest = hashlib.sha256(repr(output).encode()).hexdigest()
    del output
    for other, other_digest in (peers or {}).items():
        if other_digest != digest:
            checker.fail(f"{workload.name}/{engine}: output differs from {other}")
            return None
    if peers is not None:
        peers[engine] = digest
    return Job(wall, scaled(wall, speed_before, speed_after), counters, disk, peak_mb, rec)


_CLEAR_REFS = "/proc/self/clear_refs"


def reset_peak_rss() -> None:
    """Reset this process's resident high-water mark to its current size,
    so that :func:`peak_rss_mb` sees only what follows.  Where the kernel
    does not allow it, the mark keeps covering the whole process life."""
    try:
        with open(_CLEAR_REFS, "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident MB since :func:`reset_peak_rss`, of this process or of
    any worker process it forked and reaped (``ru_maxrss`` of the children
    cannot be reset; the benchmark forks workers only inside jobs)."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own_kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Both are in KiB on Linux.
    return max(own_kib, children_kib) * 1024 / MB


def _wrap_user_fns(wrap: LayerTracer, job: Any) -> Any:
    fns = {"map_fn": "workloads.map_fn", "reduce_fn": "workloads.reduce_fn",
           "combine_fn": "workloads.combine_fn", "finalize": "workloads.reduce_fn"}
    changes = {
        attr: wrap.wrap_fn(key, getattr(job, attr))
        for attr, key in fns.items()
        if getattr(job, attr, None) is not None
    }
    return dataclasses.replace(job, **changes)


def load_input(workload: Workload, seed: int, scale: float) -> tuple[list[Any], Any, float]:
    """Generate the input and write it to a fresh cluster's HDFS; return the
    input, the cluster and the set-up's seconds at reference speed."""
    speed_before = calibrate()
    t0 = time.perf_counter()
    records = workload.records(seed, scale)
    cluster = load(workload, records)
    wall = time.perf_counter() - t0
    return records, cluster, scaled(wall, speed_before, calibrate())


def warm_up(workload: Workload, seed: int, scale: float, checker: Checker) -> None:
    """Run every engine once on a small input so imports and lazy set-up
    happen before timing."""
    scale *= WARMUP_SCALE
    records = workload.records(seed, scale)
    cluster = load(workload, records)
    expected = workload.oracle(records)
    peers: dict[str, str] = {}
    for engine in ENGINES:
        run_job(cluster, workload, engine, scale, expected, checker,
                executor=workload.executor, peers=peers)


def _rotated(r: int) -> tuple[str, ...]:
    k = r % len(ENGINES)
    return ENGINES[k:] + ENGINES[:k]


# -- the timed pass (--trace 0) --------------------------------------------------


def timed_pass(
    workload: Workload, seed: int, seconds: float, scale: float, checker: Checker
) -> dict[str, float]:
    records, cluster, setup_s = load_input(workload, seed, scale)
    setups = [setup_s]
    expected = workload.oracle(records)
    warm_up(workload, seed, scale, checker)
    gc.collect()
    gc.freeze()  # the input and oracle stay alive; keep them out of GC scans

    rates: dict[str, list[float]] = {e: [] for e in ENGINES}
    raw_rates: dict[str, list[float]] = {e: [] for e in ENGINES}
    disk_mb: dict[str, list[float]] = {e: [] for e in ENGINES}
    peaks: dict[str, list[float]] = {e: [] for e in ENGINES}
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        peers: dict[str, str] = {}
        walls = []
        for engine in _rotated(r):
            job = run_job(cluster, workload, engine, scale, expected, checker,
                          executor=workload.executor, peers=peers)
            if job is None:
                continue
            walls.append(f"{engine} {job.wall_s:.3f} s ({job.scaled_s:.3f} scaled)")
            records_in = job.counters[C.MAP_INPUT_RECORDS]
            rates[engine].append(records_in / job.scaled_s)
            raw_rates[engine].append(records_in / job.wall_s)
            disk_mb[engine].append((job.disk.bytes_read + job.disk.bytes_written) / MB)
            if r < MIN_ROUNDS:
                peaks[engine].append(job.peak_mb)
        print(f"round {r}: " + ", ".join(walls))
        r += 1
    print(f"{workload.name}: {r} timed rounds in {time.perf_counter() - start:.1f} s")

    # The repeated set-ups come after every job, so that their discarded
    # copies of the input cannot add to a job's resident memory.
    del records, expected, cluster
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        setups.append(load_input(workload, seed, scale)[2])
    metrics: dict[str, float] = {}
    for e in ENGINES:
        metrics[f"{e}.records_per_s"] = _median(rates[e])
        metrics[f"{e}.disk_mb"] = _median(disk_mb[e])
        print(f"  {e}: records/s median {metrics[f'{e}.records_per_s']:.0f} of "
              f"{len(rates[e])} jobs at reference speed, {_median(raw_rates[e]):.0f} by the "
              f"wall clock; disk MB per job {sorted(set(round(d, 6) for d in disk_mb[e]))}; "
              f"peak resident MB {max(peaks[e], default=float('nan')):.1f}")
    metrics["setup_s"] = statistics.median(setups)
    # Only the rounds every run makes count: the process's resident size
    # creeps up from job to job (under ``processes:2`` by about 2.5 MB a
    # job), and the number of rounds depends on the machine's speed.
    metrics["peak_rss_mb"] = max((p for ps in peaks.values() for p in ps), default=float("nan"))
    metrics["ok_share"] = (checker.attempted - checker.failed) / max(1, checker.attempted)
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


# -- the traced pass (--trace 1) -------------------------------------------------


def layer_metrics(
    engine: str, rec: Any, job: Job, wrap_ratio: float, tracer_ratio: float
) -> dict[str, float]:
    s, calls, c, disk = rec.self_s, rec.calls, job.counters, job.disk
    wall = job.wall_s - rec.subtracted_s
    m = {
        "hdfs.read_s": s["hdfs.read"],
        "hdfs.read_mb": rec.bytes["hdfs.read"] / MB,
        "hdfs.write_s": s["hdfs.write"],
        "io.decode_s": s["io.decode"],
        "io.size_estimate_s": s["io.size_estimate"],
        "io.size_estimate_calls": calls["io.size_estimate"],
        "io.run_write_s": s["io.run_write"],
        "io.run_read_s": s["io.run_read"],
        "io.disk_ops": disk.read_ops + disk.write_ops,
        "io.disk_busy_s": disk.busy_time,
        "workloads.map_fn_s": s["workloads.map_fn"],
        "workloads.reduce_fn_s": s["workloads.reduce_fn"],
        "workloads.combine_fn_s": s["workloads.combine_fn"],
    }
    if engine == "onepass":
        m.update({
            "core.map_s": s["core.map"],
            "core.reduce_accept_s": s["core.reduce_accept"],
            "core.reduce_finish_s": s["core.reduce_finish"],
            "core.spill_mb": c[C.REDUCE_SPILL_BYTES] / MB,
            "core.state_peak_mb": c[C.HASH_STATE_BYTES_PEAK] / MB,
        })
    else:
        m.update({
            "mapreduce.map_task_s": s["mapreduce.map_task"],
            "mapreduce.spill_s": s["mapreduce.spill"],
            "mapreduce.spills": c[C.MAP_SPILLS] + c[C.REDUCE_SPILLS],
            "mapreduce.shuffle_s": s["mapreduce.shuffle"],
            "mapreduce.shuffle_mb": c[C.SHUFFLE_BYTES] / MB,
            "mapreduce.merge_s": s["mapreduce.merge"],
            "mapreduce.merge_passes": c[C.MERGE_PASSES],
            "mapreduce.merge_read_mb": c[C.MERGE_READ_BYTES] / MB,
            "mapreduce.reduce_task_s": s["mapreduce.reduce_task"],
        })
    m.update({
        "exec.dispatch_s": s["exec.dispatch"],
        "exec.tasks": rec.tasks,
        "exec.spec_mb": rec.bytes["exec.spec"] / MB,
        "obs.null_tracer_s": s["obs.null_tracer"],
        "engine.self_s": s["engine.run"],
        "engine.unattributed_share": s["engine.run"] / wall,
        "obs.tracer_ratio": tracer_ratio,
        "bench.wrap_ratio": wrap_ratio,
        "bench.wrap_subtracted_s": rec.subtracted_s,
    })
    return m


def layer_table(rec: Any, wall_s: float) -> dict[str, dict[str, float]]:
    """Self seconds, share and span count per layer; the share is of the
    traced job's wall less the wrapper cost the recorder subtracted.  The
    engine's own self time is the ``unattributed`` row."""
    self_s = rec.layer_self_s()
    wall_s -= rec.subtracted_s
    spans = {layer: 0 for layer in LAYERS}
    for key, n in rec.calls.items():
        spans[key.split(".", 1)[0]] += n
    return {
        ("unattributed" if layer == "engine" else layer): {
            "self_s": self_s[layer],
            "share": self_s[layer] / wall_s,
            "spans": spans[layer],
        }
        for layer in LAYERS
    }


def traced_pass(
    workload: Workload, seed: int, seconds: float, scale: float, checker: Checker,
    report_dir: str,
) -> dict[str, float]:
    missing = missing_targets()
    if missing:
        raise MissingTargets(missing)
    snapshot = snapshot_attrs()
    records, cluster, _ = load_input(workload, seed, scale)
    expected = workload.oracle(records)
    warm_up(workload, seed, scale, checker)
    gc.collect()
    gc.freeze()

    reps: dict[str, list[dict]] = {e: [] for e in ENGINES}
    start = time.perf_counter()
    r = 0
    while r < 1 or time.perf_counter() - start < seconds:
        peers: dict[str, str] = {}
        for engine in _rotated(r):
            kw = dict(executor=workload.executor, peers=peers)
            # The three variants run back to back so a slow spell of the
            # box hits a ratio's numerator and denominator alike.  Wrappers
            # exist only around the wrapped job and are checked gone before
            # the next one.
            plain = run_job(cluster, workload, engine, scale, expected, checker, **kw)
            with LayerTracer(overhead=measure_overhead()) as wrap:
                wrapped = run_job(cluster, workload, engine, scale, expected, checker,
                                  wrap=wrap, **kw)
            leftover = changed_attrs(snapshot)
            if leftover:
                raise RuntimeError(f"program attributes still wrapped: {leftover}")
            traced = run_job(cluster, workload, engine, scale, expected, checker,
                             tracer=Tracer(), **kw)
            if plain and wrapped and traced:
                reps[engine].append({"job": wrapped, "plain": plain.wall_s,
                                     "tracer": traced.wall_s})
        r += 1

    metrics: dict[str, float] = {}
    report: dict[str, Any] = {"workload": workload.name, "seed": seed, "scale": scale,
                              "engines": {}}
    for engine in ENGINES:
        if not reps[engine]:
            continue
        # The round with the median wrapped job stands for the engine; the
        # ratios are medians of each round's back-to-back ratios.
        ordered = sorted(reps[engine], key=lambda rep: rep["job"].wall_s)
        middle = ordered[(len(ordered) - 1) // 2]
        job, rec = middle["job"], middle["job"].rec
        wrap_ratio = statistics.median(rep["job"].wall_s / rep["plain"] for rep in ordered)
        tracer_ratio = statistics.median(rep["tracer"] / rep["plain"] for rep in ordered)
        values = layer_metrics(engine, rec, job, wrap_ratio, tracer_ratio)
        metrics.update({f"{engine}.{name}": v for name, v in values.items()})
        entry = {
            "reps": len(reps[engine]),
            "wall_s": {"wrapped": job.wall_s, "plain": middle["plain"],
                       "tracer": middle["tracer"], "subtracted": rec.subtracted_s},
            "overhead_per_span_s": dataclasses.asdict(rec.overhead),
            "layers": layer_table(rec, job.wall_s),
            "spans": {k: {"self_s": v, "calls": rec.calls[k], "bytes": rec.bytes.get(k, 0)}
                      for k, v in sorted(rec.self_s.items())},
            "metrics": values,
        }
        report["engines"][engine] = entry
        print_layer_table(workload.name, engine, entry)
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, f"{workload.name}-seed{seed}-layers.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"\nlayer report written to {path}")
    return metrics


def print_layer_table(workload: str, engine: str, rep: dict) -> None:
    wall, m = rep["wall_s"], rep["metrics"]
    print(f"\n{workload} / {engine}, median round of {rep['reps']}: traced job "
          f"{wall['wrapped']:.3f} s, of which {wall['subtracted']:.3f} s wrapper cost "
          f"subtracted; untraced {wall['plain']:.3f} s; median ratios: "
          f"wrap {m['bench.wrap_ratio']:.2f}, tracer on {m['obs.tracer_ratio']:.2f}")
    print(f"  {'layer':<14}{'self s':>10}{'share':>9}{'spans':>10}")
    for layer, row in rep["layers"].items():
        print(f"  {layer:<14}{row['self_s']:>10.3f}{row['share']:>9.1%}{row['spans']:>10}")
    counts = {k: v for k, v in rep["metrics"].items() if not k.endswith("_s")}
    print("  counts: " + ", ".join(f"{k}={v:.4g}" for k, v in counts.items()))


# -- entry point ------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size relative to the workload's nominal size")
    p.add_argument("--report-dir", default=".e2ebench_out",
                   help="where the traced pass writes its JSON layer report")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    checker = Checker()
    if args.trace:
        try:
            values = traced_pass(workload, args.seed, args.seconds, args.scale, checker,
                                 args.report_dir)
        except MissingTargets as exc:
            print(f"e2ebench: {exc}", file=sys.stderr)
            return 2
        defs = per_layer_metrics()
    else:
        values = timed_pass(workload, args.seed, args.seconds, args.scale, checker)
        defs = end_to_end_metrics()
    print()
    for m in defs:
        print(f"{m.name:<40}{values.get(m.name, float('nan')):>14.6g} {m.unit:<6} "
              f"({m.better} is better)")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in defs if m.name in values},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
