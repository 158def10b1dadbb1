"""Variant probe: records/sec per engine for each executor and the batch path.

Not a gated metric.  Run from the repository root::

    python3 e2ebench/probe.py --workload pagefreq-combine --seed 1 --reps 3

For one workload it times every engine under four variants: the serial
tuple path, the serial ``--batch`` path, ``threads:2`` and
``processes:2``.  Jobs are interleaved round-robin across variants and
engines; each cell is the median of ``--reps`` wall-clock runs, with the
min-max range beside it.  (Scaling each job by the calibration kernel, as
``run.py`` does, adds the kernel's own noise to every job; that pays off
over a run's ten jobs per engine, not over three.)  Every output is
checked like the benchmark's.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import Checker, load_input, run_job  # first: puts the repository's src on sys.path
from workloads import ENGINES, WORKLOADS

from repro.mapreduce.counters import C

VARIANTS = {
    "serial": (None, False),
    "batch": (None, True),
    "threads:2": ("threads:2", False),
    "processes:2": ("processes:2", False),
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    records, cluster, _ = load_input(workload, args.seed, 1.0)
    expected = workload.oracle(records)
    checker = Checker()
    rates: dict[str, dict[str, list[float]]] = {v: {e: [] for e in ENGINES} for v in VARIANTS}
    for _ in range(args.reps):
        for variant, (executor, batch) in VARIANTS.items():
            for engine in ENGINES:
                job = run_job(cluster, workload, engine, 1.0, expected, checker,
                              executor=executor, batch=batch)
                if job is not None:
                    rates[variant][engine].append(
                        job.counters[C.MAP_INPUT_RECORDS] / job.wall_s
                    )

    table = {
        v: {
            e: {"median": statistics.median(r), "min": min(r), "max": max(r)}
            for e, r in per_engine.items() if r
        }
        for v, per_engine in rates.items()
    }
    print(f"{workload.name} (seed {args.seed}, {args.reps} reps): records/s, median [min-max]")
    print(f"  {'variant':<13}" + "".join(f"{e:>28}" for e in ENGINES))
    for variant, row in table.items():
        cells = "".join(
            f"{row[e]['median']:>12.0f} [{row[e]['min']:.0f}-{row[e]['max']:.0f}]".rjust(28)
            for e in ENGINES if e in row
        )
        print(f"  {variant:<13}{cells}")
    serial = table["serial"]
    for variant in VARIANTS:
        if variant == "serial":
            continue
        ratios = ", ".join(
            f"{e} {table[variant][e]['median'] / serial[e]['median'] - 1:+.0%}"
            for e in ENGINES if e in table[variant] and e in serial
        )
        print(f"  {variant} vs serial: {ratios}")
    print(f"jobs attempted {checker.attempted}, failed {checker.failed}")
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
