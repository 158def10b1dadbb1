"""The traced pass: wrappers around each layer's entry points.

The program itself has no per-layer spans yet, so the benchmark makes
them from outside: :class:`LayerTracer` replaces each attribute in
:data:`TARGETS` with a wrapper that times the call (and, for calls that
return an iterator, every ``next`` on it) and restores the original
objects on :meth:`LayerTracer.remove`.  Spans nest on one stack, so a
span's *self time* is its duration minus the spans opened inside it, and
the self times of one job add up to its wall time.  The root span is the
engine's ``run``; its self time is what no layer claims (scheduling,
effect replay, absorb, commit) and is reported as ``unattributed``.

The wrappers cost time of their own, most of it outside the timed window
of the span they open, and so inside the enclosing span.
:func:`measure_overhead` times the wrappers around an empty call and an
empty iterator, and the recorder subtracts that fixed cost per span as it
goes: from the enclosing span for the part outside the window, from the
span itself for the part inside.  ``Recorder.subtracted_s`` is the total.

Wrappers record only in the process that installed them.  Under a
process executor the kernels run in forked workers, whose spans are
lost; their work shows only through the job's counters.
"""

from __future__ import annotations

import importlib
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "LAYERS",
    "TARGETS",
    "Target",
    "Recorder",
    "LayerTracer",
    "MissingTargets",
    "Overhead",
    "measure_overhead",
    "missing_targets",
    "snapshot_attrs",
    "changed_attrs",
]

#: The layers of the repository, by module, in report order.  ``engine``
#: is the coordinators' own ``run`` loop; ``bench`` is the benchmark's
#: measuring cost (pickling specs to size them).
LAYERS = ("workloads", "hdfs", "io", "mapreduce", "core", "exec", "obs", "engine", "bench")


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    key: str
    #: ``call`` times the call; ``iter`` also times each ``next`` on the
    #: iterator the call returns; ``exec`` is ``call`` plus task and spec
    #: accounting; ``bytes`` is ``call`` plus the length of the result.
    kind: str = "call"


def _fn(modules: tuple[str, ...], attr: str, key: str, kind: str = "call") -> list[Target]:
    """A module-level function wrapped at every name it is imported under."""
    return [Target(m, attr, key, kind) for m in modules]


_SESSIONS = ("repro.exec.base:_InlineSession", "repro.exec.base:_ThreadSession",
             "repro.exec.base:_ForkSession")

TARGETS: tuple[Target, ...] = tuple(
    [
        # engine: the root span of every job.
        Target("repro.mapreduce.runtime:HadoopEngine", "run", "engine.run"),
        Target("repro.mapreduce.hop:HOPEngine", "run", "engine.run"),
        Target("repro.core.engine:OnePassEngine", "run", "engine.run"),
        # hdfs
        Target("repro.hdfs.filesystem:HDFS", "read_block_bytes", "hdfs.read", "bytes"),
        Target("repro.hdfs.filesystem:HDFS", "append_block", "hdfs.write"),
        # io
        Target("repro.io.serialization:BinaryCodec", "decode", "io.decode", "iter"),
        Target("repro.io.serialization:TextLineCodec", "decode", "io.decode", "iter"),
        *_fn(
            ("repro.mapreduce.sortmerge", "repro.core.partitioner",
             "repro.core.aggregates", "repro.core.hash_tables"),
            "estimate_size", "io.size_estimate",
        ),
        *_fn(
            ("repro.mapreduce.sortmerge", "repro.mapreduce.merge", "repro.mapreduce.hop",
             "repro.mapreduce.recovery", "repro.exec.kernels"),
            "write_run", "io.run_write",
        ),
        Target("repro.io.runio:RunWriter", "_flush", "io.run_write"),
        *_fn(
            ("repro.mapreduce.sortmerge", "repro.mapreduce.merge", "repro.mapreduce.hop",
             "repro.mapreduce.recovery", "repro.exec.kernels", "repro.core.hybrid_hash",
             "repro.core.hotset"),
            "stream_run", "io.run_read", "iter",
        ),
        Target("repro.mapreduce.shuffle", "read_run", "io.run_read"),
        # mapreduce: sort-merge and pipelined tasks, shuffle, merge
        Target("repro.mapreduce.sortmerge:SortMergeMapTask", "run", "mapreduce.map_task"),
        Target("repro.mapreduce.hop:_PipelinedMapTask", "run", "mapreduce.map_task"),
        Target("repro.mapreduce.sortmerge:_SortSpillBuffer", "spill", "mapreduce.spill"),
        Target("repro.mapreduce.sortmerge:_BatchSortSpillBuffer", "spill", "mapreduce.spill"),
        Target("repro.mapreduce.sortmerge:_SortSpillBuffer", "finish", "mapreduce.spill"),
        Target("repro.mapreduce.hop:_PipelinedMapTask", "_emit_chunk", "mapreduce.spill"),
        Target("repro.mapreduce.hop:_PipelinedMapTask", "_emit_buckets", "mapreduce.spill"),
        Target("repro.mapreduce.sortmerge:SortMergeReduceTask", "_spill_memory",
               "mapreduce.spill"),
        Target("repro.mapreduce.hop:PipelinedReduceTask", "_spill_memory", "mapreduce.spill"),
        Target("repro.mapreduce.shuffle:ShuffleService", "fetch", "mapreduce.shuffle"),
        Target("repro.mapreduce.sortmerge:SortMergeReduceTask", "accept_segment",
               "mapreduce.shuffle"),
        Target("repro.mapreduce.hop:HOPEngine", "_deliver_live", "mapreduce.shuffle"),
        Target("repro.mapreduce.hop:PipelinedReduceTask", "accept_chunk", "mapreduce.shuffle"),
        *_fn(("repro.mapreduce.sortmerge", "repro.mapreduce.merge", "repro.mapreduce.hop"),
             "merge_sorted", "mapreduce.merge", "iter"),
        Target("repro.mapreduce.merge:MultiPassMerger", "add_run", "mapreduce.merge"),
        Target("repro.mapreduce.merge:MultiPassMerger", "final_merge", "mapreduce.merge", "iter"),
        Target("repro.mapreduce.sortmerge:SortMergeReduceTask", "run", "mapreduce.reduce_task"),
        Target("repro.mapreduce.hop:PipelinedReduceTask", "run", "mapreduce.reduce_task"),
        Target("repro.mapreduce.hop:PipelinedReduceTask", "snapshot", "mapreduce.snapshot"),
        # core: the one-pass engine's map, hash backends and finish
        Target("repro.core.engine", "execute_onepass_map", "core.map"),
        Target("repro.core.engine:OnePassReduceTask", "accept", "core.reduce_accept"),
        Target("repro.core.engine:OnePassReduceTask", "finish", "core.reduce_finish"),
        Target("repro.core.hybrid_hash:HybridHashGrouper", "finish", "core.reduce_finish",
               "iter"),
        # exec: coordinator side of every dispatch
        *[Target(s, a, "exec.dispatch", "exec") for s in _SESSIONS
          for a in ("run_batch", "run_one")],
        # obs: the (disabled) tracer the engines call
        *[Target("repro.obs.tracer:NullTracer", a, "obs.null_tracer")
          for a in ("span", "event", "add_span", "export", "absorb")],
    ]
)

_perf = time.perf_counter


@dataclass(frozen=True)
class Overhead:
    """Seconds one wrapped span adds to the enclosing span (``*_out``) and
    to its own self time (``*_in``), for a call and for one ``next``;
    ``iter_*`` is the extra cost of handing out a timed iterator and of
    its final, empty ``next``."""

    call_out: float = 0.0
    call_in: float = 0.0
    step_out: float = 0.0
    step_in: float = 0.0
    iter_out: float = 0.0
    iter_in: float = 0.0


class Recorder:
    """Per-key self time, call counts and byte counts of one job, with the
    wrappers' own cost (``overhead``) taken out of the self times."""

    def __init__(self, overhead: Overhead = Overhead()) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.tasks = 0
        self.steps = 0
        self.iters = 0
        self.overhead = overhead
        # Child-time accumulator of each open span; slot 0 is "no span".
        self._stack = [0.0]
        self._exec_depth = 0

    @property
    def subtracted_s(self) -> float:
        """The wrapper cost taken out of the self times."""
        o = self.overhead
        return (sum(self.calls.values()) * (o.call_out + o.call_in)
                + self.steps * (o.step_out + o.step_in) + self.iters * (o.iter_out + o.iter_in))

    def call(self, key: str, fn: Callable[..., Any], args: Any, kwargs: Any) -> Any:
        stack = self._stack
        stack.append(0.0)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _perf() - t0
            o = self.overhead
            self.self_s[key] += dt - stack.pop() - o.call_in
            stack[-1] += dt + o.call_out
            self.calls[key] += 1

    def step(self, key: str, nxt: Callable[[], Any]) -> Any:
        """Time one ``next`` on a wrapped iterator (StopIteration passes)."""
        stack = self._stack
        stack.append(0.0)
        t0 = _perf()
        try:
            return nxt()
        finally:
            dt = _perf() - t0
            o = self.overhead
            self.self_s[key] += dt - stack.pop() - o.step_in
            stack[-1] += dt + o.step_out
            self.steps += 1

    def timed_iter(self, key: str, it: Iterator[Any]) -> Iterator[Any]:
        """``it`` with every ``next`` timed as a ``key`` span."""
        self._stack[-1] += self.overhead.iter_out
        self.self_s[key] -= self.overhead.iter_in
        self.iters += 1
        return _timed_iter(self, key, it)

    def dispatch(self, key: str, fn: Callable[..., Any], args: Any, kwargs: Any) -> Any:
        """An executor call: count tasks and pickled spec bytes once per
        outermost dispatch (a session may delegate to the inline one)."""
        if self._exec_depth == 0:
            specs = args[2] if fn.__name__ == "run_batch" else [args[2]]
            self.tasks += len(specs)
            self.call("bench.spec_pickle", _pickled_size, (self, specs), {})
        self._exec_depth += 1
        try:
            return self.call(key, fn, args, kwargs)
        finally:
            self._exec_depth -= 1

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out


def _pickled_size(rec: Recorder, specs: Any) -> None:
    rec.bytes["exec.spec"] += sum(len(pickle.dumps(s)) for s in specs)


def _make_wrapper(tracer: "LayerTracer", target: Target, original: Any) -> Any:
    """A wrapper recording into ``tracer.rec``, the current job's recorder."""
    key = target.key
    if target.kind == "iter":

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            rec = tracer.rec
            return rec.timed_iter(key, iter(rec.call(key, original, args, kwargs)))

    elif target.kind == "exec":

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.rec.dispatch(key, original, args, kwargs)

    elif target.kind == "bytes":

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = tracer.rec
            out = rec.call(key, original, args, kwargs)
            rec.bytes[key] += len(out)
            return out

    else:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.rec.call(key, original, args, kwargs)

    return wrapper


def _timed_iter(rec: Recorder, key: str, it: Iterator[Any]) -> Iterator[Any]:
    nxt = it.__next__
    step = rec.step
    while True:
        try:
            item = step(key, nxt)
        except StopIteration:
            return
        yield item


def _noop(x: Any) -> None:
    return None


def measure_overhead(n: int = 10_000, reps: int = 5) -> Overhead:
    """Time the wrappers around ``n`` one-argument empty calls, ``n`` steps
    of an iterator and ``n`` calls that return an empty iterator, each loop
    inside an outer span; the fastest of ``reps`` tries of each loop
    counts."""
    probe = LayerTracer(targets=())
    wrapped = _make_wrapper(probe, Target("", "", "probe.call"), _noop)
    wrapped_iter = probe.wrap_fn("probe.iter", tuple)

    def bare() -> None:
        for _ in range(n):
            pass

    def direct() -> None:
        for i in range(n):
            _noop(i)

    def calls() -> None:
        for i in range(n):
            wrapped(i)

    def steps() -> None:
        for _ in _timed_iter(probe.rec, "probe.step", iter(range(n))):
            pass

    def iters() -> None:
        for _ in range(n):
            for _ in wrapped_iter():
                pass

    best: dict[str, float] = defaultdict(lambda: float("inf"))
    for _ in range(reps):
        rec = probe.rec = Recorder()
        for loop in (bare, direct, calls, steps, iters):
            rec.call(loop.__name__, loop, (), {})
        for key, value in rec.self_s.items():
            best[key] = min(best[key], value)
    call_out = max(0.0, (best["calls"] - best["bare"]) / n)
    call_in = max(0.0, (best["probe.call"] - (best["direct"] - best["bare"])) / n)
    step_out = max(0.0, (best["steps"] - best["bare"]) / n)
    step_in = max(0.0, best["probe.step"] / n)
    return Overhead(
        call_out=call_out,
        call_in=call_in,
        step_out=step_out,
        step_in=step_in,
        # What a call in ``iters`` costs beyond one call and one ``next``.
        iter_out=max(0.0, (best["iters"] - best["bare"]) / n - call_out - step_out),
        iter_in=max(0.0, best["probe.iter"] / n - call_in - step_in),
    )


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, cls.split(".")):
        obj = getattr(obj, part)
    return obj


class LayerTracer:
    """Installs and removes the wrappers of :data:`TARGETS`.

    Use as a context manager.  A target that no longer exists (a refactor
    renamed it) makes :meth:`install` raise :class:`MissingTargets` with
    nothing left installed: its layer's self time would otherwise read 0
    and look like a saving.
    """

    def __init__(
        self, targets: tuple[Target, ...] = TARGETS, overhead: Overhead = Overhead()
    ) -> None:
        self.targets = targets
        self.overhead = overhead
        self.rec = Recorder(overhead)
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        missing = missing_targets(self.targets)
        if missing:
            raise MissingTargets(missing)
        for target in self.targets:
            owner = _resolve(target.owner)
            # The owner's own dict, not getattr: a subclass patch must not
            # shadow its base, and restore must put back the exact object.
            original = vars(owner)[target.attr]
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, _make_wrapper(self, target, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap_fn(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a user function the benchmark passes to an engine (map,
        reduce, combine, finalize); its result iterator is timed like an
        ``iter`` target."""

        def wrapper(*args: Any) -> Iterator[Any]:
            rec = self.rec
            return rec.timed_iter(key, iter(rec.call(key, fn, args, {})))

        return wrapper

    def take(self) -> Recorder:
        """Return the current recorder and start a fresh one."""
        rec, self.rec = self.rec, Recorder(self.overhead)
        return rec

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


class MissingTargets(RuntimeError):
    """Wrap targets that the program no longer has."""

    def __init__(self, names: list[str]) -> None:
        super().__init__("wrap targets not found in the program: " + ", ".join(names))
        self.names = names


def missing_targets(targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """``owner.attr`` of every target whose owner or attribute is gone."""
    out = []
    for target in targets:
        try:
            owner = _resolve(target.owner)
        except (ImportError, AttributeError):
            owner = None
        if owner is None or vars(owner).get(target.attr) is None:
            out.append(f"{target.owner}.{target.attr}")
    return out


def snapshot_attrs(targets: tuple[Target, ...] = TARGETS) -> dict[str, Any]:
    """The current object behind every target attribute, by name."""
    out = {}
    for target in targets:
        value = vars(_resolve(target.owner)).get(target.attr)
        if value is not None:
            out[f"{target.owner}.{target.attr}"] = (target, value)
    return out


def changed_attrs(snapshot: dict[str, Any]) -> list[str]:
    """Names of attributes that are no longer the object ``snapshot`` saw.

    Taken before the traced pass and checked before the timed runs, so the
    timed runs measure the unmodified program.
    """
    return [
        name
        for name, (target, value) in snapshot.items()
        if vars(_resolve(target.owner)).get(target.attr) is not value
    ]
