"""Pieces every workload shares: the report, output checks, and span roll-up.

A workload builds one :class:`Report`: it counts attempted and failed
operations, collects the end-to-end or per-layer metrics, and renders
the human-readable lines plus the final, machine-readable JSON line.
Metrics are measured from outside the library, by timing calls into
its public functions; with tracing on, :class:`SpanTree` rolls the
spans the library already emits up into self and total time per
(cat, name).
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, Iterable, Sequence

import numpy as np

from repro import obs
from repro.mesh.coords import manhattan
from repro.mesh.orientation import Orientation
from repro.obs.clockio import wall_now

#: Wall clock: for run length, the ``wall.*`` metrics and ``obs.overhead_frac``.
now = wall_now
#: The bounded metrics time work in process CPU seconds.  On a shared
#: virtual machine the host takes the CPU away for stretches, which
#: stretched the wall time of the same work by up to 2x between runs
#: minutes apart; CPU time leaves those stretches out.  It also sums the
#: CPU of every thread and leaves out blocking waits, so a gain from
#: threads or a loss to blocking shows only in the ``wall.*`` metrics.
#: The bounded metrics scale it to a nominal speed with a :class:`SpeedMeter`.
cpu = time.process_time

#: Failure messages kept for the report (the count is always exact).
_MAX_PROBLEMS = 20

#: CPU seconds one :func:`reference_work` call takes at the nominal
#: machine speed.  On a two-vCPU Xeon VM at 2.1 GHz its median ranged
#: from 1.8 to 4.4 ms with the host's load; this is the slow end, at
#: which serve_churn's rates were chosen.
NOMINAL_REF_S = 0.0045
#: Reference work a :class:`SpeedMeter` runs per CPU second timed.
REF_SHARE = 0.15
#: Latest reference runs behind :attr:`SpeedMeter.current`.
RECENT_REFS = 5


def reference_work() -> int:
    """A fixed piece of interpreter work that uses no library code.

    It walks tuples through a dict, as the routing walk and the event
    loop do.  (A probe also timed boolean sweeps of 3-D numpy grids, as
    the floods do: their time tracked the workloads' time less closely
    than this loop's, for the flood-heavy cold batches too.)
    """
    seen: dict[tuple[int, int, int], int] = {}
    x = y = z = 0
    for i in range(7000):
        x, y, z = (x + 1) % 16, (y + i) % 16, (z + 3 * i) % 16
        seen[(x, y, z)] = seen.get((x, y, z), 0) + 1
    return len(seen)


class SpeedMeter:
    """How fast the machine ran around each of a workload's timed calls.

    On a shared virtual machine the CPU time of the same work drifted by
    up to a third between runs minutes apart, and by up to 2x within
    seconds (other tenants share the host's cores and caches).  The
    workload calls :meth:`sample` after each timed call.  It runs
    :func:`reference_work` for about ``REF_SHARE`` of the CPU time just
    measured (at least once), and scales that time by the nominal
    reference time over the mean of the reference runs just before and
    just after the call: CPU seconds at the nominal machine speed.  A
    change to the library moves the timed calls but not the reference,
    so it still shows in full.

    For work that is not one call (a service under load), :meth:`probe`
    runs the reference once, and :attr:`current` is the scale that the
    latest runs give.
    """

    def __init__(self):
        self.ref_s: list[float] = []
        self._recent: deque[float] = deque(maxlen=RECENT_REFS)
        self.timed_s = 0.0
        self.scaled_s = 0.0
        self._owed = 0.0
        self._before = self._run()

    def _run(self) -> list[float]:
        runs: list[float] = []
        while not runs or self._owed > 0.0:
            runs.append(self.probe())
            self._owed -= runs[-1]
        return runs

    def sample(self, timed_s: float) -> float:
        """Sample the machine after a timed call; the call's scaled CPU seconds."""
        self._owed += timed_s * REF_SHARE
        after = self._run()
        around = self._before + after
        self._before = after
        scaled = timed_s * NOMINAL_REF_S * len(around) / sum(around)
        self.timed_s += timed_s
        self.scaled_s += scaled
        return scaled

    def probe(self) -> float:
        """Run the reference once; its CPU seconds."""
        start = cpu()
        reference_work()
        took = cpu() - start
        self.ref_s.append(took)
        self._recent.append(took)
        return took

    @property
    def current(self) -> float:
        """Nominal reference time over the mean of the latest runs."""
        return NOMINAL_REF_S * len(self._recent) / sum(self._recent)

    def note(self) -> str:
        factor = self.scaled_s / max(self.timed_s, 1e-12)
        return (
            f"speed: {len(self.ref_s)} reference runs ({sum(self.ref_s):.3f} s, "
            f"median {median(self.ref_s) * 1e3:.3f} ms, nominal {NOMINAL_REF_S * 1e3:g} ms) "
            f"scaled {self.timed_s:.3f} timed CPU seconds by {factor:.4f} overall"
        )


with open(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
    encoding="utf-8",
) as _fh:
    _BENCHMARK = json.load(_fh)
#: Metric name -> unit, for the untraced (False) and traced (True) runs.
UNITS = {
    traced: {m["name"]: m["unit"] for m in _BENCHMARK[key]}
    for traced, key in ((False, "end_to_end"), (True, "per_layer"))
}


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def label_all(service) -> float:
    """Label every direction class through ``service.labelled``; the CPU seconds taken."""
    shape = service.fault_mask.shape
    start = cpu()
    for signs in itertools.product((1, -1), repeat=len(shape)):
        service.labelled(Orientation(signs, shape))
    return cpu() - start


@contextmanager
def untraced():
    """Suspend the installed tracer for work that is not the workload.

    Output checks and oracle floods run inside this, so their spans do
    not count toward the per-layer metrics.
    """
    previous = obs.uninstall()
    try:
        yield
    finally:
        if previous is not None:
            obs.install(previous)


def path_problem(
    path: Sequence[Sequence[int]],
    source: Sequence[int],
    dest: Sequence[int],
    fault_mask: np.ndarray,
) -> str | None:
    """Why a delivered path is wrong, or None when it is minimal and fault-free."""
    cells = np.asarray(path, dtype=np.intp)
    if tuple(cells[0]) != tuple(source) or tuple(cells[-1]) != tuple(dest):
        return f"path {source}->{dest} has wrong endpoints"
    if len(cells) - 1 != manhattan(source, dest):
        return f"path {source}->{dest} is not minimal ({len(cells) - 1} hops)"
    if len(cells) > 1 and (np.abs(np.diff(cells, axis=0)).sum(axis=1) != 1).any():
        return f"path {source}->{dest} jumps between non-neighbours"
    if fault_mask[tuple(cells.T)].any():
        return f"path {source}->{dest} crosses a faulty node"
    return None


class Report:
    """Outcome and metrics of one workload run."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count_mismatches: list[str] = []
        #: name -> (value, sample count, what the value is)
        self.metrics: dict[str, tuple[float, int, str]] = {}
        self.notes: list[str] = []

    # -- outcome -------------------------------------------------------------

    def fail(self, problem: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(problem)

    def crash(self, what: str, n: int) -> None:
        """An exception escaped a public call: its ``n`` operations failed."""
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[1]!r}", n)

    def cross_check(self, what: str, first: Any, second: Any) -> None:
        """Exact count cross-check: a mismatch fails the run."""
        if first != second:
            self.count_mismatches.append(f"{what}: {first!r} != {second!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.count_mismatches and self.attempted > 0

    # -- metrics -------------------------------------------------------------

    def metric(self, name: str, value: float, samples: int, what: str = "") -> None:
        self.metrics[name] = (float(value), int(samples), what)

    def latency_metrics(self, values_ms: Sequence[float], what: str) -> None:
        """``p50_ms`` and ``p95_ms`` of one workload's per-operation latencies."""
        self.metric("p50_ms", median(values_ms), len(values_ms), what)
        self.metric("p95_ms", percentile(values_ms, 95), len(values_ms), what)

    def wall_metrics(self, ops: int, seconds: float, values_ms: Sequence[float], what: str) -> None:
        """``wall.ops_per_s``, ``wall.p50_ms``, ``wall.p95_ms``: the wall-clock twins."""
        self.metric("wall.ops_per_s", ops / seconds, len(values_ms), what)
        self.metric("wall.p50_ms", median(values_ms), len(values_ms), what)
        self.metric("wall.p95_ms", percentile(values_ms, 95), len(values_ms), what)

    def answered_metric(self, what: str) -> None:
        """``ok_frac`` where no latency limit applies: answered correctly / attempted."""
        self.metric("ok_frac", 1.0 - self.failed / max(self.attempted, 1), self.attempted, what)

    def routing_layers(self, tree: "SpanTree", hops: int) -> None:
        """``routing.*`` (route_batch and flood spans) and ``core.closure_s``."""
        floods = tree.named("monotone_flood_many")
        flood_dests = sum(sp.attrs["batch"] for sp in floods)
        flood_s = tree.total("monotone_flood_many")
        batches = tree.named("route_batch")
        pairs = sum(sp.attrs["n"] for sp in batches)
        walk_s = tree.self_time("route_batch")
        self.metric("routing.flood_calls", len(floods), len(floods))
        self.metric("routing.flood_dests", flood_dests, len(floods))
        self.metric("routing.flood_s", flood_s, len(floods))
        self.metric("routing.flood_ms_per_dest", flood_s * 1e3 / max(flood_dests, 1), flood_dests)
        self.metric("routing.dests_per_pair", flood_dests / max(pairs, 1), pairs)
        self.metric("routing.batch_calls", len(batches), len(batches))
        self.metric("routing.batch_pairs", pairs, len(batches))
        self.metric("routing.batch_s", tree.total("route_batch"), len(batches))
        self.metric("routing.walk_s", walk_s, len(batches), "route_batch self time")
        self.metric("routing.hops", hops, pairs, "from the public results")
        self.metric("routing.walk_us_per_hop", walk_s * 1e6 / max(hops, 1), hops)
        self.metric("core.closure_s", tree.total("closure_region"), len(tree.named("closure_region")))

    def note(self, line: str) -> None:
        self.notes.append(line)

    def lines(self) -> list[str]:
        """Human-readable lines: every metric with its unit and sample count."""
        units = UNITS[self.traced]
        out = [f"# {self.workload} ({'traced' if self.traced else 'untraced'})"]
        for name in units:
            value, samples, what = self.metrics.get(name, (0.0, 0, "not measured"))
            out.append(
                f"{self.workload} {name} = {value:.6g} {units[name]} "
                f"(n={samples}){' ' + what if what else ''}"
            )
        out.extend(f"{self.workload} note: {line}" for line in self.notes)
        out.append(
            f"{self.workload} attempted={self.attempted} failed={self.failed} "
            f"count_mismatches={len(self.count_mismatches)}"
        )
        out.extend(f"{self.workload} FAILED: {p}" for p in self.problems)
        out.extend(f"{self.workload} COUNT MISMATCH: {m}" for m in self.count_mismatches)
        return out

    def result_json(self) -> str:
        """The last output line: exactly the listed metrics for this mode."""
        units = UNITS[self.traced]
        metrics = {
            name: {"value": self.metrics.get(name, (0.0, 0, ""))[0], "unit": unit}
            for name, unit in units.items()
        }
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


class SpanTree:
    """Finished spans with parent links, rolled up per (cat, name).

    Spans of one track nest by their recorded depth (the tracer appends
    them in entry order), so a stack over each track recovers every
    span's parent; a span's self time is its duration minus the time
    its children cover.  Instants are ignored.
    """

    def __init__(self, spans: Iterable[obs.Span]):
        self.spans = [
            sp for sp in spans if sp.kind == obs.SPAN and sp.t1 is not None
        ]
        self.parent: dict[int, obs.Span | None] = {}
        self.child_time: dict[int, float] = defaultdict(float)
        stacks: dict[str, list[obs.Span]] = defaultdict(list)
        for sp in self.spans:
            stack = stacks[sp.track]
            del stack[sp.depth:]
            parent = stack[-1] if stack else None
            self.parent[id(sp)] = parent
            if parent is not None:
                self.child_time[id(parent)] += sp.t1 - sp.t0
            stack.append(sp)

    def named(self, name: str) -> list[obs.Span]:
        return [sp for sp in self.spans if sp.name == name]

    def total(self, name: str) -> float:
        return sum(sp.t1 - sp.t0 for sp in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(
            sp.t1 - sp.t0 - self.child_time[id(sp)] for sp in self.named(name)
        )

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(sp.attrs.get(attr, 0) for sp in self.named(name))

    def under(self, name: str, ancestor: str) -> list[obs.Span]:
        """Spans called ``name`` with an ancestor called ``ancestor``."""
        out = []
        for sp in self.named(name):
            parent = self.parent[id(sp)]
            while parent is not None and parent.name != ancestor:
                parent = self.parent[id(parent)]
            if parent is not None:
                out.append(sp)
        return out

    def rollup(self) -> dict[tuple[str, str], dict[str, float]]:
        """Count, total and self seconds per (cat, name)."""
        out: dict[tuple[str, str], dict[str, float]] = {}
        for sp in self.spans:
            row = out.setdefault(
                (sp.cat, sp.name), {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += sp.t1 - sp.t0
            row["self_s"] += sp.t1 - sp.t0 - self.child_time[id(sp)]
        return out

    def rollup_lines(self) -> list[str]:
        rows = sorted(self.rollup().items(), key=lambda kv: -kv[1]["total_s"])
        return [
            f"span {cat}/{name}: count={int(row['count'])} "
            f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s"
            for (cat, name), row in rows
        ]


def overhead_frac(unit, pairs: int) -> tuple[float, int]:
    """Median over pairs of traced / untraced wall time of one unit, minus 1.

    One untimed run warms caches first.  Each pair runs the unit once
    plain and once traced, back to back from a clean heap and in
    alternating order, so the machine's drift cancels within the pair.
    Each traced run records into its own throw-away tracer, so the
    measurement adds nothing to the run's spans.
    """
    ratios: list[float] = []
    with untraced():
        unit()
        for k in range(pairs):
            seconds = {}
            for traced in (False, True) if k % 2 == 0 else (True, False):
                gc.collect()
                start = now()
                if traced:
                    with obs.tracing(obs.Tracer(track="overhead")):
                        unit()
                else:
                    unit()
                seconds[traced] = now() - start
            ratios.append(seconds[True] / seconds[False])
    return median(ratios) - 1.0, pairs


def write_trace(path: str, spans: Iterable[obs.Span]) -> None:
    """Write the in-memory spans as a Perfetto trace file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    obs.write_perfetto(path, spans)
