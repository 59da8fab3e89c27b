"""Workload des_t4: the distributed protocol on the discrete-event network.

Researchers run the paper's distributed MCC protocol message by
message.  Per fault pattern (12^3 mesh, 60 uniform random faults) a
``DistributedMCCPipeline`` runs ``build()`` (labelling, identification,
boundaries), then 100 canonical-frame queries go through ``submit`` and
one ``drain``, drawn exactly as ``exp_des_routing.evaluate_pattern``
draws them.  ``simkit`` and ``distributed`` do all the timed work; the
centralized routing walk and reverse floods are not used.

Delivered paths are checked minimal and fault-free; agreement with the
oracle (``make_service(mask, mode="oracle").feasible_batch``) is
reported.
"""

from __future__ import annotations

import gc
import itertools
from collections import Counter

import numpy as np

import spec
from harness import (
    Report,
    SpanTree,
    SpeedMeter,
    cpu,
    median,
    now,
    overhead_frac,
    path_problem,
    peak_rss_mb,
    untraced,
)
from repro import make_service, obs
from repro.core.model_cache import cached_labelled
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.topology import Mesh


class Pattern:
    """One fault pattern and its query batch, drawn from ``(seed, index)``."""

    def __init__(self, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        self.mask = random_fault_mask(spec.DES_MESH, spec.DES_FAULTS, rng=rng)
        safe = cached_labelled(self.mask).safe_mask
        cells = np.argwhere(safe)
        self.queries = []
        for _ in range(spec.DES_QUERIES):
            i, j = rng.integers(0, cells.shape[0], size=2)
            s = tuple(int(c) for c in np.minimum(cells[i], cells[j]))
            d = tuple(int(c) for c in np.maximum(cells[i], cells[j]))
            if safe[s] and safe[d] and s != d:
                self.queries.append((s, d))


class Pass:
    """One pipeline's build + submit + drain, timed from outside.

    With a ``speed`` meter, the machine speed is sampled after each timed step.
    """

    def __init__(self, pattern: Pattern, speed: SpeedMeter | None = None):
        sample = speed.sample if speed is not None else lambda timed_s: timed_s
        start = cpu()
        with obs.span("bench.setup", cat="bench"):
            self.pipe = DistributedMCCPipeline(Mesh(spec.DES_MESH), pattern.mask)
        self.ctor_s = sample(cpu() - start)
        start = cpu()
        with obs.span("bench.build", cat="bench"):
            self.pipe.build()
        self.build_s = sample(cpu() - start)
        stats = self.pipe.net.stats
        self.build_messages = stats.total_messages
        self.build_kinds = dict(stats.messages_sent)
        start, start_wall = cpu(), now()
        with obs.span("bench.submit", cat="bench", n=len(pattern.queries)):
            for s, d in pattern.queries:
                self.pipe.submit(s, d)
        with obs.span("bench.drain", cat="bench"):
            self.records = self.pipe.drain()
        self.query_s, self.query_wall_s = cpu() - start, now() - start_wall
        self.query_s = sample(self.query_s)
        self.query_messages = stats.total_messages - self.build_messages
        self.kinds = dict(stats.messages_sent)

    def counts(self) -> tuple:
        """Exact counts from public state: messages by kind, outcomes."""
        statuses = Counter(r["status"] for r in self.records)
        hops = sum(len(r["path"]) - 1 for r in self.records if r["status"] == "delivered")
        return (
            tuple(sorted(self.build_kinds.items())),
            tuple(sorted(self.kinds.items())),
            tuple(sorted(statuses.items())),
            hops,
            tuple(r["msgs"] for r in self.records),
        )


def check(report: Report, pattern: Pattern, records) -> int:
    """Delivered paths minimal and fault-free; returns oracle agreements."""
    oracle = make_service(pattern.mask, mode="oracle")
    wants = oracle.feasible_batch(pattern.queries)
    agree = 0
    for (s, d), record, want in zip(pattern.queries, records, wants, strict=True):
        delivered = record["status"] == "delivered"
        agree += delivered == bool(want)
        if delivered:
            problem = path_problem(record["path"], s, d, pattern.mask)
            if problem is not None:
                report.fail(problem)
        elif record["status"] not in ("infeasible", "stuck"):
            report.fail(f"query {s}->{d} ended with status {record['status']!r}")
    return agree


def _replay(pattern: Pattern) -> tuple:
    """Build and query the pattern on a fresh pipeline with a private tracer."""
    with obs.tracing(obs.Tracer(track="replay")) as tracer:
        counts = Pass(pattern).counts()
    events = SpanTree(tracer.spans).attr_sum("run_to_quiescence", "events")
    return events, counts


def run(seed: int, seconds: float, tracer: obs.Tracer | None) -> Report:
    traced = tracer is not None
    report = Report("des_t4", traced)
    setups: list[float] = []
    builds: list[float] = []
    drains: list[float] = []
    drain_walls: list[float] = []
    build_messages = query_messages = queries = delivered = agree = 0
    kinds: Counter = Counter()
    timed_counts = None
    speed = SpeedMeter()
    started = now()
    for index in itertools.count():
        if index >= 2 and now() - started >= seconds:
            break
        gc.collect()  # start each pattern with a clean heap, outside the timing
        start = cpu()
        pattern = Pattern(seed, index)
        input_s = speed.sample(cpu() - start)
        report.attempted += len(pattern.queries)
        try:
            done = Pass(pattern, speed)
        except Exception:  # noqa: BLE001 - one failed pattern must not end the run
            report.crash(f"pattern {index}", len(pattern.queries))
            continue
        setups.append(input_s + done.ctor_s)
        builds.append(done.build_s)
        drains.append(done.query_s)
        drain_walls.append(done.query_wall_s)
        build_messages += done.build_messages
        query_messages += done.query_messages
        kinds.update(done.kinds)
        queries += len(done.records)
        delivered += sum(r["status"] == "delivered" for r in done.records)
        with untraced():
            agree += check(report, pattern, done.records)
        if index == 0:
            timed_counts = done.counts()

    # Exact count cross-check: pattern 0 rebuilt twice sends the same
    # messages, runs the same events and answers the same way as its
    # timed pass.
    with untraced():
        pattern0 = Pattern(seed, 0)
        events_a, counts_a = _replay(pattern0)
        events_b, counts_b = _replay(pattern0)
    report.cross_check("replayed DES event counts", events_a, events_b)
    report.cross_check("replayed message/outcome counts", counts_a, counts_b)
    report.cross_check("timed vs replayed message/outcome counts", timed_counts, counts_a)
    report.note(
        f"pattern 0: events={events_a} build messages={sum(dict(counts_a[0]).values())} "
        f"statuses={dict(counts_a[2])}"
    )
    report.note(speed.note())
    report.note(f"oracle agreement {agree}/{queries} over {len(builds)} patterns")

    if traced:
        tree = SpanTree(tracer.spans)
        runs = tree.named("run_to_quiescence")
        events = tree.attr_sum("run_to_quiescence", "events")
        run_s = tree.total("run_to_quiescence")
        total_messages = build_messages + query_messages
        report.metric("simkit.events", events, len(runs))
        report.metric("simkit.messages", total_messages, len(builds))
        for kind, sent in kinds.items():
            report.metric(f"simkit.messages.{kind}", sent, len(builds))
        report.metric("simkit.run_s", run_s, len(runs))
        report.metric("simkit.us_per_event", run_s * 1e6 / max(events, 1), events)
        report.metric("distributed.build_messages", build_messages, len(builds))
        report.metric("distributed.query_messages", query_messages, len(builds))
        report.metric("distributed.msgs_per_query", query_messages / max(queries, 1), queries)
        report.metric("distributed.delivered_frac", delivered / max(queries, 1), queries)
        report.metric("distributed.oracle_agreement", agree / max(queries, 1), queries)
        report.metric(
            "obs.overhead_frac", *overhead_frac(lambda: Pass(pattern0), pairs=4),
            "pairs: pattern 0 build + queries",
        )
        report.wall_metrics(
            queries, sum(drain_walls), [w * 1e3 for w in drain_walls],
            "submit + drain of one pattern's queries",
        )
        bench_s = sum(tree.total(f"bench.{step}") for step in ("setup", "build", "submit", "drain"))
        report.note(f"run_to_quiescence covers {run_s / max(bench_s, 1e-12):.1%} of timed calls ({bench_s:.3f} s)")
        return report

    drain_ms = [s * 1e3 for s in drains]
    report.metric("setup_s", median(setups), len(setups), "CPU: pattern inputs + pipeline constructor")
    report.metric("peak_rss_mb", peak_rss_mb(), 1)
    report.metric(
        "ops_per_s", queries / sum(drains), len(drains),
        "des_queries_per_s: sessions per CPU second of submit + drain",
    )
    report.metric(
        "cold_s", median(builds), len(builds),
        f"des_build_s: CPU of build() per pattern (total {sum(builds):.3f} s)",
    )
    report.latency_metrics(drain_ms, "CPU of submit + drain of one pattern's queries")
    report.answered_metric("queries answered correctly")
    return report
