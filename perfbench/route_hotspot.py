"""Workload route_hotspot: static batch routing toward a few hot nodes.

Sweep authors route large batches per fault pattern.  Here each
pattern (16^3 mesh, 200 uniform random faults) gets a fresh
``make_service(mask)``, one cold batch, then repeated warm batches.
Sources are uniform over healthy cells; destinations are drawn from 32
hot nodes (service or I/O nodes).  The cold batch pays the per-class
labelling and the primed reverse floods; warm batches find every reach
mask cached, so the per-hop forwarding walk in ``routing.engine`` does
nearly all their work.  ``simkit`` and ``distributed`` are not used.

Every result is checked: delivered paths are minimal, fault-free and
oracle-feasible; every refusal is oracle-infeasible or names an
endpoint inside a fault region.
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
    label_all,
    median,
    now,
    overhead_frac,
    path_problem,
    peak_rss_mb,
    untraced,
)
from repro import make_service, obs
from repro.experiments.workloads import random_fault_mask

#: The refusal the MCC model may give for an oracle-feasible pair.
ENDPOINT_REFUSAL = "endpoint inside fault region"


class Pattern:
    """One fault pattern and its batches, all drawn from ``(seed, index)``."""

    def __init__(self, seed: int, index: int, warm_batches: int):
        rng = np.random.default_rng([seed, index])
        self.mask = random_fault_mask(spec.HOTSPOT_MESH, spec.HOTSPOT_FAULTS, rng=rng)
        healthy = np.argwhere(~self.mask)
        hot = healthy[rng.choice(len(healthy), spec.HOTSPOT_HOT_NODES, replace=False)]

        def batch(n: int) -> list:
            sources = healthy[rng.integers(0, len(healthy), n)]
            dests = hot[rng.integers(0, len(hot), n)]
            return [
                (tuple(int(v) for v in s), tuple(int(v) for v in d))
                for s, d in zip(sources, dests, strict=True)
            ]

        self.cold = batch(spec.HOTSPOT_COLD_PAIRS)
        self.warm = [batch(spec.HOTSPOT_WARM_PAIRS) for _ in range(warm_batches)]

    def replay_batches(self) -> list:
        return [self.cold, *self.warm[: spec.HOTSPOT_REPLAY_WARM]]


def public_counts(results) -> tuple:
    """Exact counts read from public results: delivered, hops, refusals."""
    reasons = Counter(r.reason for r in results if not r.delivered)
    return (
        sum(r.delivered for r in results),
        sum(r.hops for r in results if r.delivered),
        tuple(sorted(reasons.items())),
    )


def check_batch(report: Report, mask, oracle, pairs, results) -> None:
    """Every delivered path minimal, fault-free and oracle-feasible;
    every refusal oracle-infeasible or an endpoint inside a fault region."""
    feasible = oracle.feasible_batch(pairs)
    for (s, d), result, ok in zip(pairs, results, feasible, strict=True):
        if result.delivered:
            problem = path_problem(result.path, s, d, mask)
            if problem is None and not ok:
                problem = f"delivered {s}->{d} but the oracle finds no minimal path"
        elif ok and result.reason != ENDPOINT_REFUSAL:
            problem = f"refused oracle-feasible {s}->{d}: {result.reason}"
        else:
            problem = None
        if problem is not None:
            report.fail(problem)


def _route(report: Report, service, pairs, label: str):
    """Time one public ``route_batch`` call in CPU and wall seconds;
    results None when it raised."""
    report.attempted += len(pairs)
    try:
        with obs.span(label, cat="bench", n=len(pairs)):
            start, start_wall = cpu(), now()
            results = service.route_batch(pairs)
            elapsed, elapsed_wall = cpu() - start, now() - start_wall
    except Exception:  # noqa: BLE001 - one failed batch must not end the run
        report.crash(f"{label} route_batch", len(pairs))
        return None, 0.0, 0.0
    return results, elapsed, elapsed_wall


def _replay(pattern: Pattern) -> tuple:
    """Route the replay batches on a fresh service with a private tracer.

    Returns the flood counts (calls, destinations) from the library's
    spans and the public per-batch counts.
    """
    service = make_service(pattern.mask)
    with obs.tracing(obs.Tracer(track="replay")) as tracer:
        outcome = [public_counts(service.route_batch(b)) for b in pattern.replay_batches()]
    floods = SpanTree(tracer.spans).named("monotone_flood_many")
    return (len(floods), sum(sp.attrs["batch"] for sp in floods)), outcome


def run(seed: int, seconds: float, tracer: obs.Tracer | None) -> Report:
    traced = tracer is not None
    report = Report("route_hotspot", traced)
    setups: list[float] = []
    colds: list[float] = []
    warms: list[float] = []
    warm_walls: list[float] = []
    label_s: list[float] = []
    hops = 0
    timed_counts: list[tuple] = []
    speed = SpeedMeter()
    started = now()
    for index in itertools.count():
        if index >= 2 and now() - started >= seconds:
            break
        gc.collect()  # start each pattern with a clean heap, outside the timing
        start = cpu()
        with obs.span("bench.setup", cat="bench"):
            pattern = Pattern(seed, index, spec.HOTSPOT_WARM_BATCHES)
            service = make_service(pattern.mask)
        setups.append(speed.sample(cpu() - start))
        with untraced():
            oracle = make_service(pattern.mask, mode="oracle")
            if traced and index < 3:
                # A fresh service that bypasses the cross-pattern label cache.
                label_s.append(label_all(make_service(pattern.mask, label_cache=False)))
        for k, batch in enumerate([pattern.cold, *pattern.warm]):
            if index >= 2 and now() - started >= seconds:
                break
            results, elapsed, elapsed_wall = _route(
                report, service, batch, "bench.warm_batch" if k else "bench.cold_batch"
            )
            scaled = speed.sample(elapsed)
            if results is None:
                continue
            (warms if k else colds).append(scaled)
            if k:
                warm_walls.append(elapsed_wall)
            with untraced():
                counts = public_counts(results)
                check_batch(report, pattern.mask, oracle, batch, results)
            hops += counts[1]
            if index == 0 and k <= spec.HOTSPOT_REPLAY_WARM:
                timed_counts.append(counts)

    # Exact count cross-check: pattern 0 replayed twice on fresh services
    # floods, delivers, hops and refuses exactly alike, and exactly like
    # its timed pass did.
    with untraced():
        pattern0 = Pattern(seed, 0, spec.HOTSPOT_REPLAY_WARM)
        floods_a, outcome_a = _replay(pattern0)
        floods_b, outcome_b = _replay(pattern0)
    report.cross_check("replayed flood counts", floods_a, floods_b)
    report.cross_check("replayed result counts", outcome_a, outcome_b)
    report.cross_check("timed vs replayed result counts", timed_counts, outcome_a)
    report.note(speed.note())
    report.note(
        f"pattern 0 cold+{spec.HOTSPOT_REPLAY_WARM} warm: flood calls={floods_a[0]} "
        f"flood dests={floods_a[1]} (delivered, hops)={[c[:2] for c in outcome_a]}"
    )

    if traced:
        with untraced():
            primed = make_service(pattern0.mask)
            primed.route_batch(pattern0.cold)

        def unit() -> None:
            for batch in pattern0.warm:
                primed.route_batch(batch)

        _layers(report, SpanTree(tracer.spans), hops, label_s, overhead_frac(unit, pairs=20))
        report.wall_metrics(
            spec.HOTSPOT_WARM_PAIRS * len(warm_walls), sum(warm_walls),
            [w * 1e3 for w in warm_walls], "warm route_batch calls",
        )
        return report

    warm_ms = [w * 1e3 for w in warms]
    report.metric("setup_s", median(setups), len(setups), "CPU: pattern inputs + make_service")
    report.metric("peak_rss_mb", peak_rss_mb(), 1)
    report.metric(
        "ops_per_s", spec.HOTSPOT_WARM_PAIRS * len(warms) / sum(warms), len(warms),
        "route_pairs_per_s: warm pairs per CPU second",
    )
    report.metric("cold_s", median(colds), len(colds), "route_cold_s: CPU of the first batch, fresh service")
    report.latency_metrics(warm_ms, "CPU of a warm route_batch call")
    report.answered_metric("pairs answered correctly")
    return report


def _layers(report: Report, tree: SpanTree, hops: int, label_s: list[float], overhead) -> None:
    report.routing_layers(tree, hops)
    if label_s:
        report.metric("core.label_s", median(label_s), len(label_s), "every class, fresh service")
        report.metric("core.label_classes", 2 ** len(spec.HOTSPOT_MESH), len(label_s))
    report.metric("obs.overhead_frac", overhead[0], overhead[1], "pairs: pattern 0 warm batches")
    for label in ("bench.cold_batch", "bench.warm_batch"):
        total = tree.total(label)
        under = sum(sp.t1 - sp.t0 for sp in tree.under("monotone_flood_many", label))
        report.note(f"floods take {under / max(total, 1e-12):.1%} of {label} time ({total:.3f} s)")
