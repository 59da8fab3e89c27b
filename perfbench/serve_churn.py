"""Workload serve_churn: the always-on service under open-loop load and churn.

Clients of the always-on service see latency under offered load.  An
``AsyncRoutingService`` on a ``WallClock`` (16^3 mesh, 200 uniform
random faults, 10 ms batching window) serves uniform random pairs of
healthy cells while a ``FaultEventStream`` (2 cells per event) injects
and repairs faults once a second.  Arrivals are an open-loop Poisson
stream at one fixed rate, then a short overload phase at a far higher
rate.  Nearly every pair in a tick has its own destination, so the
reverse floods in ``routing.oracle`` do most of the work, and every
event's scoped invalidation in ``online`` forces re-floods.  The same
``route_batch`` code as route_hotspot runs here, used the opposite way.

The open-loop load generator here schedules each arrival relative to
its own start and times each request from its due time, so a stalled
tick delays every request queued behind it.  (``serve.loadgen.run_load``
is not used: on a ``WallClock`` it compares trace offsets that start at
0 with absolute clock readings, so every request fires at once.)  It
keeps time on an :class:`OwnClock`, which leaves out the stretches in
which the host runs other tenants instead of this process; wall-clock
latencies are printed beside it.

Checks: every request that was not shed resolves; every delivered path
is minimal and free of the faults of the epoch it was answered at; no
result carries an epoch newer than the service's.  Exact count
cross-check: the event history, replayed on a fresh online service,
draws the same cells and relabels the same dirty cells.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import selectors
from dataclasses import dataclass

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
    percentile,
    untraced,
)
from repro import make_service, obs
from repro.experiments.workloads import random_fault_mask
from repro.online.events import FaultEventStream
from repro.serve import AsyncRoutingService, ServiceOverloadError, WallClock

FIXED, OVERLOAD, WARMUP = "fixed", "overload", "warmup"


class _IdleSelector(selectors.DefaultSelector):
    """The event loop's selector, counting the wall time spent waiting."""

    def __init__(self):
        super().__init__()
        self.idle = 0.0

    def select(self, timeout=None):
        start = now()
        try:
            return super().select(timeout)
        finally:
            self.idle += now() - start


class OwnClock:
    """Time this process could run at the nominal machine speed: its CPU
    seconds, scaled by the speed meter's current scale, plus its idle waits.

    Wall time also counts the stretches in which a shared host runs other
    tenants instead of this process.  On a shared two-vCPU virtual machine
    those stretches made fixed-rate latencies vary by 2x between runs
    minutes apart while the CPU time per request stayed within 10%.  CPU
    time itself ran up to 2x faster or slower for seconds to minutes, so
    the CPU part is scaled to the nominal speed as it accrues, and the
    open-loop schedule kept on this clock offers the same load per unit
    of work however fast the machine runs.  Run the event loop through
    :meth:`runner` so its idle waits are counted, and :meth:`pace` while
    the load runs so the scale follows the machine.
    """

    def __init__(self, speed: SpeedMeter):
        self.selector = _IdleSelector()
        self.speed = speed
        self._seen = cpu()
        self._cpu = 0.0

    def cpu(self) -> float:
        """Scaled CPU seconds so far."""
        seen = cpu()
        self._cpu += (seen - self._seen) * self.speed.current
        self._seen = seen
        return self._cpu

    def now(self) -> float:
        return self.cpu() + self.selector.idle

    async def pace(self) -> None:
        """Run the reference once every ``SERVE_PACE_S`` of wall time,
        leaving its own CPU time off this clock."""
        while True:
            self.cpu()
            self.speed.probe()
            self._seen = cpu()
            await asyncio.sleep(spec.SERVE_PACE_S)

    def runner(self) -> asyncio.Runner:
        return asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(self.selector))

    async def sleep_until(self, deadline: float) -> None:
        # Wall sleeps advance this clock by at most their length.
        while (wait := deadline - self.now()) > 0:
            await asyncio.sleep(wait)


class Inputs:
    """One service's fault pattern and offered traffic, drawn from ``(seed, index)``."""

    def __init__(self, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        self.mask = random_fault_mask(spec.SERVE_MESH, spec.SERVE_FAULTS, rng=rng)
        self.healthy = np.argwhere(~self.mask)
        self.rng = rng
        self.event_seed = [seed, index, 1]
        self.warmup = self.pairs(spec.SERVE_WARMUP_REQUESTS)
        self.fixed = self.arrivals(spec.SERVE_FIXED_RATE, 0.0, spec.SERVE_FIXED_S)
        self.overload = self.arrivals(spec.SERVE_OVERLOAD_RATE, 0.0, spec.SERVE_OVERLOAD_S)

    def pairs(self, n: int) -> list:
        cells = len(self.healthy)
        src = self.rng.integers(0, cells, n)
        dst = (src + 1 + self.rng.integers(0, cells - 1, n)) % cells
        return [
            (tuple(int(v) for v in self.healthy[a]), tuple(int(v) for v in self.healthy[b]))
            for a, b in zip(src, dst, strict=True)
        ]

    def arrivals(self, rate: float, start: float, end: float) -> list:
        """Poisson due offsets in ``[start, end)`` with their pairs."""
        gaps = self.rng.exponential(1.0 / rate, int(rate * (end - start) * 1.5) + 16)
        due = start + np.cumsum(gaps)
        due = due[due < end]
        return list(zip(due.tolist(), self.pairs(len(due)), strict=True))


class Request:
    __slots__ = (
        "rid", "phase", "due", "pair", "called", "done", "wall", "result", "error",
        "epoch_now", "hops",
    )

    def __init__(self, rid: int, phase: str, due: float, pair):
        self.rid = rid
        self.phase = phase
        self.due = due
        self.pair = pair
        #: OwnClock stamps; ``wall`` is (called, done) on the wall clock.
        self.called = self.done = 0.0
        self.wall = (0.0, 0.0)
        self.result = None
        self.error: str | None = None
        self.epoch_now = 0
        #: Hops of the delivered path, kept once the result is checked and dropped.
        self.hops = 0


class Session:
    """One live service plus everything the load generator records about it."""

    def __init__(self, inputs: Inputs, clock: OwnClock, tracer: obs.Tracer | None):
        self.inputs = inputs
        self.clock = clock
        self.tracer = tracer
        self.service = AsyncRoutingService(
            inputs.mask.copy(), clock=WallClock(), batch_window=spec.SERVE_BATCH_WINDOW_S
        )
        self.requests: list[Request] = []
        self.tasks: list[asyncio.Task] = []
        #: epoch -> fault mask in force at that epoch (for the path checks)
        self.masks = {0: inputs.mask.copy()}
        self.events: list = []  # (draw index, StreamEvent, FaultEvent)
        self.late: list[float] = []
        self._ids = itertools.count()

    async def ask(self, phase: str, due: float, pair) -> None:
        rid = next(self._ids)
        request = Request(rid, phase, due, pair)
        self.requests.append(request)
        request.called = self.clock.now()
        called_wall = now()
        try:
            request.result = await self.service.route(*pair)
        except ServiceOverloadError:
            request.error = "shed"
        except Exception as exc:  # noqa: BLE001 - one bad request must not end the run
            request.error = repr(exc)
        request.done = self.clock.now()
        request.wall = (called_wall, now())
        request.epoch_now = self.service.online.epoch
        if self.tracer is not None:
            self.tracer.absorb([{
                "name": "bench.request", "cat": "bench", "track": "requests",
                "depth": 0, "kind": obs.SPAN, "t0": request.wall[0], "t1": request.wall[1],
                "vt0": None, "vt1": None, "attrs": {"rid": rid, "phase": phase},
            }])

    async def warm_up(self) -> float:
        """Label every direction class, then answer one burst; the CPU seconds."""
        start = cpu()
        label_all(self.service.online)
        await self.burst(self.inputs.warmup)
        return cpu() - start

    async def burst(self, pairs) -> None:
        """Send ``pairs`` at once and wait for every answer."""
        start = self.clock.now()
        await asyncio.gather(*(self.ask(WARMUP, start, pair) for pair in pairs))

    async def open_loop(self, t0: float, arrivals, phase: str) -> None:
        """Release each request at ``t0 + due``, however late the loop runs."""
        loop = asyncio.get_running_loop()
        for due, pair in arrivals:
            await self.clock.sleep_until(t0 + due)
            if phase == FIXED:
                self.late.append(self.clock.now() - (t0 + due))
            self.tasks.append(loop.create_task(
                self.ask(phase, t0 + due, pair)
            ))

    async def churn(self, t0: float) -> None:
        """One fault event every ``SERVE_EVENT_EVERY_S`` until cancelled."""
        stream = FaultEventStream(spec.SERVE_CHURN, np.random.default_rng(self.inputs.event_seed))
        online = self.service.online
        for k in itertools.count():
            await self.clock.sleep_until(t0 + (k + 1) * spec.SERVE_EVENT_EVERY_S)
            drawn = stream.next_event(online.fault_mask, k)
            if drawn is None:
                continue
            with obs.span("bench.apply_event", cat="bench", kind=drawn.kind):
                event = self.service.apply_event(drawn.kind, drawn.cells)
            self.events.append((k, drawn, event))
            self.masks[event.epoch] = online.fault_mask.copy()


async def _start(seed: int, index: int, clock: OwnClock, tracer) -> tuple[Session, float]:
    start = cpu()
    with obs.span("bench.setup", cat="bench"):
        session = Session(Inputs(seed, index), clock, tracer)
        await session.service.start()
    return session, cpu() - start


@dataclass
class Round:
    """What a round leaves behind once its answers are checked.

    The round's services are dropped, so the memory a run holds does not
    grow with the number of rounds.
    """

    #: Set-up and cold-start scaled CPU seconds of each fresh service.
    setup_s: list[float]
    cold_s: list[float]
    #: Overload completions and the scaled CPU and wall seconds spent on them.
    overload_done: int
    overload_cpu_s: float
    overload_wall_s: float
    #: Fixed-rate requests offered; latencies of the answered ones, from
    #: due time (OwnClock) and from the route() call (wall clock), in ms.
    fixed_offered: int
    fixed_ms: np.ndarray
    fixed_wall_ms: np.ndarray
    #: How late the dispatcher released each fixed-rate request (OwnClock s).
    late: np.ndarray
    #: Wall time of every route() call, for the traced queue waits.
    called_wall: np.ndarray
    requests: int
    shed: int
    hops: int
    #: The round's initial faults, event seed and (draw index, StreamEvent,
    #: FaultEvent) history, for the replay cross-check.
    mask: np.ndarray
    event_seed: list
    events: list
    #: Reach masks kept and evicted across the round's fault events.
    retained: int
    evicted: int


async def _cold_start(
    seed: int, index: int, clock: OwnClock, tracer
) -> tuple[Session, float, float]:
    """A fresh service, set up and warmed up: the session and both scaled CPU times."""
    session, setup_s = await _start(seed, index, clock, tracer)
    setup_s = clock.speed.sample(setup_s)
    cold_s = clock.speed.sample(await session.warm_up())
    return session, setup_s, cold_s


async def _round(seed: int, index: int, clock: OwnClock, tracer, report: Report) -> Round:
    """``SERVE_COLD_STARTS`` fresh services; the last one then serves the
    fixed-rate phase with churn and the overload phase."""
    setups, colds = [], []
    for k in range(spec.SERVE_COLD_STARTS):
        session, setup_s, cold_s = await _cold_start(
            seed, index * spec.SERVE_COLD_STARTS + k, clock, tracer
        )
        setups.append(setup_s)
        colds.append(cold_s)
        if k < spec.SERVE_COLD_STARTS - 1:
            await session.service.stop()
            with untraced():
                _check(report, session)
    # Fixed-rate phase with churn; the overload phase starts only once
    # every fixed-rate request has been answered, so neither phase's
    # latencies spill into the other's.
    loop = asyncio.get_running_loop()
    pace = loop.create_task(clock.pace())
    t0 = clock.now()
    churn = loop.create_task(session.churn(t0))
    await session.open_loop(t0, session.inputs.fixed, FIXED)
    churn.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await churn
    await asyncio.gather(*session.tasks)
    # Overload: completions per scaled CPU second the process spent on
    # them (the service is busy throughout, so this is its capacity).
    busy, busy_wall = clock.cpu(), now()
    await session.open_loop(clock.now(), session.inputs.overload, OVERLOAD)
    await asyncio.gather(*session.tasks)
    busy, busy_wall = clock.cpu() - busy, now() - busy_wall
    pace.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await pace
    await session.service.stop()
    session.tasks.clear()
    with untraced():
        _check(report, session)
    requests = session.requests
    fixed = [r for r in requests if r.phase == FIXED]
    answered = [r for r in fixed if r.error is None]
    router = session.service.online.router
    return Round(
        setup_s=setups,
        cold_s=colds,
        overload_done=sum(r.phase == OVERLOAD and r.error is None for r in requests),
        overload_cpu_s=busy,
        overload_wall_s=busy_wall,
        fixed_offered=len(fixed),
        fixed_ms=np.array([(r.done - r.due) * 1e3 for r in answered]),
        fixed_wall_ms=np.array([(r.wall[1] - r.wall[0]) * 1e3 for r in answered]),
        late=np.array(session.late),
        called_wall=np.array([r.wall[0] for r in requests]),
        requests=len(requests),
        shed=sum(r.error == "shed" for r in requests),
        hops=sum(r.hops for r in requests),
        mask=session.inputs.mask,
        event_seed=session.inputs.event_seed,
        events=session.events,
        retained=router.retained,
        evicted=router.evicted,
    )


async def _drive(seed: int, seconds: float, clock: OwnClock, tracer, report: Report) -> list[Round]:
    """Rounds, each on fresh services, until ``seconds`` of wall time are used.

    A round's phases are fixed in OwnClock time, so its wall time follows
    the machine's speed; a round starts only if one as long as the last
    still fits (at least ``SERVE_MIN_ROUNDS`` run).  Each round's answers
    are checked as soon as it ends and then dropped, so the results the
    benchmark holds do not grow the heap that later garbage collections
    must scan.
    """
    started = now()
    rounds: list[Round] = []
    last_s = 0.0
    for index in itertools.count():
        if index >= spec.SERVE_MIN_ROUNDS and now() - started + last_s > seconds:
            return rounds
        gc.collect()  # start each round with a clean heap, outside the timing
        start = now()
        rounds.append(await _round(seed, index, clock, tracer, report))
        last_s = now() - start


def _check(report: Report, session: Session) -> None:
    """Check every answer of a finished session, then keep only its hop count."""
    report.attempted += len(session.requests)
    for request in session.requests:
        if request.error is not None:
            report.fail(f"request {request.rid} ({request.phase}): {request.error}")
            continue
        result = request.result
        if result is None:
            report.fail(f"request {request.rid} ({request.phase}) got no result")
        elif result.epoch is None or result.epoch > request.epoch_now:
            report.fail(
                f"request {request.rid} answered at epoch {result.epoch}, "
                f"newer than the service epoch {request.epoch_now}"
            )
        elif result.delivered:
            source, dest = request.pair
            problem = path_problem(result.path, source, dest, session.masks[result.epoch])
            if problem is not None:
                report.fail(problem)
            request.hops = result.hops
        request.result = None


def _replay_events(done: Round) -> tuple[list, list]:
    """Re-draw and re-apply a round's event history on a fresh online service."""
    online = make_service(done.mask.copy(), online=True)
    label_all(online)
    stream = FaultEventStream(spec.SERVE_CHURN, np.random.default_rng(done.event_seed))
    live, again = [], []
    for k, drawn, event in done.events:
        redrawn = stream.next_event(online.fault_mask, k)
        replayed = (online.inject if redrawn.kind == "inject" else online.repair)(redrawn.cells)
        live.append((drawn.cells, event.dirty_cells, event.full_recomputes, event.label_delta))
        again.append((redrawn.cells, replayed.dirty_cells, replayed.full_recomputes, replayed.label_delta))
    return live, again


async def _overhead_unit(seed: int) -> None:
    """Fresh service: warm-up, then four rounds of one fault event and one burst."""
    session, _ = await _start(seed, 0, OwnClock(SpeedMeter()), None)
    await session.warm_up()
    online = session.service.online
    stream = FaultEventStream(spec.SERVE_CHURN, np.random.default_rng(session.inputs.event_seed))
    for k in range(4):
        drawn = stream.next_event(online.fault_mask, k)
        session.service.apply_event(drawn.kind, drawn.cells)
        await session.burst(session.inputs.pairs(spec.SERVE_WARMUP_REQUESTS))
    await session.service.stop()


def run(seed: int, seconds: float, tracer: obs.Tracer | None) -> Report:
    traced = tracer is not None
    report = Report("serve_churn", traced)
    clock = OwnClock(SpeedMeter())
    with clock.runner() as runner:
        rounds = runner.run(_drive(seed, seconds, clock, tracer, report))
    events = 0
    with untraced():
        for done in rounds:
            history, replayed = _replay_events(done)
            events += len(history)
            report.cross_check(
                "replayed fault events (cells, dirty cells, recomputes, label delta)",
                history, replayed,
            )
    report.note(f"{events} fault events over {len(rounds)} rounds replayed")
    report.note(clock.speed.note())

    latencies = np.concatenate([r.fixed_ms for r in rounds])
    wall = np.concatenate([r.fixed_wall_ms for r in rounds])
    late = np.concatenate([r.late for r in rounds])
    shed = sum(r.shed for r in rounds)

    if traced:
        with untraced():
            label_s = label_all(make_service(rounds[0].mask.copy(), online=True))
        tree = SpanTree(tracer.spans)
        _layers(report, tree, rounds, late, label_s)
        report.metric(
            "obs.overhead_frac",
            *overhead_frac(lambda: asyncio.run(_overhead_unit(seed)), pairs=8),
            "pairs: fresh service, warm-up, then 4 x (event, burst)",
        )
        ticks = tree.total("serve_tick")
        floods = sum(sp.t1 - sp.t0 for sp in tree.under("monotone_flood_many", "serve_tick"))
        report.note(f"floods take {floods / max(ticks, 1e-12):.1%} of serve_tick time ({ticks:.3f} s)")
        report.wall_metrics(
            sum(r.overload_done for r in rounds), sum(r.overload_wall_s for r in rounds), wall,
            "overload completions per wall second; fixed-rate route() call to answer",
        )
        return report

    offered = sum(r.fixed_offered for r in rounds)
    within = int((latencies <= spec.SERVE_OK_LIMIT_MS).sum())
    rate = f"{spec.SERVE_FIXED_RATE:g} req/s"
    setups = [s for r in rounds for s in r.setup_s]
    colds = [c for r in rounds for c in r.cold_s]
    report.metric("setup_s", median(setups), len(setups), "CPU: inputs + AsyncRoutingService + start")
    report.metric("peak_rss_mb", peak_rss_mb(), 1)
    report.metric(
        "ops_per_s",
        sum(r.overload_done for r in rounds) / sum(r.overload_cpu_s for r in rounds),
        len(rounds),
        f"serve_sat_rps: completions per CPU second at {spec.SERVE_OVERLOAD_RATE:g} req/s offered",
    )
    report.metric(
        "cold_s", median(colds), len(colds),
        f"CPU: label 8 classes + burst of {spec.SERVE_WARMUP_REQUESTS} on a fresh service",
    )
    report.latency_metrics(latencies, f"fixed-rate latency at {rate} from due time, OwnClock")
    report.metric(
        "ok_frac", within / max(offered, 1), offered,
        f"serve_ok_frac: answered within {spec.SERVE_OK_LIMIT_MS:g} ms of due, OwnClock",
    )
    report.note(
        f"p99 {percentile(latencies, 99):.3f} ms over {len(latencies)} fixed-rate requests "
        f"(serve_p99_ms); dispatcher late p99 "
        f"{percentile(late, 99) * 1e3:.3f} ms; shed {shed}"
    )
    report.note(
        f"wall clock, route() call to answer: p50 {median(wall):.3f} ms, "
        f"p95 {percentile(wall, 95):.3f} ms"
    )
    return report


def _layers(report: Report, tree: SpanTree, rounds: list[Round], late, label_s: float) -> None:
    ticks = tree.named("serve_tick")
    tick_starts = np.sort(np.array([sp.t0 for sp in ticks]))
    called = np.concatenate([r.called_wall for r in rounds])
    k = np.searchsorted(tick_starts, called)
    has_tick = k < len(tick_starts)
    waits = (tick_starts[k[has_tick]] - called[has_tick]) * 1e3
    requests = sum(r.requests for r in rounds)
    report.metric("serve.ticks", len(ticks), len(ticks))
    report.metric("serve.mean_batch", tree.attr_sum("serve_tick", "batch") / max(len(ticks), 1), len(ticks))
    report.metric("serve.tick_s", tree.total("serve_tick"), len(ticks))
    report.metric("serve.tick_self_s", tree.self_time("serve_tick"), len(ticks))
    report.metric("serve.queue_wait_ms", median(waits), len(waits), "route() call to its tick, median")
    report.metric("serve.preempt_s", tree.total("serve_preempt"), len(tree.named("serve_preempt")))
    report.metric("serve.shed", sum(r.shed for r in rounds), requests)
    report.metric("loadgen.late_p99_ms", percentile(late, 99) * 1e3, len(late))

    report.routing_layers(tree, sum(r.hops for r in rounds))
    report.metric("core.label_s", label_s, 1, "8 classes of a fresh online service")
    report.metric("core.label_classes", 2 ** len(spec.SERVE_MESH), 1)

    events = [event for r in rounds for _, _, event in r.events]
    fault_spans = tree.named("fault_inject") + tree.named("fault_repair")
    retained = sum(r.retained for r in rounds)
    probed = retained + sum(r.evicted for r in rounds)
    report.metric("online.events", len(events), len(events))
    report.metric("online.event_s", sum(sp.t1 - sp.t0 for sp in fault_spans), len(fault_spans))
    report.metric("online.dirty_cells", sum(e.dirty_cells for e in events), len(events))
    report.metric("online.full_recomputes", sum(e.full_recomputes for e in events), len(events))
    report.metric(
        "online.cache_retained_frac", retained / max(probed, 1), probed,
        "reach masks kept / probed across events",
    )
