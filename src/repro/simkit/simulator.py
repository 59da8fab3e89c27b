"""The simulation executive: clock + event loop.

``run`` selects a dispatch loop *variant* once per call instead of
re-testing ``until``/``observer``/``max_events`` on every event: the
hot case (no deadline, no observer — every ``run_to_quiescence`` in
every protocol build and T4/T6/T7 run) drains the queue with a tight
pop-execute loop that touches one attribute write per time advance,
while deadline- or observer-carrying runs, and runs over a non-default
queue, take the general loop with the exact historical semantics.  The
observer is sampled at ``run`` entry — attach sanitizers
(``repro.analysis.sanitize``) before starting the run, never from
inside an event action.
"""

from __future__ import annotations

import math
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

from repro import obs
from repro.simkit.event_queue import _EPOCH_CAP, EventQueue

_INF = math.inf
_EPOCH_CAP_INT = int(_EPOCH_CAP)


class Simulator:
    """Drives an :class:`EventQueue` with a monotone simulation clock.

    ``queue`` may be any object with the :class:`HeapEventQueue` API
    (push/cancel/pop/peek_time); only the default queue gets the
    inlined schedule and drain fast paths.
    """

    #: Queue factory — overridable for baseline comparisons (the
    #: event-loop benchmark pins ``HeapEventQueue`` here to measure the
    #: calendar queue against the original heap).
    queue_factory = EventQueue

    def __init__(self, queue=None) -> None:
        self.queue = self.queue_factory() if queue is None else queue
        self.now: float = 0.0
        self.events_processed: int = 0
        #: Optional event observer with ``before_event(now)`` /
        #: ``after_event()`` hooks, called around every executed action.
        #: The session-isolation sanitizer
        #: (:func:`repro.analysis.sanitize.sanitize_network`) attaches
        #: here; ``None`` (the default) costs one attribute check per
        #: ``run`` call.
        self.observer = None

    def schedule(self, delay: float, action: Callable[[], Any]):
        """Run ``action`` after ``delay`` time units; returns a handle.

        The handle is opaque — pass it to :meth:`cancel` and nothing
        else.
        """
        # Same guard as EventQueue.push, call-free: ``not (delay >= 0)``
        # rejects negatives *and* NaN (NaN compares False against
        # everything); the equality check catches +inf.
        if not (delay >= 0) or delay == _INF:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        queue = self.queue
        if type(queue) is not EventQueue:
            return queue.push(self.now + delay, action)
        # Default-queue fast path: the push body inlined (the guard
        # above already validated, and ``now + delay`` is a float), so
        # one schedule is one call frame instead of two.  Must mirror
        # CalendarEventQueue.push exactly.
        time = self.now + delay
        seq = queue._seq
        queue._seq = seq + 1
        entry = [time, seq, action, queue]
        scaled = time * queue._inv_width
        epoch = int(scaled) if scaled < _EPOCH_CAP else _EPOCH_CAP_INT
        stack_epoch = queue._stack_epoch
        if stack_epoch is not None:
            if epoch == stack_epoch:
                _heappush(queue._pending, entry)
                return entry
            if epoch < stack_epoch:
                # Reachable even though ``time >= now``: a reentrant
                # peek from an event action (``sim.idle``, ``bool(sim.
                # queue)``) can promote a *future* bucket to the drain
                # stack while ``now`` still sits in the old epoch, so a
                # short-delay schedule lands behind the draining epoch.
                # Demote the stack so the bucket path below reinstates
                # global (time, seq) order — exactly what
                # CalendarEventQueue.push does.
                queue._demote_stack()
        buckets = queue._buckets
        bucket = buckets.get(epoch)
        if bucket is None:
            buckets[epoch] = [entry]
            _heappush(queue._epochs, epoch)
        else:
            bucket.append(entry)
        return entry

    def cancel(self, handle) -> None:
        self.queue.cancel(handle)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Process events in time order.

        Stops when the queue drains, when the next event would pass
        ``until``, or after ``max_events`` (a runaway-protocol guard).
        Returns the number of events processed by this call.
        """
        if until is None and self.observer is None and type(self.queue) is EventQueue:
            processed = self._run_drain(max_events)
        else:
            processed = self._run_general(until, max_events)
        self.events_processed += processed
        return processed

    def _run_drain(self, max_events: int | None) -> int:
        """Hot path: drain without deadline checks or observer hooks.

        The executor and the default :class:`CalendarEventQueue` are
        co-designed: the pop is inlined into the loop (no per-event
        method call, no per-pop allocation), reading the queue's drain
        structures directly.  Any other queue object takes
        :meth:`_run_general` — same semantics, one ``pop`` call per
        event.
        """
        queue = self.queue
        budget = -1 if max_events is None else max_events
        processed = 0
        now = self.now
        heappop = _heappop
        # The stack/pending list *objects* are permanent — every queue
        # operation mutates them in place (see ``_load_next_bucket``) —
        # so holding direct references for the whole drain is safe.
        stack = queue._stack
        pending = queue._pending
        while processed != budget:
            if stack:
                if pending and pending[0] < stack[-1]:
                    item = heappop(pending)
                else:
                    item = stack.pop()
            elif pending:
                item = heappop(pending)
            elif queue._load_next_bucket():
                continue
            else:
                break
            action = item[2]
            if action is None:  # cancelled: drop lazily
                continue
            # No consumed-marking needed: the entry just left the last
            # queue structure holding it, so a late cancel mutates a
            # free-floating list — naturally a no-op.
            time = item[0]
            if time > now:
                # One attribute write per time *advance*, not per event
                # — equal-time bursts (the common case under unit link
                # delays) reuse the already-published clock value.
                now = time
                self.now = time
            action()
            processed += 1
        return processed

    def _run_general(self, until: float | None, max_events: int | None) -> int:
        """Deadline- and/or observer-carrying runs (exact old loop)."""
        observer = self.observer
        processed = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if max_events is not None and processed >= max_events:
                break
            time, action = self.queue.pop()
            self.now = max(self.now, time)
            if observer is not None:
                observer.before_event(self.now)
                try:
                    action()
                finally:
                    observer.after_event()
            else:
                action()
            processed += 1
        return processed

    def run_to_quiescence(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (protocol convergence).

        Raises ``RuntimeError`` if the event budget is exhausted — a
        protocol that never quiesces is a bug worth failing loudly on.
        """
        with obs.span("run_to_quiescence", cat="des") as sp:
            sp.set_vt(start=self.now)
            processed = self.run(max_events=max_events)
            sp.set_vt(end=self.now)
            sp.set(events=processed)
        if self.queue.peek_time() is not None:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"(t={self.now}, pending={len(self.queue)})"
            )
        return processed

    @property
    def idle(self) -> bool:
        return self.queue.peek_time() is None
