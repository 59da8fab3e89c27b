"""Batched routing service: many pairs over one fault pattern.

The experiment sweeps (T2/T4), the DES workloads, and the fault-block
literature's evaluation methodology all route *batches* — tens of
thousands of (source, destination) pairs against a single fault pattern.
Routing them one at a time through a fresh router per pair would
re-derive every piece of model state per pair: the ``LabelledGrid``,
the MCC walls, and a reverse-reachability flood per destination.

:class:`RoutingService` shares all of it, and routes the batch as
arrays rather than pair by pair:

* the **front half is vectorized**: faulty endpoints, direction classes
  (``dest < source`` per axis) and canonical coordinates come from
  numpy over the whole batch, which is then sorted into (class,
  destination) groups, so each ``LabelledGrid`` + wall set is built
  once per class and one reverse flood serves every pair headed to a
  destination — the grouped order also makes the engine's LRU-bounded
  reach caches hit even at tiny capacities;
* a class's destinations are **primed in runs** of up to
  ``PRIME_CHUNK``, each one batched wavefront sweep;
* **feasibility and refusal reasons are vectorized**: each group's
  reach mask is indexed at all its sources at once, with the same
  verdicts as :meth:`AdaptiveRouter._infeasible_reason`;
* the **forwarding walk runs in lockstep**: every feasible pair of a
  block advances one hop per numpy step, reading candidate bits from
  its group's stacked allowed-step mask, and the policy's
  ``choose_many`` picks the axes.  Blocks hold at most ``WALK_CELLS``
  stacked mask cells (plus one run), so transient memory does not grow
  with the batch; the walk never writes into cached masks.

Results are element-wise identical to per-pair
:meth:`AdaptiveRouter.route` for stateless policies (fixed/diagonal —
property-tested), including ``max_hops`` budgets, blind-mode stuck
paths and degenerate pairs.  Policies without ``choose_many`` take the
scalar :meth:`AdaptiveRouter._forward` loop per pair, in grouped order.
A stateful policy such as ``RandomPolicy`` therefore draws in grouped
order rather than input order, so individual paths may differ while
delivery verdicts still agree with the model — unless the service is
built with ``replay_policy=True``, which defers the forwarding walks
and replays them in input order: every policy draw then happens exactly
when a per-call loop would make it, so batched paths match per-call
paths element-wise even for stateful policies (feasibility checks never
consume draws, and infeasible or faulty-endpoint pairs are resolved
before any walk).  The deferred walks may re-flood destinations evicted
from the LRU reach cache, so leave replay off for stateless policies
(it also forces the scalar walk).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.labelling import FAULTY, SAFE
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.routing.engine import (
    DEFAULT_REACH_CACHE_SIZE,
    AdaptiveRouter,
    RouteResult,
    _ClassModel,
)
from repro.routing.policies import Policy

#: Destinations per batched reverse-flood kernel call.  Bounds the
#: transient stacked-mask memory (chunk x mesh bools) while sharing one
#: wavefront sweep across the chunk.
PRIME_CHUNK = 64
#: Cells of stacked allowed-step masks one lockstep walk holds at most
#: (one byte each) beyond its last run: 2 MiB, 512 masks of a 16^3 mesh.
WALK_CELLS = 1 << 21


def _pairs_array(pairs: Iterable[Sequence[Sequence[int]]]) -> np.ndarray:
    """The (source, dest) pairs as one ``(n, 2, ndim)`` integer array."""
    pairs = list(pairs)
    if not pairs:
        return np.zeros((0, 2, 0), dtype=np.intp)
    arr = np.asarray(pairs, dtype=np.intp)
    if arr.ndim != 3 or arr.shape[1] != 2:
        raise ValueError("pairs must be (source, dest) coordinate pairs")
    return arr


class RoutingService:
    """Routes batches of pairs over one fault pattern with shared state.

    A thin orchestration layer over :class:`AdaptiveRouter`: the router
    owns the per-class models and LRU reach caches; the service owns the
    batch decomposition (class -> destination -> vectorized feasibility)
    and result ordering.  ``service.route`` is exactly one-pair routing
    through the same shared caches.
    """

    def __init__(
        self,
        fault_mask: np.ndarray | None,
        mode: str = "mcc",
        policy: Policy | None = None,
        max_hops: int | None = None,
        reach_cache_size: int | None = DEFAULT_REACH_CACHE_SIZE,
        replay_policy: bool = False,
        label_cache: bool = True,
        router: AdaptiveRouter | None = None,
    ):
        if router is not None:
            # Adopt a caller-owned router (the online service supplies
            # one whose models track a mutating fault set); the other
            # model knobs must then live on that router.
            self.router = router
        else:
            if fault_mask is None:
                raise ValueError("RoutingService needs a fault_mask or a router")
            self.router = AdaptiveRouter(
                fault_mask,
                mode=mode,
                policy=policy,
                max_hops=max_hops,
                reach_cache_size=reach_cache_size,
                label_cache=label_cache,
            )
        #: Replay forwarding walks in input order so stateful policies
        #: (``RandomPolicy``) draw exactly as a per-call loop would.
        self.replay_policy = replay_policy

    @property
    def fault_mask(self) -> np.ndarray:
        return self.router.fault_mask

    @property
    def mode(self) -> str:
        return self.router.mode

    def labelled(self, orientation: Orientation | None = None):
        """The cached :class:`LabelledGrid` for a direction class.

        Shares the router's per-class models, so e.g. the region
        experiments and a subsequent batch over the same pattern label
        the grid once.  Not available in blind mode for "mcc"/"rfb"
        semantics — it returns whatever grid the mode builds.
        """
        if orientation is None:
            orientation = Orientation.identity(self.router.fault_mask.shape)
        return self.router._model_for(orientation).labelled

    # -- single pair -------------------------------------------------------

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one pair through the shared model caches."""
        return self.router.route(source, dest)

    # -- batched routing ---------------------------------------------------

    def route_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> list[RouteResult]:
        """Route every (source, dest) pair; results in input order."""
        pairs = _pairs_array(pairs)
        with obs.span("route_batch", cat="routing", n=len(pairs)) as sp:
            results: list[RouteResult | None] = [None] * len(pairs)
            plan = self._plan(pairs, results)
            lockstep = not self.replay_policy and hasattr(
                self.router.policy, "choose_many"
            )
            deferred: list | None = [] if self.replay_policy else None
            for block in self._blocks(plan, lockstep):
                go = self._decide(plan, block, results)
                if lockstep:
                    self._walk(plan, block, go, results)
                else:
                    self._walk_scalar(plan, block, go, results, deferred)
            if deferred is not None:
                # Input order = the per-call draw order for stateful policies.
                deferred.sort(key=lambda job: job[0])
                for idx, model, orientation, s, d in deferred:
                    results[idx] = self.router._forward(model, orientation, s, d)
            sp.set(delivered=sum(1 for r in results if r is not None and r.delivered))
        return results  # type: ignore[return-value]

    def feasible_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> np.ndarray:
        """Vectorized model feasibility verdict per pair (input order).

        True exactly when :meth:`route` would proceed past its checks:
        non-faulty endpoints, model-safe endpoints (mcc/rfb), and a
        model-permitted minimal path.  Blind mode has no feasibility
        notion and raises.
        """
        if self.mode == "blind":
            raise ValueError("blind mode has no feasibility model")
        pairs = _pairs_array(pairs)
        with obs.span("feasible_batch", cat="routing", n=len(pairs)) as sp:
            out = np.zeros(len(pairs), dtype=bool)
            results: list[RouteResult | None] = [None] * len(pairs)
            plan = self._plan(pairs, results)
            for block in self._blocks(plan, False):
                go = self._decide(plan, block, None)
                out[plan.index[block.p0 : block.p1]] = go
            sp.set(feasible=int(out.sum()))
        return out

    # -- batch decomposition -----------------------------------------------

    def _plan(self, pairs: np.ndarray, results: list[RouteResult | None]) -> "_Plan":
        """Vectorized front half: endpoint checks, classes, destination groups.

        Faulty-endpoint pairs are resolved immediately into ``results``.
        The rest are sorted into (direction class, destination) groups:
        classes in order of first appearance, destinations in order of
        first appearance within their class, pairs in input order within
        a group — the order the scalar walk draws policy choices in.
        """
        shape = self.router.fault_mask.shape
        ndim = len(shape)
        plan = _Plan(shape, pairs[:, 0])
        if not len(pairs):
            return plan
        src, dst = pairs[:, 0], pairs[:, 1]
        fault_mask = self.router.fault_mask
        faulty = fault_mask[tuple(src.T)] | fault_mask[tuple(dst.T)]
        for i in np.flatnonzero(faulty).tolist():
            results[i] = RouteResult(
                delivered=False,
                path=[plan.source(i)],
                feasible=False,
                reason="endpoint faulty",
            )
        live = np.flatnonzero(~faulty)
        src, dst = src[live], dst[live]
        # Direction class per pair: reflect the axes where dest < source.
        neg = dst < src
        top = np.asarray(shape, dtype=np.intp) - 1
        s = np.where(neg, top - src, src)
        d = np.where(neg, top - dst, dst)
        code = neg @ (1 << np.arange(ndim))
        key = code * plan.cells + np.ravel_multi_index(tuple(d.T), shape)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        inverse = inverse.reshape(-1)
        group_code = code[first]
        class_first = np.full(1 << ndim, len(live))
        np.minimum.at(class_first, group_code, first)
        group_rank = np.empty(len(first), dtype=np.intp)
        group_rank[np.lexsort((first, class_first[group_code]))] = np.arange(len(first))
        group = group_rank[inverse]
        order = np.argsort(group, kind="stable")
        plan.index = live[order]
        plan.neg, plan.s, plan.d = neg[order], s[order], d[order]
        plan.bounds = np.searchsorted(group[order], np.arange(len(first) + 1))
        heads = plan.bounds[:-1]
        plan.dests = [tuple(c) for c in plan.d[heads].tolist()]
        codes = code[order][heads].tolist()

        chunk = PRIME_CHUNK
        if self.router.reach_cache_size is not None:
            chunk = min(chunk, self.router.reach_cache_size)
        g0 = 0
        while g0 < len(codes):
            g1 = g0 + 1
            while g1 < len(codes) and codes[g1] == codes[g0] and g1 - g0 < chunk:
                g1 += 1
            signs = tuple(-1 if codes[g0] >> a & 1 else 1 for a in range(ndim))
            orientation = Orientation(signs, shape)
            plan.runs.append(
                _Run(orientation, self.router._model_for(orientation), g0, g1)
            )
            g0 = g1
        return plan

    def _blocks(self, plan: "_Plan", lockstep: bool):
        """Consecutive runs, reach caches primed, with their walk masks.

        Each run's reverse floods go through ONE batched sweep
        (:meth:`_ClassModel.prime_reach`), and the run never exceeds
        the LRU bound, so a primed mask is read before it can be
        evicted.  A block stacks one allowed-step mask per group (per
        run in blind mode, where the mask is just "not faulty").  The
        scalar walk takes one run per block; the lockstep walk gathers
        runs until the stacked masks reach ``WALK_CELLS`` cells, so its
        transient memory stays bounded whatever the batch size.
        """
        limit = max(1, WALK_CELLS // plan.cells) if lockstep else 1
        blind = self.mode == "blind"
        runs: list[_Run] = []
        masks: list[np.ndarray] = []
        rows: list[int] = []
        for run in plan.runs:
            model = run.model
            if blind:
                rows.extend([len(masks)] * (run.g1 - run.g0))
                masks.append(model.labelled.status != FAULTY)
            else:
                dests = plan.dests[run.g0 : run.g1]
                model.prime_reach(dests)
                rows.extend(range(len(masks), len(masks) + len(dests)))
                masks.extend(model.reach_mask(dest) for dest in dests)
            runs.append(run)
            if len(masks) >= limit:
                yield _Block(plan, runs, masks, rows)
                runs, masks, rows = [], [], []
        if runs:
            yield _Block(plan, runs, masks, rows)

    def _decide(
        self,
        plan: "_Plan",
        block: "_Block",
        results: list[RouteResult | None] | None,
    ) -> np.ndarray:
        """Which of the block's pairs walk; refusals go into ``results``.

        The same verdicts and reasons as
        :meth:`AdaptiveRouter._infeasible_reason`: an endpoint the model
        does not mark safe, then a source the model blocks or from which
        the destination is unreachable (``source == dest`` always
        passes).  Blind mode refuses nothing.
        """
        p0, p1 = block.p0, block.p1
        if self.mode == "blind":
            return np.ones(p1 - p0, dtype=bool)
        s, d = plan.s[p0:p1], plan.d[p0:p1]
        unsafe = np.zeros(p1 - p0, dtype=bool)
        blocked = np.zeros(p1 - p0, dtype=bool)
        for run in block.runs:
            lo, hi = plan.bounds[run.g0] - p0, plan.bounds[run.g1] - p0
            status = run.model.labelled.status
            src, dst = tuple(s[lo:hi].T), tuple(d[lo:hi].T)
            unsafe[lo:hi] = (status[src] != SAFE) | (status[dst] != SAFE)
            blocked[lo:hi] = run.model._blocked[src]
        reach = block.masks.reshape(-1)[
            block.rows * plan.cells + np.ravel_multi_index(tuple(s.T), plan.shape)
        ]
        infeasible = ~unsafe & (s != d).any(axis=1) & (blocked | ~reach)
        if results is not None:
            index = plan.index[p0:p1]
            for k in np.flatnonzero(unsafe | infeasible).tolist():
                i = int(index[k])
                results[i] = RouteResult(
                    delivered=False,
                    path=[plan.source(i)],
                    feasible=False,
                    reason=(
                        "endpoint inside fault region" if unsafe[k] else "infeasible"
                    ),
                )
        return ~(unsafe | infeasible)

    def _walk_scalar(
        self,
        plan: "_Plan",
        block: "_Block",
        go: np.ndarray,
        results: list[RouteResult | None],
        deferred: list | None,
    ) -> None:
        """Per-pair forwarding through :meth:`AdaptiveRouter._forward`.

        For policies without ``choose_many`` (stateful ones draw one
        choice at a time).  With ``deferred`` given, feasible pairs are
        queued as ``(index, model, orientation, src, dst)`` jobs instead
        of walked inline (policy-replay mode).
        """
        p0 = block.p0
        for run in block.runs:
            lo, hi = plan.bounds[run.g0], plan.bounds[run.g1]
            index = plan.index[lo:hi].tolist()
            s, d = plan.s[lo:hi].tolist(), plan.d[lo:hi].tolist()
            for k in np.flatnonzero(go[lo - p0 : hi - p0]).tolist():
                job = (index[k], run.model, run.orientation, tuple(s[k]), tuple(d[k]))
                if deferred is not None:
                    deferred.append(job)
                else:
                    results[index[k]] = self.router._forward(*job[1:])

    def _walk(
        self,
        plan: "_Plan",
        block: "_Block",
        go: np.ndarray,
        results: list[RouteResult | None],
    ) -> None:
        """Lockstep forwarding: every walking pair advances one hop per step.

        Pairs are ordered by distance, longest first, so the pairs still
        walking at hop ``k`` (every minimal walk ends exactly at its
        distance) are a prefix of the arrays.  A step gathers each
        pair's candidate bits — the +1 neighbour's bit in its group's
        allowed-step mask, on the axes where it still trails its
        destination — and the policy's ``choose_many`` picks one axis per
        pair.  Pairs left without a candidate stop ("stuck"); with
        ``max_hops`` set, pairs still walking after that many hops stop
        with "hop budget exceeded".  Paths leave as mesh-frame tuples.

        The scalar rule lets any step onto a non-faulty destination; the
        mask bit there agrees, because a walking pair's destination
        passed the safe-endpoint check and a safe cell is open in every
        model (blind masks are "not faulty" throughout).  The walk only
        reads the stacked copy, never the cached masks.
        """
        walking = block.p0 + np.flatnonzero(go)
        if not len(walking):
            return
        cells = plan.cells
        blind = self.mode == "blind"
        row = block.rows[walking - block.p0]
        s, d = plan.s[walking], plan.d[walking]
        dist = (d - s).sum(axis=1)
        order = np.argsort(-dist, kind="stable")
        walking, row, dist = walking[order], row[order], dist[order]
        s, d = s[order], d[order]
        strides = np.asarray(
            [int(np.prod(plan.shape[a + 1 :])) for a in range(len(plan.shape))],
            dtype=np.intp,
        )
        max_hops = self.router.max_hops
        steps = int(dist[0]) if max_hops is None else min(int(dist[0]), max_hops)
        here = row * cells + s @ strides
        hist = np.empty((len(walking), steps + 1), dtype=np.intp)
        hist[:] = here[:, None]
        length = dist + 1
        stuck = np.zeros(len(walking), dtype=bool)
        active = np.searchsorted(-dist, -np.arange(steps), side="left").tolist()
        flat_masks = block.masks.reshape(-1)
        pos = s.copy()
        lanes = np.arange(len(walking))
        choose = self.router.policy.choose_many
        any_stuck = False
        for k in range(steps):
            m = active[k]
            p, t = pos[:m], d[:m]
            trails = p < t
            cand = flat_masks[here[:m, None] + trails * strides]
            cand &= trails
            moves = cand.any(axis=1)
            if not moves.all():
                fresh = ~moves & ~stuck[:m]
                length[:m][fresh] = k + 1
                stuck[:m] |= fresh
                any_stuck = True
            axis = choose(cand, p, t)
            if any_stuck:
                # Stuck pairs stay in the prefix but never move again.
                axis_step = strides[axis] * moves
                p[lanes[:m], axis] += moves
            else:
                axis_step = strides[axis]
                p[lanes[:m], axis] += 1
            here[:m] += axis_step
            hist[:m, k + 1] = here[:m]
        over = ~stuck & (dist > steps)
        length[over] = steps + 1

        # Every path's cells, concatenated, to mesh-frame tuples at once.
        taken = np.arange(steps + 1) < length[:, None]
        canon = (hist - (row * cells)[:, None])[taken]
        coords = np.stack(np.unravel_index(canon, plan.shape), axis=-1)
        flip = np.repeat(plan.neg[walking], length, axis=0)
        top = np.asarray(plan.shape, dtype=np.intp) - 1
        axes = np.where(flip, top - coords, coords).T.tolist()
        mesh = list(zip(*axes, strict=True))
        ends = np.cumsum(length).tolist()
        verdict = None if blind else True
        start = 0
        failed = (stuck | over).tolist()
        for k, i in enumerate(plan.index[walking].tolist()):
            path = mesh[start : ends[k]]
            start = ends[k]
            if failed[k]:
                results[i] = RouteResult(
                    delivered=False,
                    path=path,
                    feasible=verdict,
                    stuck_at=path[-1],
                    reason="stuck" if stuck[k] else "hop budget exceeded",
                )
            else:
                results[i] = RouteResult(delivered=True, path=path, feasible=True)


class _Run:
    """One class's consecutive destination groups, primed together."""

    __slots__ = ("orientation", "model", "g0", "g1")

    def __init__(self, orientation: Orientation, model: _ClassModel, g0: int, g1: int):
        self.orientation, self.model, self.g0, self.g1 = orientation, model, g0, g1


class _Plan:
    """A batch's live pairs sorted into (class, destination) groups.

    Per sorted pair: ``index`` (input position), ``neg`` (reflected
    axes), canonical ``s``/``d``.  Group ``g`` holds the sorted pairs
    ``bounds[g]:bounds[g + 1]`` and heads for ``dests[g]``; ``runs``
    cover the groups in order.
    """

    def __init__(self, shape: tuple[int, ...], sources: np.ndarray):
        ndim = len(shape)
        self.shape = shape
        self.cells = int(np.prod(shape))
        self.sources = sources
        self.index = np.zeros(0, dtype=np.intp)
        self.neg = np.zeros((0, ndim), dtype=bool)
        self.s = self.d = np.zeros((0, ndim), dtype=np.intp)
        self.bounds = np.zeros(1, dtype=np.intp)
        self.dests: list[Coord] = []
        self.runs: list[_Run] = []

    def source(self, i: int) -> Coord:
        """Input pair ``i``'s source (mesh frame)."""
        return tuple(self.sources[i].tolist())


class _Block:
    """Consecutive runs plus their stacked allowed-step masks.

    ``masks[rows[k]]`` is the mask the block's ``k``-th pair walks on.
    """

    def __init__(self, plan: _Plan, runs: list[_Run], masks: list, rows: list[int]):
        self.runs = runs
        self.p0 = int(plan.bounds[runs[0].g0])
        self.p1 = int(plan.bounds[runs[-1].g1])
        self.masks = np.stack(masks).reshape(len(masks), plan.cells)
        sizes = np.diff(plan.bounds[runs[0].g0 : runs[-1].g1 + 1])
        self.rows = np.repeat(np.asarray(rows, dtype=np.intp), sizes)
