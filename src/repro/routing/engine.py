"""The adaptive minimal routing engine (Algorithm 3 / Algorithm 6 step 2).

``AdaptiveRouter`` carries a fault-information model ("mcc", "rfb",
"oracle", or "blind") for one fault pattern and routes arbitrary pairs:

1. map the pair into its direction class (canonical frame);
2. feasibility check (model condition; Theorem 1/2);
3. hop-by-hop forwarding: a candidate direction survives when its
   neighbor can still reach the destination through non-faulty,
   non-useless nodes — the exact informational content of Algorithm 3
   step 2(b)'s boundary records (see _ClassModel for why this is the
   distilled form and how it relates to the walls);

4. a pluggable policy picks among the survivors (step 2c).

In "oracle" mode the exclusion rule is exact reverse reachability — the
reference the MCC mode must match (property P3).  It is the same rule
over a class model that marks faults only (no useless cells), so it
shares the per-destination reach cache and code path of mcc/rfb.
"blind" mode uses no model at all (baseline).

All model state is cached: one ``_ClassModel`` per direction class and
one reverse-reachability mask per destination (LRU-bounded, see
``reach_cache_size``), each computed by the oracle's wavefront sweep.
:mod:`repro.routing.batch` exploits exactly these caches to route many
pairs over one pattern without redundant work: it walks whole batches
in lockstep over stacked reach masks.  The scalar loop here
(:meth:`AdaptiveRouter._forward`) stays the reference: ``route`` always
uses it, and so does the batch service for policies without a
vectorized ``choose_many`` (``RandomPolicy``, custom policies) and in
policy-replay mode.  The parity suites compare the two walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.baselines.rfb import rfb_labelled
from repro.core.components import extract_mccs
from repro.core.labelling import FAULTY, SAFE, USELESS, LabelledGrid, label_grid
from repro.core.model_cache import cached_class_assets, cached_labelled
from repro.core.walls import Wall, build_walls
from repro.mesh.coords import Coord, manhattan
from repro.mesh.orientation import Orientation
from repro.routing.oracle import reverse_reachable, reverse_reachable_many
from repro.routing.policies import FixedOrderPolicy, Policy
from repro.util.caching import LRUCache

#: Default bound on cached per-destination reachability masks (per class).
DEFAULT_REACH_CACHE_SIZE = 1024


@dataclass
class RouteResult:
    """Outcome of one routing attempt (mesh-frame coordinates).

    ``feasible`` is the fault-information model's verdict on minimal-path
    existence: True/False when a model ran its check, ``None`` when no
    check ever ran (blind mode failures — the model has no opinion).
    A delivered result always reports ``feasible=True``: the traversed
    path itself is the existence proof.
    """

    delivered: bool
    path: list[Coord]
    feasible: bool | None
    stuck_at: Coord | None = None
    reason: str = ""
    #: Fault-model epoch the verdict was computed against.  ``None`` for
    #: static routers; :class:`repro.online.OnlineRoutingService` stamps
    #: it so callers can tell which version of a mutating fault set a
    #: result reflects.
    epoch: int | None = None

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def is_minimal(self) -> bool:
        """Delivered with hop count equal to the Manhattan distance."""
        return self.delivered and self.hops == manhattan(self.path[0], self.path[-1])


class _ClassModel:
    """Per-direction-class model state (canonical frame).

    The exact informational content of the paper's distributed model is
    property P1: a node is *useless* for this direction class iff every
    minimal path through it dies, so monotone reachability over the
    non-faulty, non-useless cells equals ground-truth reachability over
    the non-faulty cells (validated in test_minimality).  The engine
    evaluates the routing rule in that distilled form — one cached
    reverse flood per destination — while the message-passing layer in
    :mod:`repro.distributed` realizes the same decisions with literal
    per-node boundary records.  The wall structures stay available (built
    on first read of :attr:`walls`) for the fidelity experiments (T5),
    which measure how closely the paper's region-membership forms track
    this exact rule.

    Can't-reach cells are *not* excluded here: they cannot be entered
    from within the direction class (a safe node's positive neighbor is
    never can't-reach — tested), so their exclusion is automatic, and
    degenerate pairs whose RMP is a lower-dimensional slice may stand on
    them legitimately.
    """

    def __init__(
        self,
        labelled: LabelledGrid,
        walls: list[Wall] | Callable[[], list[Wall]],
        labeller=label_grid,
        reach_cache_size: int | None = DEFAULT_REACH_CACHE_SIZE,
        blocked: np.ndarray | None = None,
        open_mask: np.ndarray | None = None,
        unsafe: np.ndarray | None = None,
    ):
        """``blocked``/``open_mask``/``unsafe`` override the masks
        normally derived from ``labelled.status`` — the online router
        passes its dynamic class's live arrays here so fault events
        update the model in place instead of rebuilding it.  ``walls``
        may be a zero-argument function: routing never reads the walls,
        so they are built on first use only."""
        self.labelled = labelled
        self._walls = walls
        self.labeller = labeller
        self.unsafe = labelled.unsafe_mask if unsafe is None else unsafe
        status = labelled.status
        if blocked is None:
            blocked = (status == FAULTY) | (status == USELESS)
        self._blocked = blocked
        self._open = ~blocked if open_mask is None else open_mask
        # Reverse-reachability through permitted cells, per destination
        # (LRU-bounded: million-pair workloads touch many destinations).
        self._reach: LRUCache[Coord, np.ndarray] = LRUCache(reach_cache_size)

    @property
    def walls(self) -> list[Wall]:
        if callable(self._walls):
            self._walls = self._walls()
        return self._walls

    def reach_mask(self, dest: Coord) -> np.ndarray:
        """Cells that can still reach ``dest`` through permitted cells.

        Entries are frozen on insert: every consumer treats reach masks
        as shared immutable snapshots (the batch scorer hands them out
        directly), so an in-place write must fail loudly.
        """
        mask = self._reach.get(dest)
        if mask is None:
            mask = reverse_reachable(self._open, dest)
            mask.setflags(write=False)
            self._reach.put(dest, mask)
        return mask

    def prime_reach(self, dests: Sequence[Coord]) -> None:
        """Warm the reach cache for many destinations with one batched DP."""
        missing = [d for d in dests if d not in self._reach]
        if not missing:
            return
        stacked = reverse_reachable_many(self._open, missing)
        for dest, mask in zip(missing, stacked, strict=True):
            # A copy, not a view: an evicted mask must free its own
            # memory, not stay pinned by a sibling of the same sweep.
            mask = mask.copy()
            mask.setflags(write=False)
            self._reach.put(dest, mask)

    def _reach_ok(self, cell: Coord, dest: Coord) -> bool:
        """Can ``cell`` still reach ``dest`` through permitted cells?"""
        return bool(self.reach_mask(dest)[cell])

    def allowed(self, cell: Coord, dest: Coord) -> bool:
        """May a minimal routing toward ``dest`` step onto ``cell``?"""
        if cell == dest:
            return not self.labelled.fault_mask[cell]
        return self._reach_ok(cell, dest)

    def candidates(self, pos: Coord, dest: Coord) -> list[int]:
        """Surviving preferred axes at ``pos`` for ``dest`` (canonical)."""
        out = []
        for axis in range(len(pos)):
            if pos[axis] >= dest[axis]:
                continue
            nxt = list(pos)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if not self.allowed(nxt, dest):
                continue
            out.append(axis)
        return out

    def feasible(self, source: Coord, dest: Coord) -> bool:
        """Theorem 1/2: a minimal path exists iff the model permits one."""
        if source == dest:
            return True
        if self._blocked[source]:
            return False
        return self._reach_ok(source, dest)

    def endpoints_safe(self, source: Coord, dest: Coord) -> bool:
        status = self.labelled.status
        return bool(status[source] == SAFE and status[dest] == SAFE)


def _class_walls(
    labelled: LabelledGrid,
    orientation: Orientation,
    labeller,
    kind: str,
    fault_mask: np.ndarray | None,
) -> list[Wall]:
    """A class model's walls, built on first use.

    With ``fault_mask`` given they come from the label cache when it
    holds this very labelled grid, so every consumer of the pattern
    shares one wall set.
    """
    if fault_mask is not None:
        cached, _, walls = cached_class_assets(
            fault_mask, orientation, labeller=labeller, kind=kind
        )
        if cached is labelled:
            return walls
    return build_walls(extract_mccs(labelled))


class AdaptiveRouter:
    """Minimal adaptive router over one fault pattern.

    ``mode`` selects the fault-information model:

    * ``"mcc"``    — the paper's model (labelling + walls);
    * ``"rfb"``    — same machinery over rectangular faulty blocks;
    * ``"oracle"`` — exact reverse-reachability exclusions (reference);
    * ``"blind"``  — no model; only faulty neighbors are avoided.

    ``reach_cache_size`` bounds the per-destination reachability masks
    cached by each class model, in every mode; ``None`` disables the
    bound.  ``label_cache=True`` (default) reuses canonical-class
    labellings across routers by fault-mask content
    (:mod:`repro.core.model_cache`), so sweeps that revisit a pattern —
    or several model consumers over one pattern — label each direction
    class once per process.
    """

    MODES = ("mcc", "rfb", "oracle", "blind")

    def __init__(
        self,
        fault_mask: np.ndarray,
        mode: str = "mcc",
        policy: Policy | None = None,
        max_hops: int | None = None,
        reach_cache_size: int | None = DEFAULT_REACH_CACHE_SIZE,
        label_cache: bool = True,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown router mode {mode!r}; pick from {self.MODES}")
        self.fault_mask = np.asarray(fault_mask, dtype=bool)
        self.mode = mode
        self.policy = policy or FixedOrderPolicy()
        self.max_hops = max_hops
        self.reach_cache_size = reach_cache_size
        self.label_cache = label_cache
        self._models: dict[tuple[int, ...], _ClassModel] = {}

    # -- model construction (cached per direction class) -------------------

    def _model_for(self, orientation: Orientation) -> _ClassModel:
        key = orientation.signs
        if key not in self._models:
            if self.mode in ("mcc", "rfb"):
                labeller = rfb_labelled if self.mode == "rfb" else label_grid
                if self.label_cache:
                    # Content-addressed: the digest is taken from the
                    # mask as it is *now*, so the cached labelling
                    # always matches the labelled content even when a
                    # caller mutates its mask array between builds.
                    labelled = cached_labelled(
                        self.fault_mask, orientation,
                        labeller=labeller, kind=self.mode,
                    )
                else:
                    labelled = labeller(self.fault_mask, orientation)
                walls = partial(
                    _class_walls, labelled, orientation, labeller, self.mode,
                    self.fault_mask if self.label_cache else None,
                )
            else:
                # oracle/blind consult only the fault mask: skip the
                # labelling fixed point and mark faults directly.
                status = orientation.to_canonical(self.fault_mask).astype(np.int8)
                status *= FAULTY
                labelled = LabelledGrid(status=status, orientation=orientation)
                labeller = label_grid
                walls = []
            self._models[key] = _ClassModel(
                labelled, walls, labeller, self.reach_cache_size
            )
        return self._models[key]

    # -- routing -------------------------------------------------------------

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one packet; returns the mesh-frame path and verdicts."""
        source = tuple(int(c) for c in source)
        dest = tuple(int(c) for c in dest)
        if self.fault_mask[source] or self.fault_mask[dest]:
            # A failed result, not an exception: dynamic-fault workloads
            # (MeshNetwork.inject_fault) route to endpoints that died
            # mid-run, which must score as failures, not crash the sweep.
            return RouteResult(
                delivered=False,
                path=[source],
                feasible=False,
                reason="endpoint faulty",
            )
        orientation = Orientation.for_pair(source, dest, self.fault_mask.shape)
        s = orientation.map_coord(source)
        d = orientation.map_coord(dest)
        model = self._model_for(orientation)

        reason = self._infeasible_reason(model, s, d)
        if reason is not None:
            return RouteResult(
                delivered=False, path=[source], feasible=False, reason=reason
            )
        return self._forward(model, orientation, s, d)

    def _infeasible_reason(
        self, model: _ClassModel, s: Coord, d: Coord
    ) -> str | None:
        """The model's refusal reason for a canonical pair, or None (go).

        Blind mode has no feasibility check: it just tries.  Oracle mode
        runs the mcc/rfb checks over its own grid, where every non-faulty
        cell is safe, so only the reachability verdict can refuse.
        """
        if self.mode == "blind":
            return None
        if not model.endpoints_safe(s, d):
            return "endpoint inside fault region"
        if not model.feasible(s, d):
            return "infeasible"
        return None

    def _forward(
        self, model: _ClassModel, orientation: Orientation, s: Coord, d: Coord
    ) -> RouteResult:
        """Hop-by-hop forwarding loop after a passed (or absent) check.

        The scalar reference walk: one pair, one policy call per hop.
        """
        pos = s
        canonical_path = [pos]
        budget = self.max_hops if self.max_hops is not None else manhattan(s, d) + 1
        while pos != d:
            if len(canonical_path) - 1 >= budget:
                return self._fail(orientation, canonical_path, "hop budget exceeded")
            candidates = self._candidates(model, pos, d)
            if not candidates:
                return self._fail(orientation, canonical_path, "stuck")
            axis = self.policy.choose(candidates, pos, d)
            if axis not in candidates:
                raise RuntimeError(f"policy chose non-candidate axis {axis}")
            nxt = list(pos)
            nxt[axis] += 1
            pos = tuple(nxt)
            canonical_path.append(pos)
        path = [orientation.unmap_coord(c) for c in canonical_path]
        return RouteResult(delivered=True, path=path, feasible=True)

    def _candidates(self, model: _ClassModel, pos: Coord, dest: Coord) -> list[int]:
        if self.mode != "blind":
            return model.candidates(pos, dest)
        # blind: only faulty neighbors are avoided.
        out = []
        for axis in range(len(pos)):
            if pos[axis] >= dest[axis]:
                continue
            nxt = list(pos)
            nxt[axis] += 1
            if not model.labelled.fault_mask[tuple(nxt)]:
                out.append(axis)
        return out

    def _fail(
        self, orientation: Orientation, canonical_path: list[Coord], reason: str
    ) -> RouteResult:
        path = [orientation.unmap_coord(c) for c in canonical_path]
        # Reaching the forwarding loop means the model's feasibility check
        # passed — except in blind mode, where no check ever ran and the
        # honest verdict is "unknown".
        return RouteResult(
            delivered=False,
            path=path,
            feasible=None if self.mode == "blind" else True,
            stuck_at=path[-1],
            reason=reason,
        )


def explore_all_choices(
    router: AdaptiveRouter, source: Sequence[int], dest: Sequence[int]
) -> tuple[bool, int]:
    """Adversarial exploration: follow *every* candidate at every node.

    Returns (all_executions_deliver, number_of_distinct_nodes_explored).
    Used by the P3 property tests: under the MCC model, any adaptive
    choice sequence must end at the destination when the feasibility
    check passed.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)
    orientation = Orientation.for_pair(source, dest, router.fault_mask.shape)
    s = orientation.map_coord(source)
    d = orientation.map_coord(dest)
    model = router._model_for(orientation)
    seen: set[Coord] = set()
    ok = True
    stack = [s]
    seen.add(s)
    while stack:
        pos = stack.pop()
        if pos == d:
            continue
        candidates = router._candidates(model, pos, d)
        if not candidates:
            ok = False
            continue
        for axis in candidates:
            nxt = list(pos)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return ok, len(seen)
