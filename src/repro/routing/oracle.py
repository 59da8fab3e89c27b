"""Ground-truth minimal-path oracle: monotone lattice reachability.

In the canonical direction class, a *minimal* path from ``s`` to ``d``
(component-wise ``s <= d``) is exactly a monotone lattice path: every hop
is +1 along some axis.  Minimal-path existence through a set of open
(non-blocked) nodes is therefore a DAG-reachability problem, solved here
with one vectorized dynamic program, an anti-diagonal wavefront:

* a cell's monotone reachability depends only on its -1 neighbours,
  which all lie on the previous plane ``sum(coords) = t - 1``, so the
  planes are swept in order, one numpy step each — ``sum(shape) - ndim
  + 1`` steps in all, whatever the mesh volume;
* the cells are stored in plane order, so each plane is a contiguous
  slice and its predecessors are one precomputed gather (the per-shape
  plan is cached);
* up to 64 floods share one ``uint64`` word per cell, one bit each, so
  a batch of seed masks costs about what a single flood does.

Reverse reachability is the same sweep run from the far corner: in the
all-axes-flipped frame it is a forward flood, and flipping a C-ordered
flat index is ``N - 1 - index``, so the plan serves both directions.

Every claim of the paper is validated against this module: the labelled
unsafe region must not change reachability (P1), Theorems 1/2 must agree
with it (P2), and the router must deliver whenever it says YES (P3).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import obs
from repro.mesh.orientation import Orientation
from repro.mesh.regions import Box

#: Bit-packed flood state: one little-endian word holds 64 floods' bits.
_WORD = np.dtype("<u8")
_WORD_BITS = 64
_ALL_ONES = np.array(~np.uint64(0), dtype=_WORD)


class _WavefrontPlan:
    """Per-shape index tables of the wavefront sweep.

    Cells are numbered in *plane order* (stable-sorted by coordinate
    sum), so plane ``t`` is the slot range ``[lo, hi)``.  ``planes``
    lists, for every plane after the first, its range and the slots of
    each cell's -1 neighbour per axis (slot ``n``, an all-zero row, where
    the cell sits on the axis' low face).  ``cells[reverse]`` maps a slot
    to its C-order flat index in the forward or flipped frame, and
    ``slots[reverse]`` is the inverse map.
    """

    def __init__(self, shape: tuple[int, ...]):
        n = int(np.prod(shape))
        coords = np.indices(shape).reshape(len(shape), n)
        plane = coords.sum(axis=0)
        order = np.argsort(plane, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        preds = np.full((len(shape), n), n, dtype=np.intp)
        stride = 1
        for axis in reversed(range(len(shape))):
            inner = coords[axis, order] > 0
            preds[axis, inner] = rank[order[inner] - stride]
            stride *= shape[axis]
        bounds = np.searchsorted(plane[order], np.arange(int(plane.max()) + 2))
        self.n = n
        self.cells = {False: order, True: n - 1 - order}
        self.slots = {False: rank, True: np.ascontiguousarray(rank[::-1])}
        self.planes = [
            (int(lo), int(hi), preds[:, lo:hi])
            for lo, hi in zip(bounds[1:-1], bounds[2:], strict=True)
        ]
        # Plans are shared by every caller through the cache: read-only.
        for table in (order, rank, preds, *self.cells.values(), *self.slots.values()):
            table.setflags(write=False)


@lru_cache(maxsize=32)
def _plan(shape: tuple[int, ...]) -> _WavefrontPlan:
    return _WavefrontPlan(shape)


def _wavefront(
    open_mask: np.ndarray, seed_words: np.ndarray, reverse: bool
) -> np.ndarray:
    """Bit-parallel monotone flood (the one kernel behind this module).

    ``seed_words`` is ``(N, W)`` words in C-order flat layout, bit ``b``
    of word ``b // 64`` seeding flood ``b``.  Returns the reached bits
    in the same layout: forward floods follow +1 moves, ``reverse``
    floods -1 moves (cells that can reach a seed).
    """
    plan = _plan(open_mask.shape)
    cells = plan.cells[reverse]
    open_words = np.where(open_mask.reshape(-1)[cells], _ALL_ONES, 0).astype(_WORD)
    open_words = open_words[:, None]
    state = np.zeros((plan.n + 1, seed_words.shape[1]), dtype=_WORD)
    np.bitwise_and(seed_words[cells], open_words, out=state[: plan.n])
    for lo, hi, preds in plan.planes:
        reached = np.bitwise_or.reduce(state[preds], axis=0)
        reached &= open_words[lo:hi]
        state[lo:hi] |= reached
    return state[plan.slots[reverse]]


def _pack_seeds(seed_masks: np.ndarray) -> np.ndarray:
    """(B, *shape) bool seed masks -> (N, ceil(B/64)) flood words."""
    batch = seed_masks.shape[0]
    packed = np.packbits(seed_masks.reshape(batch, -1), axis=0, bitorder="little")
    words = np.zeros((packed.shape[1], -(-batch // _WORD_BITS) * 8), dtype=np.uint8)
    words[:, : packed.shape[0]] = packed.T
    return words.view(_WORD)


def _unpack(words: np.ndarray, batch: int, shape: tuple[int, ...]) -> np.ndarray:
    """(N, W) flood words -> (batch, *shape) contiguous bool masks."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=batch, bitorder="little")
    return np.ascontiguousarray(bits.T).view(bool).reshape((batch, *shape))


def _flood_masks(open_mask: np.ndarray, seed_masks: np.ndarray) -> np.ndarray:
    """Forward floods of stacked seed masks (validated shapes)."""
    open_mask = np.asarray(open_mask, dtype=bool)
    seed_masks = np.asarray(seed_masks, dtype=bool)
    if seed_masks.shape[1:] != open_mask.shape:
        raise ValueError(
            f"seed batch shape {seed_masks.shape} must be (B, *{open_mask.shape})"
        )
    if not len(seed_masks):
        return np.zeros(seed_masks.shape, dtype=bool)
    words = _wavefront(open_mask, _pack_seeds(seed_masks), False)
    return _unpack(words, seed_masks.shape[0], open_mask.shape)


def monotone_flood(open_mask: np.ndarray, seed_mask: np.ndarray) -> np.ndarray:
    """Cells reachable from any seed via monotone (+1 per hop) moves.

    Seeds must themselves be open to be reachable.  Works for any
    dimension.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    seed_mask = np.asarray(seed_mask, dtype=bool)
    if open_mask.shape != seed_mask.shape:
        raise ValueError("open and seed masks must share a shape")
    return _flood_masks(open_mask, seed_mask[None])[0]


def monotone_flood_reference(
    open_mask: np.ndarray, seed_mask: np.ndarray
) -> np.ndarray:
    """Scalar BFS reference used by the test suite."""
    open_mask = np.asarray(open_mask, dtype=bool)
    out = np.zeros_like(open_mask, dtype=bool)
    frontier = [tuple(c) for c in np.argwhere(seed_mask & open_mask)]
    for c in frontier:
        out[c] = True
    while frontier:
        nxt = []
        for c in frontier:
            for axis in range(open_mask.ndim):
                n = list(c)
                n[axis] += 1
                if n[axis] < open_mask.shape[axis]:
                    n = tuple(n)
                    if open_mask[n] and not out[n]:
                        out[n] = True
                        nxt.append(n)
        frontier = nxt
    return out


def monotone_flood_many(open_mask: np.ndarray, seed_masks: np.ndarray) -> np.ndarray:
    """Batched monotone flood: one open mask, many seed masks.

    ``seed_masks`` has shape (B, *open_mask.shape); the result marks, per
    batch entry, the cells reachable from that entry's seeds.  All B
    floods share one wavefront sweep (64 per word of state), so the
    batch costs about what one flood does — the kernel behind the batch
    routing service's grouped reverse floods.
    """
    seed_masks = np.asarray(seed_masks, dtype=bool)
    with _flood_span(seed_masks.shape[0], np.shape(open_mask)):
        return _flood_masks(open_mask, seed_masks)


def _flood_span(batch: int, shape: tuple[int, ...]):
    """The ``monotone_flood_many`` kernel span over one batched sweep."""
    return obs.span(
        "monotone_flood_many", cat="kernel", batch=int(batch), shape=list(shape),
    )


def _seed_at(shape: Sequence[int], coord: Sequence[int]) -> np.ndarray:
    seed = np.zeros(tuple(shape), dtype=bool)
    seed[tuple(coord)] = True
    return seed


def forward_reachable(open_mask: np.ndarray, source: Sequence[int]) -> np.ndarray:
    """Cells reachable from ``source`` by monotone moves through open cells."""
    return monotone_flood(open_mask, _seed_at(open_mask.shape, source))


def _reverse_flood(open_mask: np.ndarray, dests: Sequence[Sequence[int]]) -> np.ndarray:
    """One reverse sweep, destination ``b`` seeding flood bit ``b``."""
    open_mask = np.asarray(open_mask, dtype=bool)
    batch = len(dests)
    if not batch:
        return np.zeros((0, *open_mask.shape), dtype=bool)
    words = np.zeros((open_mask.size, -(-batch // _WORD_BITS)), dtype=_WORD)
    flat = np.ravel_multi_index(np.asarray(dests, dtype=np.intp).T, open_mask.shape)
    bits = np.arange(batch)
    np.bitwise_or.at(
        words, (flat, bits // _WORD_BITS),
        np.left_shift(np.uint64(1), (bits % _WORD_BITS).astype(np.uint64)),
    )
    return _unpack(_wavefront(open_mask, words, True), batch, open_mask.shape)


def reverse_reachable(open_mask: np.ndarray, dest: Sequence[int]) -> np.ndarray:
    """Cells from which ``dest`` is monotonically reachable."""
    return _reverse_flood(open_mask, [dest])[0]


def reverse_reachable_many(
    open_mask: np.ndarray, dests: Sequence[Sequence[int]]
) -> np.ndarray:
    """Stacked :func:`reverse_reachable` masks, one per destination.

    Returns shape (len(dests), *open_mask.shape), all from one reverse
    wavefront sweep.
    """
    with _flood_span(len(dests), np.shape(open_mask)):
        return _reverse_flood(open_mask, dests)


#: Destinations per batched reverse-flood call in :func:`probe_reverse_reachable`
#: (bounds the transient stacked-mask memory, chunk x mesh bools).
PROBE_CHUNK = 64


def group_jobs_by_class(pairs, shape):
    """Group mesh-frame pairs by direction class as canonical probe jobs.

    Yields ``(orientation, jobs)`` per direction class touched, where
    ``jobs`` is a list of ``(index, canonical_source, canonical_dest)``
    ready for :func:`probe_reverse_reachable` — ``index`` is the pair's
    position in ``pairs``.  The shared front half of every batched
    reachability consumer (detection pass, fidelity records): one class
    grouping + coordinate mapping, then each caller picks its own open
    masks per class.
    """
    by_class: dict[tuple[int, ...], list[int]] = {}
    for i, (source, dest) in enumerate(pairs):
        signs = Orientation.for_pair(source, dest, shape).signs
        by_class.setdefault(signs, []).append(i)
    for signs, members in by_class.items():
        orientation = Orientation(signs, tuple(shape))
        yield orientation, [
            (
                i,
                orientation.map_coord(pairs[i][0]),
                orientation.map_coord(pairs[i][1]),
            )
            for i in members
        ]


def probe_reverse_reachable(
    open_mask: np.ndarray,
    jobs: Sequence[tuple[int, Sequence[int], Sequence[int]]],
    out: np.ndarray,
    keep: dict | None = None,
    chunk: int = PROBE_CHUNK,
) -> None:
    """Scatter reverse-reachability verdicts for many canonical pairs.

    ``jobs`` is a list of ``(index, source, dest)`` in the canonical
    frame of ``open_mask``; for each job, ``out[index]`` is set to
    whether ``dest`` is monotonically reachable from ``source`` through
    open cells.  Jobs are grouped by destination and flooded through
    :func:`reverse_reachable_many` in chunks, so the cost is one
    batched DP per ``chunk`` distinct destinations instead of one flood
    per pair — the shared kernel behind the batched detection pass and
    the fidelity experiment's oracle records.  With ``keep`` given, the
    per-destination reach masks are stored there keyed by destination.
    """
    by_dest: dict[tuple[int, ...], list] = {}
    for index, source, dest in jobs:
        by_dest.setdefault(tuple(dest), []).append((index, tuple(source)))
    dests = list(by_dest)
    for start in range(0, len(dests), chunk):
        block = dests[start : start + chunk]
        stacked = reverse_reachable_many(open_mask, block)
        for dest, reach in zip(block, stacked, strict=True):
            for index, source in by_dest[dest]:
                out[index] = bool(reach[source])
            if keep is not None:
                keep[dest] = reach


def minimal_path_exists(
    open_mask: np.ndarray, source: Sequence[int], dest: Sequence[int]
) -> bool:
    """True iff a monotone path source -> dest exists through open cells.

    ``source`` must be component-wise <= ``dest`` (canonical frame); use
    :class:`repro.mesh.orientation.Orientation` first for other classes.
    Restricting to the RMP box keeps the DP small — monotone paths cannot
    leave it and return.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)
    if any(s > d for s, d in zip(source, dest, strict=True)):
        raise ValueError(
            f"oracle requires canonical frame (source {source} <= dest {dest})"
        )
    box = Box(source, dest)
    sl = box.slices()
    local_open = open_mask[sl]
    local_src = tuple(s - lo for s, lo in zip(source, box.lo, strict=True))
    local_dst = tuple(d - lo for d, lo in zip(dest, box.lo, strict=True))
    reach = monotone_flood(local_open, _seed_at(local_open.shape, local_src))
    return bool(reach[local_dst])


def blocked_for_dest(open_mask: np.ndarray, dest: Sequence[int]) -> np.ndarray:
    """Exact forbidden set for a destination: cells (within the lattice)
    from which no monotone path reaches ``dest`` through open cells.

    The adaptive router in oracle mode consults this mask; the MCC model
    must reproduce it inside the RMP (property P2/P3 tests).
    """
    return ~reverse_reachable(open_mask, dest)
