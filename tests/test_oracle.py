"""Tests for the monotone-reachability oracle (vs references)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.oracle import (
    blocked_for_dest,
    forward_reachable,
    minimal_path_exists,
    monotone_flood,
    monotone_flood_many,
    monotone_flood_reference,
    reverse_reachable,
    reverse_reachable_many,
)
from tests.conftest import random_mask


def nx_monotone_feasible(open_mask: np.ndarray, s, d) -> bool:
    """Third-party reference: DAG reachability via networkx."""
    g = nx.DiGraph()
    for cell in np.ndindex(open_mask.shape):
        if not open_mask[cell]:
            continue
        for axis in range(open_mask.ndim):
            nxt = list(cell)
            nxt[axis] += 1
            if nxt[axis] < open_mask.shape[axis] and open_mask[tuple(nxt)]:
                g.add_edge(cell, tuple(nxt))
    if s == d:
        return bool(open_mask[s])
    return g.has_node(s) and g.has_node(d) and nx.has_path(g, s, d)


class TestFloodCorrectness:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference_2d(self, seed, blocked):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (7, 7), blocked)
        seeds = random_mask(rng, (7, 7), 3)
        assert np.array_equal(
            monotone_flood(open_mask, seeds),
            monotone_flood_reference(open_mask, seeds),
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_reference_3d(self, seed):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (4, 4, 4), int(rng.integers(0, 16)))
        seeds = random_mask(rng, (4, 4, 4), 2)
        assert np.array_equal(
            monotone_flood(open_mask, seeds),
            monotone_flood_reference(open_mask, seeds),
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (5, 5), int(rng.integers(0, 10)))
        s = (0, 0)
        d = tuple(int(v) for v in rng.integers(0, 5, 2))
        if not (open_mask[s] and open_mask[d]):
            return
        assert minimal_path_exists(open_mask, s, d) == nx_monotone_feasible(
            open_mask, s, d
        )

    def test_1d(self):
        open_mask = np.array([True, True, False, True])
        reach = forward_reachable(open_mask, (0,))
        assert reach.tolist() == [True, True, False, False]


class TestSemantics:
    def test_blocked_seed(self):
        open_mask = np.ones((3, 3), dtype=bool)
        open_mask[0, 0] = False
        assert not forward_reachable(open_mask, (0, 0)).any()

    def test_requires_canonical_frame(self):
        with pytest.raises(ValueError):
            minimal_path_exists(np.ones((3, 3), dtype=bool), (2, 2), (0, 0))

    def test_trivial_same_node(self):
        assert minimal_path_exists(np.ones((3, 3), dtype=bool), (1, 1), (1, 1))

    def test_wall_blocks(self):
        open_mask = np.ones((5, 5), dtype=bool)
        open_mask[:, 2] = False  # full horizontal wall
        assert not minimal_path_exists(open_mask, (0, 0), (4, 4))

    def test_gap_in_wall_passes(self):
        open_mask = np.ones((5, 5), dtype=bool)
        open_mask[:, 2] = False
        open_mask[3, 2] = True
        assert minimal_path_exists(open_mask, (0, 0), (4, 4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_forward_reverse_duality(self, seed):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (6, 6), 8)
        d = (5, 5)
        rev = reverse_reachable(open_mask, d)
        for cell in np.ndindex(open_mask.shape):
            if open_mask[cell] and all(c <= t for c, t in zip(cell, d, strict=True)):
                fwd = forward_reachable(open_mask, cell)
                assert bool(rev[cell]) == bool(fwd[d])

    def test_blocked_for_dest_complements_reverse(self, rng):
        open_mask = ~random_mask(rng, (6, 6), 6)
        d = (5, 5)
        assert np.array_equal(
            blocked_for_dest(open_mask, d), ~reverse_reachable(open_mask, d)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            monotone_flood(np.ones((3, 3), dtype=bool), np.ones((2, 2), dtype=bool))


#: 1-D through 4-D meshes, extent-1 axes included, small enough for the
#: scalar BFS reference to check every flood of a batch.
KERNEL_SHAPES = (
    st.lists(st.integers(1, 6), min_size=1, max_size=4)
    .filter(lambda shape: int(np.prod(shape)) <= 150)
    .map(tuple)
)


class TestWavefrontKernel:
    """The bit-packed wavefront kernel against the scalar BFS.

    Batch sizes straddle the 64-floods-per-word boundary (63/64/65) and
    span three words (130), so every bit lane of the packed state is
    pinned to its own reference flood.
    """

    @given(
        KERNEL_SHAPES,
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_floods_match_reference(self, shape, batch, seed):
        rng = np.random.default_rng(seed)
        open_mask = rng.random(shape) >= rng.uniform(0.0, 0.5)
        seeds = rng.random((batch, *shape)) < 0.1
        if not open_mask.all():
            # A seed on a blocked cell must stay unreached.
            seeds[0][tuple(np.argwhere(~open_mask)[0])] = True
        flooded = monotone_flood_many(open_mask, seeds)
        assert flooded.shape == (batch, *shape)
        for b in range(batch):
            want = monotone_flood_reference(open_mask, seeds[b])
            assert np.array_equal(flooded[b], want), b
        assert np.array_equal(monotone_flood(open_mask, seeds[0]), flooded[0])

    @given(
        KERNEL_SHAPES,
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_reverse_many_equals_stacked_single(self, shape, batch, seed):
        rng = np.random.default_rng(seed)
        open_mask = rng.random(shape) >= rng.uniform(0.0, 0.5)
        dests = [tuple(int(rng.integers(0, k)) for k in shape) for _ in range(batch)]
        many = reverse_reachable_many(open_mask, dests)
        assert many.shape == (batch, *shape)
        for b, dest in enumerate(dests):
            assert np.array_equal(many[b], reverse_reachable(open_mask, dest)), b
        # The reverse sweep is the forward one in the all-flipped frame.
        axes = tuple(range(len(shape)))
        flipped_seed = np.zeros(shape, dtype=bool)
        last = dests[-1]
        flipped_seed[tuple(k - 1 - c for c, k in zip(last, shape, strict=True))] = True
        want = np.flip(
            monotone_flood_reference(np.flip(open_mask, axes), flipped_seed), axes
        )
        assert np.array_equal(many[-1], want)

    def test_empty_batches(self):
        open_mask = np.ones((3, 1, 2), dtype=bool)
        assert reverse_reachable_many(open_mask, []).shape == (0, 3, 1, 2)
        assert monotone_flood_many(
            open_mask, np.zeros((0, 3, 1, 2), dtype=bool)
        ).shape == (0, 3, 1, 2)

    def test_non_contiguous_open_mask(self):
        # Class models hand in flipped views of their masks.
        rng = np.random.default_rng(4)
        base = rng.random((5, 4, 3)) > 0.3
        view = np.flip(base, axis=(0, 2))
        assert np.array_equal(
            reverse_reachable(view, (4, 3, 2)),
            reverse_reachable(np.ascontiguousarray(view), (4, 3, 2)),
        )
