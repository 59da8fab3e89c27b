"""DES stream digests: the protocol's observable behaviour, pinned.

Each digest hashes everything a run of the distributed pipeline makes
observable: messages sent per kind, ``events_processed``, the final
virtual clock, every node's label, boundary records, section shapes and
completed corners, and the drained query records.  The constants were
recorded before the protocol hot path was rewritten (per-node neighbour
tables, tuple trails, table dispatch), so any change to a message, an
event or a virtual timestamp shows up here as a digest mismatch.

The ``oks`` field of a query record is a set of detection-walk names;
it is dropped from the digest because its iteration order depends on
the string hash seed.  Every other value is canonicalized (dicts and
sets sorted) before hashing, so the digests hold for any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.labelling import SAFE, label_grid
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.mesh.topology import Mesh
from tests.conftest import random_mask
from tests.test_des_concurrent import sample_canonical_pairs

SHAPE = (8, 8, 8)
QUERIES = 30


def _canon(value) -> str:
    """A hash-seed-independent text form that keeps container types."""
    if isinstance(value, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set(" + ",".join(sorted(_canon(v) for v in value)) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(value)


def digest(pipe: DistributedMCCPipeline, records: list[dict]) -> str:
    net = pipe.net
    nodes = []
    for coord in sorted(net.nodes):
        store = net.nodes[coord].store
        nodes.append(
            (
                coord,
                store.get("label"),
                store.get("records", {}),
                store.get("shapes", {}),
                list(store.get("corner_of", [])),
            )
        )
    drained = [{k: v for k, v in r.items() if k != "oks"} for r in records]
    text = _canon(
        (
            dict(net.stats.messages_sent),
            net.sim.events_processed,
            net.sim.now,
            nodes,
            drained,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pattern(seed: int, faults: int):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, SHAPE, faults)
    pairs = sample_canonical_pairs(rng, label_grid(mask).status, QUERIES)
    return rng, mask, pairs


#: Digests recorded on the pre-rewrite protocol (see module docstring),
#: keyed by (seed, fault count).  The fault counts span sparse patterns
#: (every query delivered) to dense ones whose queries also end stuck
#: or infeasible and whose walls chain through many sections.
PATTERN_DIGESTS = {
    (11, 40): "6832f5d5e6885ead",
    (22, 80): "1e076b440e5fb881",
    (33, 110): "8d63529d349a7e70",
}
EVENT_DIGEST = "c4d99a056cdaa9ee"


@pytest.mark.parametrize("seed,faults", sorted(PATTERN_DIGESTS))
def test_build_and_query_digest(seed, faults):
    _rng, mask, pairs = _pattern(seed, faults)
    assert len(pairs) == QUERIES
    pipe = DistributedMCCPipeline(Mesh(SHAPE), mask).build()
    for s, d in pairs:
        pipe.submit(s, d)
    records = pipe.drain()
    assert digest(pipe, records) == PATTERN_DIGESTS[seed, faults]


def test_churn_event_digest():
    """Inject and repair mid-run; queries drain across both events."""
    rng, mask, pairs = _pattern(44, 110)
    pipe = DistributedMCCPipeline(Mesh(SHAPE), mask).build()
    records: list[dict] = []
    for s, d in pairs[:10]:
        pipe.submit(s, d)
    safe = np.argwhere(pipe.labels_grid() == SAFE)
    picks = rng.choice(len(safe), size=3, replace=False)
    victims = [tuple(int(v) for v in safe[i]) for i in picks]
    info = pipe.apply_event("inject", victims)
    records += info["flushed"]
    for s, d in pairs[10:20]:
        pipe.submit(s, d, strict=False)
    info = pipe.apply_event("repair", victims[:2])
    records += info["flushed"]
    for s, d in pairs[20:]:
        pipe.submit(s, d, strict=False)
    records += pipe.drain()
    assert len(records) == QUERIES
    assert digest(pipe, records) == EVENT_DIGEST
