"""The sizes of each workload's inputs.

The workload list, metric names, units and bounds live in
``BENCHMARK.json`` at the repository root (read by ``harness.py`` and
``run.py``).  ``perfbench/README.md`` explains each workload and maps
every per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

#: route_hotspot: mesh, faults, hot destinations, batch sizes.  The cold
#: batch is as large as the one batch examples/supercomputer_job_traffic.py
#: routes per partition; a warm batch is as large as the per-pattern
#: batch of src/repro/experiments/exp_success_rate.py.  The number of
#: warm batches per pattern is this benchmark's own choice.
HOTSPOT_MESH = (16, 16, 16)
HOTSPOT_FAULTS = 200
HOTSPOT_HOT_NODES = 32
HOTSPOT_COLD_PAIRS = 400
HOTSPOT_WARM_PAIRS = 200
HOTSPOT_WARM_BATCHES = 64
#: Warm batches of pattern 0 replayed by the exact count cross-check.
HOTSPOT_REPLAY_WARM = 5

#: serve_churn: mesh, faults, batching window, fixed and overload rates.
#: The fixed rate is about half the saturation rate: the overload phase
#: completes about 1500 requests per CPU second on a two-vCPU machine.
SERVE_MESH = (16, 16, 16)
SERVE_FAULTS = 200
SERVE_BATCH_WINDOW_S = 0.01
SERVE_FIXED_RATE = 750.0
SERVE_OVERLOAD_RATE = 2000.0
SERVE_OVERLOAD_S = 1.0
SERVE_EVENT_EVERY_S = 1.0
SERVE_CHURN = 2
#: A fixed-rate request answered later than this (from its due time)
#: misses; shed and failed requests miss too.  About twice the p50 at
#: the fixed rate.
SERVE_OK_LIMIT_MS = 400.0
#: Rounds run until --seconds of wall time are used, at least this many.
#: Each round sets up and cold-starts fresh services, then the last one
#: serves a fixed-rate phase with churn and an overload phase.  Spreading
#: the phases over the run keeps a slow stretch of the machine from
#: landing on all samples of one metric.
SERVE_MIN_ROUNDS = 2
#: Fresh services per round whose set-up and cold start are timed: the
#: round's serving service, plus services that only start, warm up and
#: stop, so that setup_s and cold_s have several samples per round.
SERVE_COLD_STARTS = 5
#: OwnClock seconds of each round's fixed-rate phase.
SERVE_FIXED_S = 4.0
#: Wall seconds between runs of the reference loop while the load runs.
SERVE_PACE_S = 0.1
#: Requests in the burst that warms a fresh service (its cold start).
SERVE_WARMUP_REQUESTS = 64

#: des_t4: mesh, faults, and canonical-frame queries per pattern.
DES_MESH = (12, 12, 12)
DES_FAULTS = 60
DES_QUERIES = 100
