"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload route_hotspot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

The workloads and metrics are the ones ``BENCHMARK.json`` lists.
Each workload runs in this one process.  With ``--trace 0`` it prints
every end-to-end metric; with ``--trace 1`` it installs an
``obs.Tracer``, prints every per-layer metric, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json`` (Perfetto format).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check and exact count cross-check passed, 1 when one
failed, and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
        from repro import obs

        workload = importlib.import_module(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {src} ({exc})", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # An installed copy would be measured instead of this checkout.
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = obs.Tracer() if args.trace else None
    if tracer is None:
        report = workload.run(args.seed, args.seconds, None)
    else:
        with obs.tracing(tracer):
            report = workload.run(args.seed, args.seconds, tracer)
        from harness import SpanTree, write_trace

        path = os.path.join(".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        write_trace(path, tracer.spans)
        report.notes.extend(SpanTree(tracer.spans).rollup_lines())
        report.note(f"{len(tracer.spans)} spans written to {path}")
    for line in report.lines():
        print(line)
    print(report.result_json(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
