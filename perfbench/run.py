#!/usr/bin/env python3
"""The decision-service benchmark: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The service under test runs as ``python -m repro serve --async ...``
(flags per workload in ``perfbench/workloads.json``, which also records
each workload's sizes, rates, latency limit and the machine they were
frozen on) in its own process tree.  Load comes from this process
alone: an open-loop generator over two pipelined
:class:`repro.client.AsyncHttpClient` connections, with traffic
compiled from a :mod:`repro.scenarios` spec for ``--seed``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: launch to the first timed request (process start,
  principal registration, warm-up), the median of several set-ups;
* ``cpu_ms_per_kdec``: CPU of every server process per 1,000 decisions
  at the workload's fixed high rate with requests due in groups, from
  ``/proc``; the mean over the middle half of segments of about a
  second;
* ``answered_frac``: operations answered without error over operations
  attempted (refusals are answers);
* ``peak_rss_mb``: the summed ``VmHWM`` of the server processes.

The run ends with one restart (SIGINT, relaunch over the state
directory where the workload keeps one, a short tail of traffic), so
that the correctness check below covers decisions across it.

``--trace 1`` reports the per-layer metrics instead.  It first runs an
untraced server through alternating segments at the fixed low and high
rates and the capacity search, for the service-level readings
(``slo.*``):

* ``slo.p50_ms.*`` and ``slo.p99_ms.*``: latency from each decision's
  due time at the low and high rates, the median over windows of 1,000
  decisions;
* ``slo.capacity_dps``: the highest rung of a fixed geometric ladder of
  rates at which the windowed p99 stays within the workload's latency
  limit and the backlog does not grow.
* ``slo.restart_s`` and ``slo.restart_cpu_s``: the wall time from
  relaunch to the first answered decision, and the CPU time the new
  server's processes spent by then (interpreter start, imports,
  restore, replica spawn).  Every restart relaunches over a copy of
  what one SIGINT left; each is the mean over the middle half of the
  workload's restarts.

These are not gated: on a shared virtual machine whose host takes CPU
time away and whose CPU speed varies within seconds (one fixed
pure-Python loop took 0.71 to 0.98 CPU seconds from one run to the
next), they vary from run to run by more than any bound allows.
Then it relaunches the server with ``perfbench/tracer`` first on
``PYTHONPATH`` (its ``sitecustomize`` wraps each layer's entry points
in the front end and every replica) and runs the high rate, the ladder
and one restart against it.  ``trace.capacity_ratio`` is the traced
capacity over the untraced one.

Every run replays the operations it sent through an in-process
:class:`repro.client.LocalClient`; each principal's decision stream
must match, across restarts too, or the run is not correct and exits
with status 1 after printing its result.  Per-phase
diagnostics (lateness, the host's idle and steal shares) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def _error(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract_path = ROOT / "BENCHMARK.json"
    if not contract_path.is_file():
        return _error(f"no BENCHMARK.json in {ROOT}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _error(f"no repro sources under {ROOT / 'src'}")
    contract = json.loads(contract_path.read_text())
    method = json.loads((HERE / "workloads.json").read_text())
    names = list(method["workloads"])
    if args.workload != "all" and args.workload not in names:
        return _error(f"unknown workload {args.workload!r} (choose from {', '.join(names)} or all)")
    if args.seconds < 4:
        return _error("--seconds must be at least 4")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from bench import run_workload

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in contract[kind]}
    os.sched_setaffinity(0, {method["machine"]["load_cpu"]})
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        workload = dict(method["workloads"][name], name=name)
        results[name] = run_workload(
            method, workload, args.seed, args.seconds, bool(args.trace), OUT
        )
        missing = sorted(set(units) - set(results[name]["metrics"]))
        if missing:
            raise RuntimeError(f"{name} did not measure {', '.join(missing)}")
        for metric in units:
            print(f"{name:12} {metric:28} {results[name]['metrics'][metric]:14.4f} {units[metric]}")
    summary = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
    }
    if args.workload == "all":
        summary["metrics"] = {
            f"{name}/{metric}": {"value": result["metrics"][metric], "unit": units[metric]}
            for name, result in results.items()
            for metric in units
        }
    else:
        result = results[args.workload]
        summary["metrics"] = {
            metric: {"value": result["metrics"][metric], "unit": units[metric]}
            for metric in units
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
