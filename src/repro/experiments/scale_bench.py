"""Scale-ladder benchmark: wall-clock and peak RSS per node-count rung.

Runs the ``scale`` topology preset up the massive-topology ladder
(1k -> 10k -> 100k -> 1M nodes) and records, per rung, how long topology
generation, routing-state construction (tree build + landmark tables) and a
short join run take, plus the process's peak resident set size --
``BENCH_scale.json`` at the repo root is the perf trajectory future PRs
compare against.

Each rung executes in its own subprocess: ``resource.getrusage``'s
``ru_maxrss`` is a process-lifetime high-water mark (there is no ``psutil``
in the minimal environment), so isolating rungs is the only way to attribute
a peak to one node count.  The 1M rung measures generation + routing only;
every smaller rung also runs ``cycles`` sampling cycles of the ladder's
Query 0 workload through the engine.

Usage::

    python -m repro.experiments.scale_bench                  # full ladder
    python -m repro.experiments.scale_bench --rungs 10000 \
        --assert-seconds 60 --assert-rss-mb 2048             # CI smoke rung
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: The ladder's node-count rungs (mirrors
#: ``repro.experiments.scenarios.SCALE_LADDER_RUNGS``; kept literal here so
#: the child process does not import the scenario registry to parse flags).
LADDER = (1_000, 10_000, 100_000, 1_000_000)

#: Largest rung that also executes a join run; above it the rung measures
#: topology generation + routing-state construction only.
MAX_RUN_NODES = 100_000

#: Strategies timed per rung (mirrors
#: ``repro.experiments.scenarios.SCALE_LADDER_ROSTER``; literal for the same
#: reason as ``LADDER``).  The per-strategy runs use the keyed Query 0
#: workload so the hash-keyed strategies can participate.
ROSTER = ("naive", "base", "ght", "dht",
          "innet", "innet-cm", "innet-cmg", "innet-cmp", "innet-cmpg")

DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_scale.json"


def _measure_rung(num_nodes: int, cycles: int,
                  strategies: List[str]) -> dict:
    """Generation / routing / run timings and peak RSS for one rung.

    Runs inside the per-rung subprocess; imports stay local so the parent
    process never pays them.
    """
    from repro.engine.execution import execute_run
    from repro.engine.spec import RunSpec, freeze
    from repro.engine.workload import build_topology
    from repro.routing.tree import RoutingTree
    from repro.workloads.selectivity import selectivities_for_ratio

    started = time.perf_counter()
    topology = build_topology(None, preset="scale", seed=0, num_nodes=num_nodes)
    generation_s = time.perf_counter() - started

    started = time.perf_counter()
    cache = topology.routing_cache.validate()
    RoutingTree(topology)
    cache.landmark_tables()
    routing_s = time.perf_counter() - started

    sel = selectivities_for_ratio("1/2:1/2", 0.2)

    def _run_spec(query: str, algorithm: str) -> "RunSpec":
        return RunSpec(
            scenario="scale-bench",
            setting=freeze({"num_nodes": num_nodes}),
            query=query,
            query_kwargs=freeze({"seed": 1}),
            algorithm=algorithm,
            run_index=0,
            seed=0,
            workload_seed=100,
            cycles=cycles,
            topology_preset="scale",
            topology_seed=0,
            num_nodes=num_nodes,
            sigma_s=sel.sigma_s,
            sigma_t=sel.sigma_t,
            sigma_st=sel.sigma_st,
            assumed_sigma_s=sel.sigma_s,
            assumed_sigma_t=sel.sigma_t,
            assumed_sigma_st=sel.sigma_st,
        )

    run_s: Optional[float] = None
    total_traffic: Optional[float] = None
    strategy_records: Optional[List[dict]] = None
    if num_nodes <= MAX_RUN_NODES:
        # The legacy trajectory run: the base strategy on the unkeyed
        # Query 0 workload (kept so BENCH_scale.json history stays
        # comparable across revisions).
        started = time.perf_counter()
        result = execute_run(_run_spec("query0-random", "base"))
        run_s = time.perf_counter() - started
        total_traffic = result.report.total_traffic

        # Per-strategy throughput: the full roster on the keyed workload,
        # one short run each, recorded as sampling cycles per second.
        strategy_records = []
        for strategy in strategies:
            started = time.perf_counter()
            result = execute_run(_run_spec("query0-keyed", strategy))
            elapsed = time.perf_counter() - started
            strategy_records.append({
                "strategy": strategy,
                "run_seconds": round(elapsed, 3),
                "cycles_per_second": round(cycles / elapsed, 2) if elapsed else None,
                "total_traffic": result.report.total_traffic,
            })

    # Linux reports ru_maxrss in KiB.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "num_nodes": num_nodes,
        "average_degree": round(topology.average_degree(), 2),
        "generation_seconds": round(generation_s, 3),
        "routing_seconds": round(routing_s, 3),
        "run_seconds": round(run_s, 3) if run_s is not None else None,
        "run_cycles": cycles if run_s is not None else None,
        "total_traffic": total_traffic,
        "peak_rss_mb": round(peak_rss_kb / 1024.0, 1),
        "strategies": strategy_records,
    }
    return record


def _rung_total_seconds(record: dict) -> float:
    strategy_s = sum(
        entry["run_seconds"] for entry in (record.get("strategies") or ())
    )
    return (record["generation_seconds"] + record["routing_seconds"]
            + (record["run_seconds"] or 0.0) + strategy_s)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scale_bench",
        description="record nodes-vs-wall-clock/RSS up the topology "
                    "scale ladder into BENCH_scale.json",
    )
    parser.add_argument(
        "--rungs", default=None,
        help="comma-separated node counts (default: the full "
             f"{'/'.join(str(r) for r in LADDER)} ladder)",
    )
    parser.add_argument(
        "--cycles", type=int, default=5,
        help="sampling cycles of the per-rung join run (default: 5)",
    )
    parser.add_argument(
        "--strategies", default=",".join(ROSTER),
        help="comma-separated strategies timed per rung (default: the full "
             "roster); empty string skips the per-strategy runs",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="result file; existing rungs for other node counts are kept",
    )
    parser.add_argument(
        "--assert-seconds", type=float, default=None,
        help="fail if any measured rung exceeds this total wall-clock",
    )
    parser.add_argument(
        "--assert-rss-mb", type=float, default=None,
        help="fail if any measured rung exceeds this peak RSS",
    )
    parser.add_argument("--single", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    strategies = [s for s in args.strategies.split(",") if s]
    if args.single is not None:
        # Child mode: measure one rung, emit its record as JSON on stdout.
        json.dump(_measure_rung(args.single, args.cycles, strategies),
                  sys.stdout)
        return 0

    rungs = ([int(r) for r in args.rungs.split(",")] if args.rungs
             else list(LADDER))
    records: List[dict] = []
    for rung in rungs:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.scale_bench",
             "--single", str(rung), "--cycles", str(args.cycles),
             "--strategies", args.strategies],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"rung {rung}: subprocess failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        record = json.loads(proc.stdout)
        records.append(record)
        run_part = (f" run={record['run_seconds']:.2f}s"
                    if record["run_seconds"] is not None else " run=skipped")
        per_strategy = record.get("strategies") or ()
        strategy_part = (
            f" roster={len(per_strategy)}x"
            f"{sum(e['run_seconds'] for e in per_strategy):.2f}s"
            if per_strategy else ""
        )
        print(f"n={rung}: gen={record['generation_seconds']:.2f}s "
              f"routing={record['routing_seconds']:.2f}s{run_part}"
              f"{strategy_part} rss={record['peak_rss_mb']:.0f}MB "
              f"deg={record['average_degree']:.1f}")

    # Merge with any previously recorded ladder so a partial re-run (the CI
    # smoke rung) refreshes only its own node counts.
    by_nodes = {}
    if args.output.exists():
        try:
            for record in json.loads(args.output.read_text()).get("rungs", []):
                by_nodes[record["num_nodes"]] = record
        except (ValueError, KeyError):
            pass  # unreadable previous file: overwrite it wholesale
    for record in records:
        by_nodes[record["num_nodes"]] = record
    payload = {
        "benchmark": "scale_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rungs": [by_nodes[key] for key in sorted(by_nodes)],
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    failures = []
    for record in records:
        total = _rung_total_seconds(record)
        if args.assert_seconds is not None and total > args.assert_seconds:
            failures.append(
                f"rung {record['num_nodes']}: {total:.1f}s exceeds the "
                f"{args.assert_seconds:.0f}s ceiling"
            )
        if args.assert_rss_mb is not None and record["peak_rss_mb"] > args.assert_rss_mb:
            failures.append(
                f"rung {record['num_nodes']}: {record['peak_rss_mb']:.0f}MB "
                f"peak RSS exceeds the {args.assert_rss_mb:.0f}MB ceiling"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
