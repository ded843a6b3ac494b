#!/usr/bin/env python3
"""The repo benchmark.  ``BENCHMARK.json`` declares it; this runs it.

    python3 bench/run.py --workload mote-static --seed 0 --seconds 15 --trace 0
    python3 bench/run.py                       # all five workloads, end to end
    python3 bench/run.py --trace 1             # all five, per-layer metrics
    python3 bench/run.py --repeat 2 --check-agreement
    python3 bench/run.py --update-expected     # rewrite bench/expected.json

Each workload runs in its own subprocess (``--child``), single-threaded and
closed loop; the parent only spawns, times set-up and checks.  The last line
of standard output is one JSON object.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if sys.path and Path(sys.path[0] or ".").resolve() == BENCH:
    # run as a script: bench/ itself must not be importable top-level
    # (bench/trace.py would shadow the standard library's trace)
    sys.path.pop(0)
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

_perf = time.perf_counter

#: Fresh interpreters that import, register and warm up; ``setup_s`` is
#: the median of their times (the workload's own child is one of them).
SETUP_SAMPLES = 5


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# measuring one workload (runs in the child process)
# ---------------------------------------------------------------------------

def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _repeat(fn, seed, sizes, tracer, scratch: Path, seconds: float, first_index: int = 0):
    """Repetitions of one workload until the time budget is used: stop when
    another repetition would overshoot it by more than it undershoots now."""
    from bench.workloads import ping
    from repro.engine import reset_workload_caches

    reps = []
    started = _perf()
    while True:
        reset_workload_caches()
        gc.collect()
        tracer.rep = first_index + len(reps)
        wall_started, cpu_started = _perf(), time.process_time()
        with tracer.span("bench.rep"):
            rep = fn(seed, sizes, tracer, scratch)
        rep.cpu_s = time.process_time() - cpu_started
        rep.wall_s = _perf() - wall_started
        if tracer.active and rep.daemon is not None:
            rep.ping_s = ping(rep.daemon, sizes.pings)
        rep.daemon = None   # let the engine go before the next repetition
        reps.append(rep)
        elapsed = _perf() - started
        if elapsed + 0.5 * elapsed / len(reps) >= seconds:
            return reps


def end_to_end(reps) -> Dict[str, float]:
    """The end-to-end metrics one process can see; each is the median
    repetition.  ``setup_s`` and ``peak_rss_mb`` are added by the callers."""
    median = statistics.median
    return {
        "cpu_s": median(r.cpu_s for r in reps),
        "cycles_per_s": median(r.cycles / r.stepping_s for r in reps),
        "cycle_p50_ms": 1e3 * median(median(r.cycle_s) for r in reps),
        "admit_mean_ms": 1e3 * median(statistics.fmean(r.unit_s) for r in reps),
        "sim_traffic_units": reps[0].stats["total_traffic"],
    }


def per_layer(tracer, totals, reps, untraced_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per repetition; *totals* is
    ``tracer.totals()``."""
    n = len(reps)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def busy(name): return totals.get(name, zero)["busy_s"] / n
    def self_(name): return totals.get(name, zero)["self_s"] / n
    def calls(name): return totals.get(name, zero)["calls"] / n
    def count(name): return tracer.counts[name] / n
    def mean(field): return statistics.fmean(getattr(r, field) for r in reps)

    stats = reps[0].stats
    probes = count("query.probe")
    batch_cycles = calls("joins.execute_cycle_batch")
    query_cycles = batch_cycles + calls("joins.execute_cycle")
    # service-only latency samples, pooled over the traced repetitions
    service = "service.step" in totals
    submits = [s for r in reps for s in r.unit_s] if service else []
    steps = [s for r in reps for s in r.cycle_s] if service else []
    traced_wall = busy("bench.rep")
    return {
        "host_wall_over_cpu": sum(r.wall_s for r in reps) / sum(r.cpu_s for r in reps),
        "network.topology_generate_s": busy("network.topology_generate"),
        "network.routing_build_s": busy("network.routing_build"),
        "network.topology_copies": calls("network.topology_copy"),
        "network.topology_copy_s": busy("network.topology_copy"),
        "network.routing_epoch_bumps": count("network.routing_epoch_bump"),
        "network.transfer_calls": calls("network.transfer"),
        "network.transfer_s": busy("network.transfer"),
        "network.cycle_transfer_calls": tracer.calls_within(
            "network.transfer", ("joins.cycle", "joins.shared_step")) / n,
        "network.batch_flush_calls": calls("network.batch_flush"),
        "network.batch_flush_s": busy("network.batch_flush"),
        "network.link_draw_calls": count("network.link_draw"),
        "network.dropped_messages": stats["messages_dropped"],
        "routing.tree_builds": calls("routing.tree_build"),
        "routing.tree_build_s": busy("routing.tree_build"),
        "routing.substrate_build_s": busy("routing.substrate_build"),
        "routing.semantic_index_s": busy("routing.semantic_index"),
        "routing.find_matches_calls": calls("routing.find_matches"),
        "routing.find_matches_s": busy("routing.find_matches"),
        "routing.best_route_calls": count("routing.best_route"),
        "summaries.bloom_builds": count("summaries.bloom_build"),
        "query.parse_s": busy("query.parse"),
        "query.analyze_s": busy("query.analyze"),
        "query.probe_calls": probes,
        "query.probe_hit_ratio": stats["results_produced"] / probes if probes else 0.0,
        "workloads.sample_calls": calls("workloads.sample"),
        "workloads.sample_s": busy("workloads.sample"),
        "core.optimize_s": busy("core.optimize"),
        "core.group_decide_calls": calls("core.group_decide"),
        "core.group_decide_s": busy("core.group_decide"),
        "core.reoptimizations": mean("reoptimizations"),
        "joins.initiate_s": busy("joins.initiate"),
        "joins.initiate_self_s": self_("joins.initiate"),
        "joins.cycles": query_cycles,
        "joins.cycle_s": busy("joins.cycle"),
        "joins.cycle_self_s": self_("joins.cycle"),
        "joins.batch_cycle_share": batch_cycles / query_cycles if query_cycles else 0.0,
        "joins.handle_failures_s": busy("joins.handle_failures"),
        "joins.report_s": busy("joins.report"),
        "joins.attach_s": busy("joins.attach"),
        "joins.detach_s": busy("joins.detach"),
        "joins.shared_step_s": busy("joins.shared_step"),
        "joins.deduped_shipments": mean("deduped_shipments"),
        "joins.shared_savings_units": mean("shared_savings_units"),
        "joins.results_produced": stats["results_produced"],
        "joins.results_delivered": stats["results_delivered"],
        "engine.expand_s": busy("engine.expand"),
        "engine.runs": calls("engine.execute_run"),
        "engine.execute_run_s": busy("engine.execute_run"),
        "engine.workload_build_s": busy("engine.workload_build"),
        "engine.store_rows": mean("store_rows"),
        "engine.store_open_s": busy("engine.store_open"),
        "engine.store_write_s": busy("engine.store_write"),
        "engine.store_resume_s": busy("engine.store_resume"),
        "engine.sweep_self_s": self_("engine.sweep"),
        "service.submit_p50_ms": 1e3 * _percentile(submits, 0.50),
        "service.submit_p95_ms": 1e3 * _percentile(submits, 0.95),
        "service.cancel_p50_ms": 1e3 * _percentile([s for r in reps for s in r.cancel_s], 0.50),
        "service.step_p90_ms": 1e3 * _percentile(steps, 0.90),
        "service.step_max_ms": 1e3 * max(steps, default=0.0),
        "service.stats_ms": 1e3 * mean("stats_s"),
        "service.daemon_rtt_ms": 1e3 * _percentile([s for r in reps for s in r.ping_s], 0.50),
        "metrics.emit_calls": count("metrics.emit"),
        "metrics.summaries_s": busy("metrics.summaries"),
        "trace_wall_s": traced_wall,
        "trace_unattributed_frac": self_("bench.rep") / traced_wall,
        "trace_overhead_frac": mean("cpu_s") / untraced_cpu_s - 1.0,
    }


def self_time_table(totals, reps: int) -> List[dict]:
    """Span names by self time per repetition, largest first."""
    rows = [{"span": name, "calls": entry["calls"] / reps,
             "busy_s": entry["busy_s"] / reps, "self_s": entry["self_s"] / reps}
            for name, entry in totals.items()]
    return sorted(rows, key=lambda row: -row["self_s"])


def measure(name: str, seed: int, seconds: float, sizes, traced: bool, out_dir: Path) -> dict:
    """Run one workload in this process and return what it measured."""
    from bench import trace, workloads

    fn = workloads.WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        if not traced:
            reps = _repeat(fn, seed, sizes, trace.NullTracer(), Path(scratch), seconds)
            result["metrics"] = end_to_end(reps)
        else:
            # untraced repetitions first: the base of trace_overhead_frac
            baseline = _repeat(fn, seed, sizes, trace.NullTracer(), Path(scratch), seconds / 3)
            tracer = trace.Tracer()
            trace.install(tracer)
            try:
                reps = _repeat(fn, seed, sizes, tracer, Path(scratch), seconds,
                               first_index=len(baseline))
            finally:
                tracer.restore()
            totals = tracer.totals()
            result["metrics"] = per_layer(
                tracer, totals, reps, statistics.median(r.cpu_s for r in baseline))
            result["self_times"] = self_time_table(totals, len(reps))
            tracer.write(out_dir / f"trace-{name}.json")
            reps = baseline + reps
    result.update(
        reps=len(reps),
        attempted=sum(r.attempted for r in reps),
        failed=sum(r.failed for r in reps),
        stats=reps[0].stats,
        deterministic=all(r.stats == reps[0].stats for r in reps),
        samples={"cycle": len(reps[0].cycle_s), "unit": len(reps[0].unit_s)},
    )
    return result


def child_main(args) -> int:
    from bench import workloads

    workloads.setup()
    # the process CPU clock starts at zero with the process: interpreter
    # start, imports, registrations and the warm-up sweep
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    sizes = workloads.QUICK if args.quick else workloads.Sizes()
    result = measure(args.workload, args.seed, args.seconds, sizes,
                     bool(args.trace), Path(args.out))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the parent: spawn, time set-up, check, report
# ---------------------------------------------------------------------------

def _spawn(extra: List[str]) -> Optional[dict]:
    """Run a child to completion; its last stdout line is a JSON object.
    ``None`` if the child failed."""
    command = [sys.executable, str(BENCH / "run.py"), "--child", *extra]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"bench: child exited {proc.returncode}: {' '.join(extra)}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, declaration: dict, expected: dict) -> Optional[dict]:
    """One workload end to end: the contract's result object, plus
    ``stats`` / ``self_times`` for the callers that print or pin them."""
    child_args = ["--workload", name, "--seed", str(args.seed), "--seconds",
                  str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
    if args.quick:
        child_args.append("--quick")
    child = _spawn(child_args)
    if child is None:
        return None
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = child["metrics"]
    if not args.trace:
        setups = [child["setup_s"]]
        for _ in range(0 if args.quick else SETUP_SAMPLES - 1):
            probe = _spawn(["--setup-only"])
            if probe is None:
                return None
            setups.append(probe["setup_s"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = child["peak_rss_mb"]
    problems = []
    if child["failed"]:
        problems.append(f"{child['failed']} of {child['attempted']} operations failed")
    if not child["deterministic"]:
        problems.append("repetitions disagree on the simulated statistics")
    pinned = expected.get(name)
    if args.seed == 0 and not args.quick and not args.update_expected and pinned != child["stats"]:
        problems.append(f"seed-0 statistics {child['stats']} differ from expected.json {pinned}")
    if set(values) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for problem in problems:
        print(f"bench: {name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items() if key in values},
        "stats": child["stats"],
        "self_times": child.get("self_times", []),
        "reps": child["reps"],
        "samples": child["samples"],
    }


def print_report(name: str, result: dict) -> None:
    samples = result["samples"]
    print(f"== {name}: {result['reps']} repetition(s), {result['attempted']} operations, "
          f"{result['failed']} failed; per repetition n={samples['cycle']} cycle samples, "
          f"n={samples['unit']} unit samples ==")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6f} {metric['unit']}")
    if result["self_times"]:
        print("  -- self time per repetition, by span --")
        for row in result["self_times"]:
            print(f"  {row['span']:34s} {row['self_s']:>10.4f} s self {row['busy_s']:>10.4f} s busy "
                  f"{row['calls']:>10.0f} calls")


def _quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile (minimum, median, maximum
    for fewer than four values, where quartiles are extrapolations)."""
    if len(values) < 4:
        return [min(values), statistics.median(values), max(values)]
    return statistics.quantiles(values, n=4)


def check_agreement(sets: List[Dict[str, dict]], declaration: dict) -> bool:
    """Print median and quartiles of every end-to-end metric over the
    repeated sets; False if any spread exceeds the metric's bound."""
    agree = True
    for name in sets[0]:
        for metric in declaration["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [s[name]["metrics"][key]["value"] for s in sets]
            low, middle, high = _quartiles(values)
            spread = (high - low) / middle
            ok = spread <= bound
            agree = agree and ok
            print(f"  {name:15s} {key:18s} n={len(values)} median={middle:.6g} "
                  f"q1={low:.6g} q3={high:.6g} spread={spread:.4f} "
                  f"bound={bound} {'ok' if ok else 'EXCEEDED'}")
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="drives the generated sensor readings and link-loss draws")
    parser.add_argument("--seconds", type=float, default=float(declaration["run_seconds"]),
                        help="time budget of the measured repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one set-up sample (for the tests; not the benchmark)")
    parser.add_argument("--repeat", type=int, default=1, help="run the selected workloads N times")
    parser.add_argument("--check-agreement", action="store_true",
                        help="with --repeat: fail if a metric's spread exceeds its bound")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json from this run (seed 0, all workloads)")
    parser.add_argument("--out", default=str(BENCH / "out"), help="where traces and scratch files go")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.update_expected and (args.seed or args.quick or args.workload or args.trace):
        parser.error("--update-expected pins seed 0 of all workloads at full size, untraced")

    expected_path = BENCH / "expected.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    selected = [args.workload] if args.workload else names
    sets: List[Dict[str, dict]] = []
    for _ in range(args.repeat):
        results: Dict[str, dict] = {}
        for name in selected:
            result = run_workload(name, args, declaration, expected)
            if result is None:
                return 1
            print_report(name, result)
            results[name] = result
        sets.append(results)

    ok = all(r["correct"] for results in sets for r in results.values())
    if args.check_agreement and not args.trace:
        ok = check_agreement(sets, declaration) and ok
    if args.update_expected and ok:
        expected_path.write_text(json.dumps(
            {name: sets[0][name]["stats"] for name in names}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {expected_path}")

    contract_keys = ("correct", "attempted", "failed", "metrics")
    last = sets[-1]
    if args.workload:
        print(json.dumps({key: last[args.workload][key] for key in contract_keys}))
    else:
        print(json.dumps({name: {key: r[key] for key in contract_keys}
                          for name, r in last.items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
