"""The five workloads at the quick size: metric names, restored wrappers,
span accounting, the correctness checks and where files go."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, workloads

ROOT = Path(run.ROOT)
DECLARATION = run.load_declaration()
NAMES = [w["name"] for w in DECLARATION["workloads"]]
# added by the parent process, which the in-process calls below skip
PARENT_METRICS = {"setup_s", "peak_rss_mb"}


def _tree(root: Path):
    """Every file under *root* with its mtime, minus caches tests always write."""
    skip = {"__pycache__", ".pytest_cache", ".hypothesis", ".git", ".benchmarks"}
    found = {}
    for folder, folders, files in os.walk(root):
        folders[:] = [f for f in folders if f not in skip]
        for name in files:
            path = Path(folder) / name
            found[str(path)] = path.stat().st_mtime_ns
    return found


def _wrapped_attributes():
    """(owner, attr) -> current value, for a sample of what install() wraps."""
    from repro.engine import execution, runner
    from repro.joins.executor import JoinExecutor
    from repro.joins.innet import InnetJoin
    from repro.network.simulator import NetworkSimulator
    from repro.service import engine as service_engine

    owners = [(JoinExecutor, "step_cycle"), (InnetJoin, "execute_cycle"),
              (NetworkSimulator, "transfer"), (runner, "execute_run"),
              (execution, "build_topology"), (service_engine, "parse_query"),
              (service_engine.ServiceEngine, "submit")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """All five workloads, untraced then traced, in this process."""
    out = tmp_path_factory.mktemp("bench-out")
    before_files, before_attrs = _tree(ROOT), _wrapped_attributes()
    results = {
        (name, traced): run.measure(name, 0, 0.0, workloads.QUICK, traced, out)
        for traced in (False, True) for name in NAMES
    }
    return {"results": results, "out": out, "files": (before_files, _tree(ROOT)),
            "attrs": (before_attrs, _wrapped_attributes())}


def test_emitted_metric_names_equal_the_declared_sets(quick):
    declared = {section: {m["name"] for m in DECLARATION[section]}
                for section in ("end_to_end", "per_layer")}
    for (name, traced), result in quick["results"].items():
        emitted = set(result["metrics"])
        if traced:
            assert emitted == declared["per_layer"], name
        else:
            assert emitted | PARENT_METRICS == declared["end_to_end"], name
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", key) for key in emitted)
        assert all(isinstance(v, (int, float)) for v in result["metrics"].values())


def test_every_workload_is_correct_and_deterministic(quick):
    for (name, traced), result in quick["results"].items():
        assert result["failed"] == 0 and result["attempted"] > 0, name
        # the traced run holds an untraced repetition too: tracing must not
        # change a single simulated statistic
        assert result["deterministic"], name
        assert result["reps"] == (2 if traced else 1)
    for name in NAMES:
        assert quick["results"][name, False]["stats"] == quick["results"][name, True]["stats"]


def test_end_to_end_metrics_are_never_zero(quick):
    for name in NAMES:
        for key, value in quick["results"][name, False]["metrics"].items():
            assert value > 0, (name, key)


def test_wrappers_are_fully_restored_after_a_traced_run(quick):
    before, after = quick["attrs"]
    assert before.keys() == after.keys()
    for key in before:
        assert after[key] is before[key], key


def test_span_accounting_leaves_no_time_unattributed(quick):
    for name in NAMES:
        metrics = quick["results"][name, True]["metrics"]
        assert metrics["trace_unattributed_frac"] <= 0.10, name
        spans = {row["span"]: row for row in quick["results"][name, True]["self_times"]}
        total_self = sum(row["self_s"] for row in spans.values())
        assert total_self == pytest.approx(metrics["trace_wall_s"], rel=1e-6)


def test_layer_split_matches_the_workload_design(quick):
    layer = {name: quick["results"][name, True]["metrics"] for name in NAMES}
    assert layer["mote-static"]["network.cycle_transfer_calls"] == 0
    assert layer["mote-static"]["joins.batch_cycle_share"] == 1.0
    assert layer["mote-static"]["metrics.emit_calls"] == 0
    assert layer["mote-static"]["engine.store_rows"] == layer["mote-static"]["engine.runs"]
    assert layer["mote-dynamic"]["network.cycle_transfer_calls"] > 0
    assert 0 < layer["mote-dynamic"]["joins.batch_cycle_share"] <= 0.5
    assert layer["mote-dynamic"]["metrics.emit_calls"] > 0
    assert layer["mote-dynamic"]["network.topology_copies"] == layer["mote-dynamic"]["engine.runs"]
    for name in ("service-steady", "service-churn"):
        assert layer[name]["joins.batch_cycle_share"] == 0.0
        assert layer[name]["service.daemon_rtt_ms"] > 0
        assert layer[name]["engine.runs"] == 0
    assert layer["service-steady"]["service.cancel_p50_ms"] == 0
    assert layer["service-churn"]["service.cancel_p50_ms"] > 0
    assert layer["scale-30k"]["network.routing_build_s"] > 0
    assert layer["scale-30k"]["routing.semantic_index_s"] > 0


def test_nothing_is_written_outside_the_out_directory(quick):
    before, after = quick["files"]
    assert after == before
    written = sorted(p.name for p in quick["out"].iterdir())
    assert written == sorted(f"trace-{name}.json" for name in NAMES)
    trace = json.loads((quick["out"] / "trace-scale-30k.json").read_text())
    assert trace["fields"] == ["name", "start", "end", "parent", "rep"]
    assert trace["spans"][0][0] == "bench.rep"


def test_over_reported_deliveries_count_as_failed_operations(tmp_path, monkeypatch):
    from repro.joins.executor import JoinExecutor

    honest = JoinExecutor.report

    def over_report(self, cycles):
        report = honest(self, cycles)
        report.results_delivered = report.results_produced + 1
        return report

    monkeypatch.setattr(JoinExecutor, "report", over_report)
    result = run.measure("mote-static", 0, 0.0, workloads.QUICK, False, tmp_path)
    assert result["failed"] >= result["attempted"] > 0


def test_command_line_prints_the_result_object_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--workload", "mote-dynamic",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert list(tmp_path.iterdir()) == []


def test_command_line_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mote-static", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
