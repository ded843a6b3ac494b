"""Plain-text reporting of experiment results.

The paper's figures are bar charts; the figure shapers report the same series
as aligned text tables so the benchmarks can print exactly the rows a reader
needs to compare against the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: Optional[str] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows of dictionaries as an aligned text table.

    Floats use one decimal place, except small values (|v| < 10) which keep
    two so selectivities like 0.05 do not collapse into 0.1.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            if float_format is not None:
                return float_format.format(value)
            return f"{value:.2f}" if abs(value) < 10 else f"{value:.1f}"
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].rjust(widths[i]) for i in range(len(columns)))
        for line in rendered
    )
    table = "\n".join([header, separator, body])
    if title:
        return f"{title}\n{table}"
    return table


def sweep_to_rows(
    sweep: "SweepResult",
    metrics: Optional[Sequence[str]] = None,
    to_kb: bool = True,
) -> List[Dict[str, object]]:
    """Flatten an engine :class:`~repro.engine.runner.SweepResult` into table
    rows: one per (grid point, algorithm), with means and CI95 columns for
    the scenario's metrics."""
    return sweep.rows(metrics=metrics, to_kb=to_kb)


def sweep_summary(sweep: "SweepResult") -> str:
    """A one-line provenance summary of a sweep (for CLI output)."""
    return (
        f"scenario {sweep.scenario.name!r} ({sweep.scale_name} scale): "
        f"{sweep.total_runs} runs over {len(sweep.groups)} grid point(s); "
        f"{sweep.executed} executed, {sweep.from_store} from the result store"
    )


def sink_summary_rows(sweep: "SweepResult") -> List[Dict[str, object]]:
    """Instrumentation-sink summaries as table rows.

    One row per (grid point, algorithm) with the mean of every sink summary
    metric found in the reports' ``extra`` (cumulative ``phase_*`` snapshots
    excluded -- they live in the regular metric rows).  Empty when the sweep
    ran without metric sinks.  Summaries are recognized by the registered
    sink prefixes, so sinks supplied through a ``sinks`` grid axis (where the
    scenario-level field stays empty) are reported too.
    """
    from repro.metrics import known_summary_prefixes

    prefixes = known_summary_prefixes()
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            if not aggregate.runs:
                continue
            keys = [key for key in aggregate.runs[0].report.extra
                    if key.startswith(prefixes)]
            if not keys:
                continue
            row: Dict[str, object] = dict(group.setting)
            row["algorithm"] = algorithm
            for key in keys:
                row[key] = aggregate.mean(key)
            rows.append(row)
    return rows


def node_series_rows(
    sweep: "SweepResult",
    series: str = "energy.energy_uj",
    top: int = 5,
) -> List[Dict[str, object]]:
    """The *top* most loaded nodes of a per-node instrumentation series.

    Values are averaged across the seeded runs of each (grid point,
    algorithm); the CLI renders this as the per-node hotspot view of a
    ``--metrics`` run (the store's ``run_node_metrics`` table holds the full
    series).
    """
    rows: List[Dict[str, object]] = []
    for group in sweep.groups:
        for algorithm, aggregate in group.aggregates.items():
            sums: Dict[int, float] = {}
            counted = 0
            for run in aggregate.runs:
                mapping = run.report.node_series.get(series)
                if not mapping:
                    continue
                counted += 1
                for node_id, value in mapping.items():
                    sums[node_id] = sums.get(node_id, 0.0) + value
            if not counted:
                continue
            ranked = sorted(sums.items(), key=lambda item: item[1], reverse=True)
            for rank, (node_id, total) in enumerate(ranked[:top], start=1):
                row: Dict[str, object] = dict(group.setting)
                row.update({
                    "algorithm": algorithm,
                    "rank": rank,
                    "node": node_id,
                    series.partition(".")[2] or series: total / counted,
                })
                rows.append(row)
    return rows


def sweep_node_series_count(sweep: "SweepResult") -> int:
    """Total per-node instrumentation values collected across a sweep."""
    total = 0
    for group in sweep.groups:
        for aggregate in group.aggregates.values():
            for run in aggregate.runs:
                total += sum(len(m) for m in run.report.node_series.values())
    return total


def format_duration(seconds: float) -> str:
    """A compact human duration: ``4.2s``, ``1m03s``, ``2h05m``."""
    if seconds < 0:
        seconds = 0.0
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def campaign_rows(summaries: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    """The campaign summary table: one row per scenario plus a total row.

    Each summary is the per-scenario bookkeeping the campaign runner
    collects: ``scenario``, ``runs``, ``executed``, ``from_store``,
    ``groups`` (grid points), ``seconds`` and optionally ``metric_values``
    (per-node instrumentation values collected; the column appears once any
    scenario of the campaign ran with metric sinks).
    """
    with_metrics = any(int(s.get("metric_values", 0)) for s in summaries)
    rows: List[Dict[str, object]] = []
    for summary in summaries:
        row: Dict[str, object] = {
            "scenario": summary["scenario"],
            "runs": summary["runs"],
            "executed": summary["executed"],
            "from_store": summary["from_store"],
            "grid_points": summary["groups"],
            "wall_clock": format_duration(float(summary["seconds"])),
        }
        if with_metrics:
            row["metric_values"] = int(summary.get("metric_values", 0))
        rows.append(row)
    if len(rows) > 1:
        total: Dict[str, object] = {
            "scenario": "TOTAL",
            "runs": sum(int(s["runs"]) for s in summaries),
            "executed": sum(int(s["executed"]) for s in summaries),
            "from_store": sum(int(s["from_store"]) for s in summaries),
            "grid_points": sum(int(s["groups"]) for s in summaries),
            "wall_clock": format_duration(
                sum(float(s["seconds"]) for s in summaries)
            ),
        }
        if with_metrics:
            total["metric_values"] = sum(
                int(s.get("metric_values", 0)) for s in summaries
            )
        rows.append(total)
    return rows
