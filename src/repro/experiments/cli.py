"""Command-line entry point: figures, scenarios, parallel sweeps, result store.

Figure interface (a figure is a built-in scenario plus its row shaper)::

    python -m repro.experiments --list
    python -m repro.experiments --figure fig02 --scale smoke
    python -m repro.experiments --figure fig13 fig14 --scale default --jobs 4

Scenario interface (the declarative engine)::

    python -m repro.experiments list-scenarios
    python -m repro.experiments run-scenario fig02-smoke --scale smoke --jobs 4
    python -m repro.experiments run-scenario examples/scenarios/fig02_smoke.json \\
        --store results.sqlite

Campaign interface (many scenarios, one pool, one store)::

    python -m repro.experiments run-campaign 'fig*' --jobs 4 --store results.sqlite
    python -m repro.experiments run-campaign --all --scale smoke

``run-scenario`` and ``run-campaign`` persist completed runs in a SQLite
result store keyed by run-spec hash *as they stream back from the workers*,
so an interrupted invocation loses at most one flush window and re-invoking
the same command resumes where it stopped; pass ``--no-resume`` to force
re-execution or ``--no-store`` to skip persistence entirely.  ``--jobs N``
fans runs out over a persistent pool of N worker processes shared by every
sweep of the invocation (with an adaptive fallback to serial when
parallelism cannot pay off).  ``--metrics energy,hotspots`` (or ``all``)
attaches instrumentation sinks (see :mod:`repro.metrics`) to every run:
summaries are rendered after the sweep table and per-node series persist
into the store's ``run_node_metrics`` table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.engine import SCALES, SweepRunner, scale_from_env, shutdown_shared_pools
from repro.experiments.report import (
    campaign_rows,
    format_duration,
    format_table,
    node_series_rows,
    sink_summary_rows,
    sweep_node_series_count,
    sweep_summary,
    sweep_to_rows,
)
from repro.experiments.scenarios import (
    SCENARIO_TABLE_SHAPERS,
    available_scenarios,
    figure_names,
    figure_rows,
    match_scenarios,
    resolve_scenario,
)

def _figure_table(scenario, scale_name: str, rows: List[dict]) -> str:
    """A figure's shaped rows, titled by its scenario's own description."""
    return format_table(rows, title=f"{scenario.name} -- {scenario.description} "
                                    f"({scale_name} scale)")


def _default_scale_name() -> str:
    """The CLI's default scale: REPRO_SCALE when set, else 'default'.

    Unknown values abort with the preset list (via the engine's
    ``scale_from_env`` validation) rather than being silently replaced by
    the built-in default.
    """
    try:
        return scale_from_env().name
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for sweep execution (default: 1, serial)")
    parser.add_argument("--store", default="results.sqlite", metavar="PATH",
                        help="SQLite result store (default: %(default)s)")
    parser.add_argument("--no-store", action="store_true",
                        help="do not persist results")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-execute runs even if the store already has them")
    parser.add_argument("--flush-every", type=_positive_int, default=16,
                        metavar="K",
                        help="persist streamed results every K completions "
                             "(default: %(default)s); an interrupt loses at "
                             "most one flush window")
    parser.add_argument("--metrics", default=None, metavar="SINKS",
                        help="comma-separated instrumentation sink presets "
                             "(e.g. 'energy' or 'energy,hotspots' or 'all') "
                             "attached to every run; summaries are rendered "
                             "after the sweep table and per-node series are "
                             "persisted in the store's run_node_metrics table")


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    store = None if args.no_store else args.store
    return SweepRunner(jobs=args.jobs, store=store, resume=not args.no_resume,
                       flush_every=args.flush_every)


def _parse_metric_sinks(text: Optional[str]) -> tuple:
    """Validate a ``--metrics`` value into a tuple of sink presets."""
    if not text:
        return ()
    from repro.metrics import available_sink_presets, validate_sink_entries

    names = tuple(name.strip() for name in text.split(",") if name.strip())
    try:
        validate_sink_entries(names)
    except (KeyError, ValueError):
        print(
            f"error: unknown metrics sink in {text!r}; expected a "
            f"comma-separated subset of {available_sink_presets()}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    return names


def _apply_metric_sinks(scenario, metric_sinks):
    """Add the CLI-requested sinks to a scenario's own (order-preserving).

    Augmenting instead of replacing keeps a scenario's declared metric
    columns valid: ``--metrics energy`` on a scenario that already carries a
    hotspot sink reports both.  Group presets (``all``) are expanded before
    deduplication so no sink is ever instantiated twice.
    """
    if not metric_sinks:
        return scenario
    from repro.metrics import expand_sink_entries

    def _name(entry):
        return entry if isinstance(entry, str) else entry.get("sink")

    existing = tuple(expand_sink_entries(scenario.sinks))
    present = {_name(entry) for entry in existing}
    added = []
    for name in expand_sink_entries(metric_sinks):
        if name not in present:       # also dedupes within the request
            present.add(name)         # (e.g. --metrics all,energy)
            added.append(name)
    if not added:
        return scenario
    return scenario.with_overrides(sinks=existing + tuple(added))


def _print_sink_tables(sweep) -> None:
    """Render sink summaries, the per-node energy/load hotspots and, for a
    scenario with a row shaper, its figure table."""
    summary_rows = sink_summary_rows(sweep)
    if summary_rows:
        print(format_table(summary_rows, title="Instrumentation summary"))
    for series, label in (("energy.energy_uj", "Per-node energy (top 5, uJ)"),
                          ("hotspot.load", "Per-node load (top 5)")):
        rows = node_series_rows(sweep, series=series, top=5)
        if rows:
            print(format_table(rows, title=label))
    shaper = SCENARIO_TABLE_SHAPERS.get(sweep.scenario.name)
    if shaper is not None:
        print(_figure_table(sweep.scenario, sweep.scale_name, shaper(sweep)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate figures of 'Dynamic Join Optimization in "
                    "Multi-Hop Wireless Sensor Networks'.",
        epilog="Scenario subcommands: run-scenario, run-campaign, "
               "list-scenarios (see 'run-scenario --help' / "
               "'run-campaign --help').",
    )
    parser.add_argument("--figure", "-f", nargs="+", default=[],
                        help="figure id(s) to regenerate, e.g. fig02 fig13")
    parser.add_argument("--scale", "-s", choices=sorted(SCALES),
                        default=_default_scale_name(),
                        help="experiment scale preset (default: REPRO_SCALE "
                             "or 'default')")
    parser.add_argument("--list", "-l", action="store_true",
                        help="list available figure ids (the built-in "
                             "scenarios with a row shaper) and exit")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for sweep-based figures (default: 1)")
    return parser


def build_run_scenario_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments run-scenario",
        description="Expand a declarative scenario into runs, execute them "
                    "(optionally in parallel), and print the aggregates.",
    )
    parser.add_argument("scenario", nargs="+",
                        help="built-in scenario name or path to a .json/.toml file")
    parser.add_argument("--scale", "-s", choices=sorted(SCALES),
                        default=_default_scale_name(),
                        help="experiment scale preset (default: REPRO_SCALE "
                             "or 'default')")
    _add_engine_options(parser)
    return parser


def build_list_scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments list-scenarios",
        description="List built-in scenarios and scenario files.",
    )
    parser.add_argument("--scenario-dir", default=None, metavar="DIR",
                        help="directory scanned for scenario files "
                             "(default: examples/scenarios)")
    return parser


def build_run_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments run-campaign",
        description="Execute many registered scenarios through one shared "
                    "persistent worker pool and result store, with "
                    "per-scenario progress/ETA and a final summary table.  "
                    "Results stream into the store as they complete, so an "
                    "interrupted campaign resumes where it stopped.",
        epilog="Examples: run-campaign 'fig*' --jobs 4 --store results.sqlite"
               " | run-campaign --all --scale smoke",
    )
    parser.add_argument("patterns", nargs="*", metavar="PATTERN",
                        help="scenario name globs (quote them!), e.g. 'fig*' "
                             "'table3', or scenario file paths")
    parser.add_argument("--all", action="store_true", dest="run_all",
                        help="run every built-in scenario")
    parser.add_argument("--scale", "-s", choices=sorted(SCALES),
                        default=_default_scale_name(),
                        help="experiment scale preset (default: REPRO_SCALE "
                             "or 'default')")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-scenario progress lines")
    _add_engine_options(parser)
    return parser


class _CampaignProgress:
    """Throttled per-scenario progress/ETA lines on stderr."""

    #: Seconds between two progress lines (the last one always prints).
    MIN_INTERVAL = 0.5

    def __init__(self, scenario: str, index: int, count: int) -> None:
        self.prefix = f"[{index}/{count}] {scenario}"
        self.started = time.monotonic()
        self._last_printed = 0.0

    def __call__(self, done: int, total: int, spec) -> None:
        now = time.monotonic()
        if done < total and now - self._last_printed < self.MIN_INTERVAL:
            return
        self._last_printed = now
        elapsed = now - self.started
        eta = elapsed / done * (total - done) if done else 0.0
        print(
            f"{self.prefix}: {done}/{total} runs  "
            f"elapsed {format_duration(elapsed)}  eta {format_duration(eta)}",
            file=sys.stderr,
        )


def _cmd_run_scenario(argv: Sequence[str]) -> int:
    args = build_run_scenario_parser().parse_args(argv)
    scale = SCALES[args.scale]
    metric_sinks = _parse_metric_sinks(args.metrics)
    exit_code = 0
    with _make_runner(args) as runner:
        for name in args.scenario:
            try:
                scenario = resolve_scenario(name)
            except (KeyError, ValueError) as error:
                print(error, file=sys.stderr)
                exit_code = 2
                continue
            scenario = _apply_metric_sinks(scenario, metric_sinks)
            sweep = runner.run(scenario, scale)
            print(format_table(
                sweep_to_rows(sweep),
                title=f"{scenario.name} ({scale.name} scale)",
            ))
            _print_sink_tables(sweep)
            print(sweep_summary(sweep))
            print()
    return exit_code


def _cmd_run_campaign(argv: Sequence[str]) -> int:
    args = build_run_campaign_parser().parse_args(argv)
    if not args.patterns and not args.run_all:
        print("run-campaign: give at least one scenario PATTERN or --all",
              file=sys.stderr)
        return 2
    if args.patterns and args.run_all:
        print("run-campaign: --all cannot be combined with PATTERNs "
              "(it already selects every built-in scenario)", file=sys.stderr)
        return 2
    try:
        names = match_scenarios(args.patterns, include_all=args.run_all)
    except KeyError as error:
        print(f"run-campaign: {error.args[0]}", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    metric_sinks = _parse_metric_sinks(args.metrics)
    summaries: List[dict] = []
    exit_code = 0
    runner = _make_runner(args)
    try:
        for index, name in enumerate(names, start=1):
            try:
                scenario = resolve_scenario(name)
            except (KeyError, ValueError) as error:
                print(error, file=sys.stderr)
                exit_code = 2
                continue
            scenario = _apply_metric_sinks(scenario, metric_sinks)
            runner.progress = (None if args.quiet else
                               _CampaignProgress(scenario.name, index, len(names)))
            started = time.monotonic()
            sweep = runner.run(scenario, scale)
            seconds = time.monotonic() - started
            print(format_table(
                sweep_to_rows(sweep),
                title=f"{scenario.name} ({scale.name} scale)",
            ))
            _print_sink_tables(sweep)
            print(sweep_summary(sweep))
            print()
            summaries.append({
                "scenario": scenario.name,
                "runs": sweep.total_runs,
                "executed": sweep.executed,
                "from_store": sweep.from_store,
                "groups": len(sweep.groups),
                "seconds": seconds,
                "metric_values": sweep_node_series_count(sweep),
            })
    except KeyboardInterrupt:
        # streamed results up to the last flush window are already in the
        # store; the same invocation resumes exactly where it stopped
        print("\nrun-campaign: interrupted -- completed runs are persisted; "
              "re-run the same command to resume", file=sys.stderr)
        exit_code = 130
        shutdown_shared_pools()
    finally:
        runner.close()
    if summaries:
        print(format_table(
            campaign_rows(summaries),
            title=f"Campaign summary ({scale.name} scale, jobs={args.jobs})",
        ))
    return exit_code


def _cmd_list_scenarios(argv: Sequence[str]) -> int:
    args = build_list_scenarios_parser().parse_args(argv)
    rows = [
        {"scenario": name, "origin": origin}
        for name, origin in available_scenarios(args.scenario_dir)
    ]
    print(format_table(rows, title="Available scenarios"))
    return 0


SUBCOMMANDS = {
    "run-scenario": _cmd_run_scenario,
    "run-campaign": _cmd_run_campaign,
    "list-scenarios": _cmd_list_scenarios,
}


def main(argv: Sequence[str] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.figure:
        rows = [
            {"figure": name, "description": resolve_scenario(name).description}
            for name in figure_names()
        ]
        print(format_table(rows, title="Available figures"))
        return 0
    scale = SCALES[args.scale]
    runner = SweepRunner(jobs=args.jobs) if args.jobs > 1 else None
    exit_code = 0
    for name in args.figure:
        try:
            scenario = resolve_scenario(name)
            rows = figure_rows(scenario, scale, runner=runner)
        except KeyError as error:
            print(error, file=sys.stderr)
            exit_code = 2
            continue
        print(_figure_table(scenario, scale.name, rows))
        print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
