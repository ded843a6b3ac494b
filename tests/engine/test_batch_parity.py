"""Batch-cycle kernel parity: batched runs are bit-identical to per-tuple.

The acceptance bar of the batch-cycle kernel: on the figure smoke
workloads -- including lossy links, instrumentation sinks, failure phases
and mobility phases -- every traffic figure produced by the
default executor equals the per-tuple reference exactly.  The reference is
the ``per_tuple_cycles`` fixture, which keeps every executor off the kernel.
"""

from repro.engine import SCALES, ScenarioSpec, execute_run
from repro.engine.spec import PhaseSpec
from repro.experiments.scenarios import BUILTIN_SCENARIOS, figure_rows
from repro.joins.executor import JoinExecutor
from repro.network.batch import CycleBatcher

SMOKE = SCALES["smoke"]

TRAFFIC_FIELDS = ("total_traffic", "initiation_traffic", "computation_traffic",
                  "base_traffic", "max_node_load", "messages_dropped",
                  "results_produced", "results_delivered")


def _traffic_view(report):
    return tuple(getattr(report, field) for field in TRAFFIC_FIELDS) + (
        tuple(sorted(report.traffic_by_kind.items())),
        tuple(report.top_loaded_nodes),
        tuple(sorted(report.extra.items())),
    )


def _compare(per_tuple, scenario: ScenarioSpec, limit=None):
    specs = scenario.expand(SMOKE)[:limit]
    batched = [execute_run(spec).report for spec in specs]
    with per_tuple():
        reference = [execute_run(spec).report for spec in specs]
    for spec, report_on, report_off in zip(specs, batched, reference):
        assert _traffic_view(report_on) == _traffic_view(report_off), (
            f"batch/per-tuple divergence: {spec.algorithm} "
            f"{spec.setting_dict()}"
        )


def _record_kernel_cycles(monkeypatch):
    """Per executor, one ``(flush calls, every node alive, cycles)`` triple
    for each block it steps: the executor's kernel and block rules, observed
    with exact counts."""
    runs = {}
    flushes = []
    flush = CycleBatcher.flush
    step = JoinExecutor.step_cycle

    def counted(self):
        flushes.append(self)
        flush(self)

    def recorded(self, cycle, cycles=1):
        before = len(flushes)
        step(self, cycle, cycles)
        alive = all(node.alive for node in self.topology.nodes.values())
        runs.setdefault(self, []).append((len(flushes) - before, alive, cycles))
    monkeypatch.setattr(CycleBatcher, "flush", counted)
    monkeypatch.setattr(JoinExecutor, "step_cycle", recorded)
    return runs


class TestBatchParity:
    def test_fig02_smoke_subset(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            algorithms=("naive", "base", "innet-cmpg", "ght"),
            grid={"ratio": ["1/2:1/2"], "sigma_st": [0.2]},
        ))

    def test_fig02_smoke_full(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig02-smoke"]())

    def test_fig02_smoke_lossy_links(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            algorithms=("naive", "base", "innet-cmpg"),
            grid={"ratio": ["1/2:1/2"], "sigma_st": [0.2]},
            link_loss=0.2,
        ))

    def test_fig14_smoke_failure_phases(self, per_tuple_cycles):
        """Mid-run failure injection drops back to the per-tuple path
        automatically -- and still matches it exactly."""
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig14-smoke"]())

    def test_leaf_move_with_every_node_alive(self, per_tuple_cycles, monkeypatch):
        """A mid-run leaf move bumps the routing epoch while every node is
        alive: the executor stays on the kernel through the move."""
        runs = _record_kernel_cycles(monkeypatch)
        scenario = BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            algorithms=("base", "innet-cmpg", "ght"),
            grid={"ratio": ["1/2:1/2"], "sigma_st": [0.2]},
            phases=(PhaseSpec("before", fraction=0.5),
                    PhaseSpec("after", moves=({"node": "leaf"},))),
        )
        specs = scenario.expand(SMOKE)
        batched = [execute_run(spec).report for spec in specs]
        assert len(runs) == len(specs)
        for spec, blocks in zip(specs, runs.values()):
            # one flush per block, the move a block boundary
            assert [count for count, _, _ in blocks] == [1] * len(blocks)
            assert sum(length for _, _, length in blocks) == spec.cycles
            assert len(blocks) >= 2
        with per_tuple_cycles():
            reference = [execute_run(spec).report for spec in specs]
        for report_on, report_off in zip(batched, reference):
            assert report_on.extra["phase_after_moves"] == 1.0
            assert _traffic_view(report_on) == _traffic_view(report_off)

    def test_appg_smoke_mobility(self, per_tuple_cycles):
        """App G moves a leaf on a fully alive topology; its rows are the
        same with every executor held to the per-tuple path."""
        batched = figure_rows("appg-smoke", SMOKE)
        with per_tuple_cycles():
            assert figure_rows("appg-smoke", SMOKE) == batched

    def test_fig18_mesh_at_smoke_scale(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig18"](), limit=6)

    def test_instrumented_lossy_run(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig02-smoke"]().with_overrides(
            algorithms=("naive", "innet-cmpg"),
            grid={"ratio": ["1/2:1/2"], "sigma_st": [0.2]},
            link_loss=0.15,
            sinks=({"sink": "energy", "capacity_uj": 20_000.0}, "hotspots"),
        ))


class TestKernelRule:
    """The executor decides the kernel each cycle: on it unless a node is
    dead."""

    def test_fig14_smoke_leaves_kernel_from_failure_cycle(self, monkeypatch):
        """Failures are permanent: every block before the first failure
        flushes one batch, no cycle from the failure cycle on flushes, and
        each of those cycles is stepped on its own."""
        runs = _record_kernel_cycles(monkeypatch)
        for spec in BUILTIN_SCENARIOS["fig14-smoke"]().expand(SMOKE):
            execute_run(spec)
        failed_runs = 0
        for cycles in runs.values():
            alive = [every_alive for _, every_alive, _ in cycles]
            first_failure = alive.index(False) if False in alive else len(cycles)
            assert [count for count, _, _ in cycles] == (
                [1] * first_failure + [0] * (len(cycles) - first_failure)
            )
            assert all(length == 1 for _, _, length in cycles[first_failure:])
            if first_failure < len(cycles):
                assert first_failure > 0
                failed_runs += 1
        assert failed_runs > 0

    def test_table3_smoke_stays_on_the_kernel(self, monkeypatch):
        """With every node alive nothing keeps a run off the kernel: each
        block of a table3 run flushes one batch."""
        runs = _record_kernel_cycles(monkeypatch)
        for spec in BUILTIN_SCENARIOS["table3"]().expand(SMOKE):
            execute_run(spec)
        assert runs
        assert all(count == 1 and alive for cycles in runs.values()
                   for count, alive, _ in cycles)


class TestRosterParity:
    """Every strategy batched by the tree-traffic kernel stays bit-identical
    to its per-tuple reference -- on perfect links (the vectorized lossless
    formulations) and on lossy links (the captured-shipping stream)."""

    def test_fig05_innet_family_perfect(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig05"]())

    def test_fig05_innet_family_lossy(self, per_tuple_cycles):
        _compare(per_tuple_cycles,
                 BUILTIN_SCENARIOS["fig05"]().with_overrides(link_loss=0.2))

    def test_fig09a_ght_perfect(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["fig09a"]())

    def test_fig09a_ght_lossy(self, per_tuple_cycles):
        _compare(per_tuple_cycles,
                 BUILTIN_SCENARIOS["fig09a"]().with_overrides(link_loss=0.15))

    def test_table3_yang07_perfect(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["table3"]())

    def test_table3_yang07_lossy(self, per_tuple_cycles):
        _compare(per_tuple_cycles,
                 BUILTIN_SCENARIOS["table3"]().with_overrides(link_loss=0.2))

    def test_scale_ladder_roster_rung(self, per_tuple_cycles):
        """The full 9-strategy roster on the keyed ladder workload at the
        1k rung (larger rungs are covered by the crossover smoke)."""
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["scale-ladder-smoke"]().with_overrides(
            grid={"num_nodes": [1_000], "ratio": ["1/2:1/2"]},
        ))

    def test_strategy_crossover_smoke(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["strategy-crossover-smoke"]())

    def test_strategy_crossover_smoke_lossy(self, per_tuple_cycles):
        _compare(per_tuple_cycles, BUILTIN_SCENARIOS["strategy-crossover-smoke"]()
                 .with_overrides(link_loss=0.2, grid={
                     "num_nodes": [1_000], "ratio": ["1/2:1/2"],
                     "sigma_st": [0.2],
                 }))

    def test_fixture_keeps_every_cycle_off_the_kernel(self, per_tuple_cycles,
                                                      per_cycle_kernel,
                                                      monkeypatch):
        """The reference really is per-tuple: under the fixture neither the
        initiation nor any cycle flushes a batch, where the kernel flushes
        the initiation once and every cycle under the one-cycle fixture, and
        once per block by default."""
        flushes = []
        flush = CycleBatcher.flush

        def counted(self):
            flushes.append(self)
            flush(self)
        monkeypatch.setattr(CycleBatcher, "flush", counted)
        spec = next(spec for spec in BUILTIN_SCENARIOS["fig05"]().expand(SMOKE)
                    if spec.algorithm.startswith("innet"))
        execute_run(spec)
        assert 0 < len(flushes) < spec.cycles
        flushes.clear()
        with per_cycle_kernel():
            execute_run(spec)
        # one flush per cycle, plus the initiation's
        assert len(flushes) == spec.cycles + 1
        flushes.clear()
        with per_tuple_cycles():
            execute_run(spec)
        assert flushes == []
