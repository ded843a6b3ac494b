"""Cycle blocks against one cycle at a time and against per-tuple cycles.

On perfect links with every node alive, the executor steps a run in blocks:
each block samples, joins and charges all its cycles in one array pass.  A
run's report must not depend on it -- the same ``run(N)`` is compared three
ways: blocks (the default), the kernel one cycle at a time (the
``per_cycle_kernel`` fixture) and per-tuple cycles (``per_tuple_cycles``).
The runs cover several learning check and reset cycles and a switch of
the data source mid-run, both block boundaries, and a schedule of three
regimes, whose second switch sits one level down the chain of sources.
"""

import pytest

from repro.core import Selectivities
from repro.core.adaptive import AdaptivePolicy
from repro.engine.registry import make_strategy
from repro.joins import JoinExecutor
from repro.network.batch import CycleBatcher
from repro.network.topology import random_topology
from repro.network.traffic import TrafficAccounting
from repro.workloads import assign_table1_attributes, build_query1

from tests.joins.conftest import make_workload

CYCLES = 30
SWITCH_CYCLE = 13
THIRD_REGIME_CYCLE = 21
ALGORITHMS = ("naive", "base", "ght", "innet", "innet-cmg", "innet-cmpg",
              "yang07", "innet-learn")
ASSUMED = Selectivities(0.5, 0.5, 0.2)


@pytest.fixture(scope="module", params=[(70, 2), (90, 4), (110, 6)],
                ids=lambda p: f"{p[0]}-nodes")
def topology(request):
    nodes, seed = request.param
    topo = random_topology(num_nodes=nodes, average_degree=7, seed=seed)
    assign_table1_attributes(topo, seed=seed)
    return topo


def _run(topology, algorithm, accounting, third_regime=False):
    query = build_query1()
    source = make_workload(topology, query, ASSUMED, seed=5)
    source.switch_cycle = SWITCH_CYCLE
    source.switched = make_workload(topology, query, Selectivities(0.8, 0.3, 0.5),
                                    seed=6)
    if third_regime:
        source.switched.switch_cycle = THIRD_REGIME_CYCLE
        source.switched.switched = make_workload(
            topology, query, Selectivities(1.0, 1.0, 0.1), seed=7)
    kwargs = ({"adaptive_policy": AdaptivePolicy(check_interval=4, reset_interval=10,
                                                 min_cycles=4)}
              if algorithm.endswith("learn") else {})
    executor = JoinExecutor(query, topology.copy(), source,
                            make_strategy(algorithm, **kwargs), ASSUMED,
                            accounting=accounting, seed=5)
    return executor.run(CYCLES)


@pytest.mark.parametrize("accounting", list(TrafficAccounting))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_blocks_one_cycle_and_per_tuple_reports_are_equal(
    topology, algorithm, accounting, per_cycle_kernel, per_tuple_cycles, monkeypatch
):
    flushes = []
    flush = CycleBatcher.flush

    def counted(self):
        flushes.append(self)
        flush(self)
    monkeypatch.setattr(CycleBatcher, "flush", counted)

    blocks = _run(topology, algorithm, accounting)
    blocked_flushes = len(flushes)
    with per_cycle_kernel():
        one_cycle = _run(topology, algorithm, accounting)
    # one flush per cycle, plus the initiation's
    assert len(flushes) - blocked_flushes == CYCLES + 1
    with per_tuple_cycles():
        per_tuple = _run(topology, algorithm, accounting)
    assert blocks.results_produced > 0
    assert blocks == one_cycle == per_tuple
    # a block starts at the switch and, for the learning variant, after
    # each check or reset cycle; nothing else splits a run at this size
    starts = {0, SWITCH_CYCLE}
    if algorithm.endswith("learn"):
        starts |= {cycle + 1 for cycle in range(1, CYCLES - 1)
                   if cycle % 4 == 0 or cycle % 10 == 0}
    assert blocked_flushes == len(starts) + 1


@pytest.mark.parametrize("algorithm", ("naive", "ght", "innet-cmg", "yang07"))
def test_every_regime_of_a_chained_schedule_starts_a_block(
    topology, algorithm, per_cycle_kernel, per_tuple_cycles, monkeypatch
):
    """A block ends at each switch of a three-regime data source, the
    nested one included, and the blocked run equals one-cycle kernel steps
    and per-tuple cycles."""
    starts = []
    step_cycle = JoinExecutor.step_cycle

    def recorded(self, cycle, cycles=1):
        starts.append(cycle)
        step_cycle(self, cycle, cycles)
    monkeypatch.setattr(JoinExecutor, "step_cycle", recorded)

    blocks = _run(topology, algorithm, TrafficAccounting.BYTES, third_regime=True)
    assert starts == [0, SWITCH_CYCLE, THIRD_REGIME_CYCLE]
    with per_cycle_kernel():
        one_cycle = _run(topology, algorithm, TrafficAccounting.BYTES,
                         third_regime=True)
    with per_tuple_cycles():
        per_tuple = _run(topology, algorithm, TrafficAccounting.BYTES,
                         third_regime=True)
    assert blocks.results_produced > 0
    assert blocks == one_cycle == per_tuple
    assert blocks != _run(topology, algorithm, TrafficAccounting.BYTES)
