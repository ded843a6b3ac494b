"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  By default the
experiments run at the laptop-friendly ``default`` scale (2 runs x 40 cycles
on 100 nodes) over a reduced sweep; set ``REPRO_SCALE=paper`` and
``REPRO_FULL_SWEEP=1`` to reproduce the full evaluation (9 runs x 100-800
cycles, all 15 selectivity settings) at the cost of a much longer run time.
Unknown ``REPRO_SCALE`` values abort the session with the list of presets.

Each benchmark prints the regenerated rows so the output can be compared
side-by-side with the corresponding figure; EXPERIMENTS.md records the
expected qualitative shape.

Smoke-scale expectations
------------------------
``REPRO_SCALE=smoke`` (10 cycles, 60 nodes, 1 run) must keep the whole suite
green, but its runs are too short to amortize the in-network strategies'
one-off initiation traffic (exploration + join-node placement), which at 10
cycles exceeds their entire per-cycle savings.  The figure-shape asserts that
compare strategies therefore go through :func:`shape_metric`: at smoke scale
they check the paper's ordering on *computation* traffic (the steady-state
quantity the figures' claims are about), and from ``default`` scale upward
they check the strict total-traffic ordering exactly as published.
"""

import os

import pytest

from repro.experiments import format_table
from repro.engine import scale_from_env
from repro.workloads.selectivity import JOIN_SELECTIVITIES, RATIO_LADDER


def full_sweep_enabled() -> bool:
    return os.environ.get("REPRO_FULL_SWEEP", "0") not in ("0", "", "false")


def shape_metric(scale, total_metric: str, computation_metric: str) -> str:
    """Which row column a figure-shape assert should compare at this scale.

    Smoke runs (10 cycles) have not amortized initiation traffic, so the
    paper's strategy ordering -- a steady-state claim -- is asserted on the
    computation-traffic column there; every larger scale asserts the strict
    published total-traffic ordering.
    """
    return computation_metric if scale.name == "smoke" else total_metric


@pytest.fixture(scope="session")
def repro_scale():
    """The experiment scale used by every benchmark in this session."""
    return scale_from_env("default")


@pytest.fixture(scope="session")
def sweep_ratios():
    """Selectivity ratios benchmarked by default (all five with REPRO_FULL_SWEEP)."""
    if full_sweep_enabled():
        return [label for label, _ in RATIO_LADDER]
    return ["1/10:1", "1/2:1/2", "1:1/10"]


@pytest.fixture(scope="session")
def sweep_join_selectivities():
    if full_sweep_enabled():
        return list(JOIN_SELECTIVITIES)
    return [0.20, 0.05]


@pytest.fixture
def show(capsys):
    """Print a figure's regenerated rows without pytest swallowing them."""

    def _show(title, rows, columns=None):
        with capsys.disabled():
            print()
            print(format_table(rows, columns=columns, title=title))
            print()

    return _show


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
