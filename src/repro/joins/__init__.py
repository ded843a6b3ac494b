"""Join algorithms and the push-based windowed-join execution engine.

The evaluation compares six strategies (Section 2.2, Figure 1):

* :class:`~repro.joins.grouped_base.NaiveJoin` -- ship every satisfying tuple
  to the base station, join there ("Naive").
* :class:`~repro.joins.grouped_base.BaseJoin` -- like Naive, but an initiation
  round pre-filters producers that cannot join anything ("Base").
* :class:`~repro.joins.ght_join.GHTJoin` -- grouped join at each key's
  geographic-hash home node.
* :class:`~repro.joins.through_base.ThroughBaseJoin` -- the Yang+07
  through-the-base strategy.
* :class:`~repro.joins.innet.InnetJoin` -- pairwise in-network join with
  cost-model placement; compositional flags add multicast trees (``cm``),
  group optimization (``g``), path collapsing (``p``) and adaptive
  selectivity learning ("Innet learn").

:class:`~repro.joins.executor.JoinExecutor` runs any strategy over a query,
a topology and a data source for a number of sampling cycles, producing an
:class:`~repro.joins.base.ExecutionReport` with the metrics the paper plots.
"""

from repro.joins.base import (
    DataSource,
    ExecutionContext,
    ExecutionReport,
    JoinStrategy,
    ProducerBatch,
    ProducerSet,
)
from repro.joins.executor import JoinExecutor
from repro.joins.ght_join import GHTJoin
from repro.joins.grouped_base import BaseJoin, NaiveJoin
from repro.joins.innet import InnetJoin, InnetVariant
from repro.joins.multicast import MulticastTree, build_multicast_tree, collapse_paths
from repro.joins.through_base import ThroughBaseJoin

__all__ = [
    "JoinStrategy",
    "ExecutionContext",
    "ExecutionReport",
    "ProducerBatch",
    "ProducerSet",
    "DataSource",
    "JoinExecutor",
    "NaiveJoin",
    "BaseJoin",
    "GHTJoin",
    "ThroughBaseJoin",
    "InnetJoin",
    "InnetVariant",
    "MulticastTree",
    "build_multicast_tree",
    "collapse_paths",
]
