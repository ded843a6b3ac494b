"""The paper's primary contribution: dynamic join optimization.

* :mod:`repro.core.cost_model` -- the detailed cost model of Appendix D
  (Table 3) plus the pairwise placement cost expression of Section 3.1.
* :mod:`repro.core.placement` -- cost-based placement of a join node along a
  discovered path, for every pair of a query at once (its pair table), and
  the nomination protocol of Section 3.2.
* :mod:`repro.core.group_opt` -- multi-join-pair optimization (GROUPOPT,
  Algorithm 1): per-group choice between pairwise in-network joins and a
  grouped join at the base station (Section 5.2).
* :mod:`repro.core.adaptive` -- selectivity learning at join nodes and the
  re-optimization trigger (Section 6).
* :mod:`repro.core.centralized` -- the centralized optimization baseline used
  in Section 4.3, and exhaustive optimal placement used in Figure 7.
* :mod:`repro.core.optimizer` -- the decentralized pairwise optimizer tying
  exploration results, the cost model and algorithm selection together.
"""

from repro.core.adaptive import AdaptivePolicy, PairObservation, SelectivityEstimate
from repro.core.centralized import (
    CentralizedOptimizer,
    centralized_initiation,
    optimal_pair_placements,
)
from repro.core.cost_model import (
    AlgorithmCosts,
    Selectivities,
    grouped_base_cost,
    innet_pair_cost,
    naive_cost,
    pair_at_base_cost,
    through_base_cost,
    ght_cost,
)
from repro.core.group_opt import Group, GroupDecision, GroupOptimizer, build_groups
from repro.core.optimizer import JoinPlan, PairwiseOptimizer
from repro.core.placement import CandidateRoutes, PairTable, PlacementDecision

__all__ = [
    "Selectivities",
    "AlgorithmCosts",
    "innet_pair_cost",
    "pair_at_base_cost",
    "through_base_cost",
    "naive_cost",
    "grouped_base_cost",
    "ght_cost",
    "PlacementDecision",
    "CandidateRoutes",
    "PairTable",
    "Group",
    "GroupDecision",
    "GroupOptimizer",
    "build_groups",
    "SelectivityEstimate",
    "PairObservation",
    "AdaptivePolicy",
    "CentralizedOptimizer",
    "centralized_initiation",
    "optimal_pair_placements",
    "PairwiseOptimizer",
    "JoinPlan",
]
