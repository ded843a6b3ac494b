"""Experimental workloads: attributes, queries, data sources and regimes.

This package reproduces the paper's workload (Section 4.1):

* :mod:`repro.workloads.attributes` -- the static attributes of Table 1
  (``x`` exponential-spatial, ``y`` uniform, ``cid``/``rid`` 4x4 grid cells,
  ``pos`` real position).
* :mod:`repro.workloads.queries` -- Queries 0-3 of Table 2, both as
  parser-ready StreamSQL text and as ready-made :class:`JoinQuery` objects.
* :mod:`repro.workloads.datasource` -- deterministic synthetic data sources
  controlling producer rates (sigma_s, sigma_t) and join selectivity
  (sigma_st), including per-node skew (Sel1/Sel2) and temporal drift.
* :mod:`repro.workloads.intel` -- the synthetic Intel-lab humidity trace used
  by Query 3 (see DESIGN.md for the substitution rationale).
* :mod:`repro.workloads.selectivity` -- the selectivity ratio ladder and the
  Sel1/Sel2 regimes used across the evaluation.
"""

from repro.workloads.attributes import assign_table1_attributes
from repro.workloads.datasource import SyntheticDataSource, build_send_probability_map
from repro.workloads.intel import IntelDataSource, intel_query3_workload
from repro.workloads.queries import (
    PAPER_QUERY_SQL,
    build_query0,
    build_query1,
    build_query2,
    build_query3,
)
from repro.workloads.selectivity import (
    JOIN_SELECTIVITIES,
    RATIO_LADDER,
    SEL1,
    SEL2,
    selectivities_for_ratio,
)

__all__ = [
    "assign_table1_attributes",
    "SyntheticDataSource",
    "build_send_probability_map",
    "IntelDataSource",
    "intel_query3_workload",
    "build_query0",
    "build_query1",
    "build_query2",
    "build_query3",
    "PAPER_QUERY_SQL",
    "RATIO_LADDER",
    "JOIN_SELECTIVITIES",
    "SEL1",
    "SEL2",
    "selectivities_for_ratio",
]
