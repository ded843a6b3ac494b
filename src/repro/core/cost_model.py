"""The join cost model (Section 3.1, Appendix D / Table 3).

Costs are expressed in expected tuple transmissions per sampling cycle
(hops x tuples); multiplying by the tuple size in bytes and the number of
sampling cycles yields the traffic the simulator measures.  Notation follows
the paper:

* ``sigma_s`` / ``sigma_t`` -- probability that an ``s`` / ``t`` producer
  sends a value in a given sampling cycle (its production rate).
* ``sigma_st`` -- probability that a pair of values sent by an (s, t) pair
  joins.
* ``w`` -- the query's window size.
* ``D_ab`` -- hops between nodes ``a`` and ``b``; ``r`` is the base station.
* ``phi_s_t`` (``phi_{s->t}``) -- fraction of s nodes surviving static
  selection *and* pre-filtering against static join clauses (Base algorithm).
* ``c_s`` / ``c_t`` -- number of S / T nodes sharing one join key (grouped
  strategies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Selectivities:
    """The three selectivity parameters of the cost model."""

    sigma_s: float
    sigma_t: float
    sigma_st: float

    def __post_init__(self) -> None:
        for name, value in (
            ("sigma_s", self.sigma_s),
            ("sigma_t", self.sigma_t),
            ("sigma_st", self.sigma_st),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class AlgorithmCosts:
    """Initiation, per-cycle computation and storage cost of one algorithm."""

    initiation: float
    computation_per_cycle: float
    storage_tuples: float

    def total(self, cycles: int) -> float:
        """Expected total transmissions for a run of *cycles* sampling cycles."""
        return self.initiation + cycles * self.computation_per_cycle


# ---------------------------------------------------------------------------
# Pairwise expressions (Section 3.1)
# ---------------------------------------------------------------------------

def innet_pair_cost(
    selectivities: Selectivities,
    w: int,
    d_sj: float,
    d_tj: float,
    d_jr: float,
) -> float:
    """Expected per-cycle cost of a pairwise join computed at node ``j``.

    ``sigma_s * D_sj + sigma_t * D_tj + (sigma_s + sigma_t) * w * sigma_st * D_jr``
    """
    s = selectivities
    return (
        s.sigma_s * d_sj
        + s.sigma_t * d_tj
        + (s.sigma_s + s.sigma_t) * w * s.sigma_st * d_jr
    )


def pair_at_base_cost(selectivities: Selectivities, d_sr: float, d_tr: float) -> float:
    """Per-cycle cost of computing one pair's join at the base station."""
    return selectivities.sigma_s * d_sr + selectivities.sigma_t * d_tr


def through_base_pair_cost(
    selectivities: Selectivities, w: int, d_sr: float, d_tr: float
) -> float:
    """Per-cycle cost of the through-the-base strategy for one (s, t) pair.

    ``sigma_s * D_sr + (sigma_s + (sigma_s + sigma_t) * w * sigma_st) * D_tr``
    """
    s = selectivities
    return s.sigma_s * d_sr + (
        s.sigma_s + (s.sigma_s + s.sigma_t) * w * s.sigma_st
    ) * d_tr


# ---------------------------------------------------------------------------
# Whole-relation expressions (Table 3)
# ---------------------------------------------------------------------------

def naive_cost(
    selectivities: Selectivities,
    source_base_hops: Sequence[float],
    target_base_hops: Sequence[float],
    w: int,
) -> AlgorithmCosts:
    """Naive: every satisfying tuple is shipped to the base station."""
    s = selectivities
    computation = s.sigma_s * sum(source_base_hops) + s.sigma_t * sum(target_base_hops)
    storage = w * (s.sigma_s * len(source_base_hops) + s.sigma_t * len(target_base_hops))
    return AlgorithmCosts(initiation=0.0, computation_per_cycle=computation,
                          storage_tuples=storage)


def grouped_base_cost(
    selectivities: Selectivities,
    source_base_hops: Sequence[float],
    target_base_hops: Sequence[float],
    w: int,
    phi_s_t: float = 1.0,
    phi_t_s: float = 1.0,
) -> AlgorithmCosts:
    """Base: like Naive but nodes that cannot join anything are pre-filtered.

    ``phi_s_t`` is the fraction of s producers surviving static selection and
    pre-filter conditions (``phi_{s->t}`` in Table 3), similarly ``phi_t_s``.
    The pre-filtering information is gathered during an initiation round trip,
    hence the ``2 * (...)`` initiation term.
    """
    s = selectivities
    initiation = 2.0 * (
        s.sigma_s * sum(source_base_hops) + s.sigma_t * sum(target_base_hops)
    )
    computation = (
        s.sigma_s * phi_s_t * sum(source_base_hops)
        + s.sigma_t * phi_t_s * sum(target_base_hops)
    )
    storage = w * (
        s.sigma_s * phi_s_t * len(source_base_hops)
        + s.sigma_t * phi_t_s * len(target_base_hops)
    )
    return AlgorithmCosts(initiation=initiation, computation_per_cycle=computation,
                          storage_tuples=storage)


def through_base_cost(
    selectivities: Selectivities,
    source_base_hops: Sequence[float],
    target_base_hops: Sequence[float],
    w: int,
    num_source: Optional[int] = None,
    num_target: Optional[int] = None,
) -> AlgorithmCosts:
    """Yang+07: S data goes through the root and down to the T nodes.

    ``sigma_s * sum_s D_sr + (sigma_s |S| / |T| + (sigma_s + sigma_t) w sigma_st) * sum_t D_tr``
    """
    s = selectivities
    n_s = num_source if num_source is not None else len(source_base_hops)
    n_t = num_target if num_target is not None else len(target_base_hops)
    if n_t == 0:
        return AlgorithmCosts(0.0, s.sigma_s * sum(source_base_hops), float(n_s))
    computation = s.sigma_s * sum(source_base_hops) + (
        s.sigma_s * n_s / n_t + (s.sigma_s + s.sigma_t) * w * s.sigma_st
    ) * sum(target_base_hops)
    return AlgorithmCosts(initiation=0.0, computation_per_cycle=computation,
                          storage_tuples=float(n_s))


def ght_cost(
    selectivities: Selectivities,
    source_join_hops: Sequence[float],
    target_join_hops: Sequence[float],
    join_base_hops: Sequence[float],
    w: int,
    c_s: float = 1.0,
    c_t: float = 1.0,
) -> AlgorithmCosts:
    """GHT grouped join at the key's home node(s).

    ``source_join_hops`` / ``target_join_hops`` hold each producer's distance
    to its key's home node; ``join_base_hops`` the home nodes' distances to
    the base.  ``c_s`` / ``c_t`` are the average numbers of S / T nodes
    sharing a key.
    """
    s = selectivities
    to_join = s.sigma_s * sum(source_join_hops) + s.sigma_t * sum(target_join_hops)
    results = (s.sigma_s + s.sigma_t) * c_s * c_t * w * s.sigma_st * sum(join_base_hops)
    initiation = to_join  # ">=" in Table 3: at least one round of key routing
    storage = c_s * c_t * w * max(1.0, float(len(join_base_hops)))
    return AlgorithmCosts(initiation=initiation,
                          computation_per_cycle=to_join + results,
                          storage_tuples=storage)


def innet_cost(
    selectivities: Selectivities,
    source_join_hops: Sequence[float],
    target_join_hops: Sequence[float],
    join_base_hops: Sequence[float],
    w: int,
    pair_discovery_hops: Optional[Sequence[float]] = None,
    c_s: float = 1.0,
    c_t: float = 1.0,
) -> AlgorithmCosts:
    """In-Net pairwise join with join nodes placed along s->t paths."""
    s = selectivities
    to_join = s.sigma_s * sum(source_join_hops) + s.sigma_t * sum(target_join_hops)
    results = (s.sigma_s + s.sigma_t) * c_s * c_t * w * s.sigma_st * sum(join_base_hops)
    initiation = float(sum(pair_discovery_hops)) if pair_discovery_hops else 0.0
    storage = c_s * c_t * w * max(1.0, float(len(join_base_hops)))
    return AlgorithmCosts(initiation=initiation,
                          computation_per_cycle=to_join + results,
                          storage_tuples=storage)


# ---------------------------------------------------------------------------
# helpers used by the optimizer and benches
# ---------------------------------------------------------------------------

def best_join_point_index(
    selectivities: Selectivities,
    w: int,
    path_hops_to_base: Sequence[float],
) -> int:
    """Index on an s->t path minimizing the pairwise cost expression.

    ``path_hops_to_base[i]`` is node ``i``'s hop distance to the base
    station; index 0 is ``s`` and the last index is ``t``.
    """
    if not path_hops_to_base:
        raise ValueError("path must contain at least one node")
    length = len(path_hops_to_base)
    best_index = 0
    best_cost = float("inf")
    for index, d_jr in enumerate(path_hops_to_base):
        cost = innet_pair_cost(
            selectivities, w, d_sj=index, d_tj=length - 1 - index, d_jr=d_jr
        )
        if cost < best_cost:
            best_cost = cost
            best_index = index
    return best_index


def relative_error(estimate: float, actual: float) -> float:
    """Relative divergence used by the adaptive re-optimization trigger."""
    if actual == 0.0:
        return 0.0 if estimate == 0.0 else float("inf")
    return abs(estimate - actual) / abs(actual)
