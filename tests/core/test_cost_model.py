"""Tests for the Appendix D / Table 3 cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Selectivities,
    grouped_base_cost,
    innet_pair_cost,
    naive_cost,
    pair_at_base_cost,
    through_base_cost,
    ght_cost,
)
from repro.core.cost_model import (
    best_join_point_index,
    innet_cost,
    relative_error,
    through_base_pair_cost,
)
from tests.core.placement_oracle import group_cost_difference

sel = st.floats(0.0, 1.0)


class TestSelectivities:
    def test_validation(self):
        with pytest.raises(ValueError):
            Selectivities(1.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            Selectivities(0.5, -0.1, 0.1)


class TestPairwiseExpressions:
    def test_innet_pair_cost_formula(self):
        s = Selectivities(0.5, 0.25, 0.2)
        cost = innet_pair_cost(s, w=3, d_sj=2, d_tj=4, d_jr=5)
        expected = 0.5 * 2 + 0.25 * 4 + (0.5 + 0.25) * 3 * 0.2 * 5
        assert cost == pytest.approx(expected)

    def test_pair_at_base_cost(self):
        s = Selectivities(0.5, 0.25, 0.2)
        assert pair_at_base_cost(s, d_sr=4, d_tr=6) == pytest.approx(0.5 * 4 + 0.25 * 6)

    def test_through_base_pair_cost(self):
        s = Selectivities(0.5, 0.25, 0.2)
        cost = through_base_pair_cost(s, w=1, d_sr=4, d_tr=6)
        expected = 0.5 * 4 + (0.5 + (0.75) * 1 * 0.2) * 6
        assert cost == pytest.approx(expected)

    def test_join_node_sits_near_the_chattier_producer(self):
        """If sigma_t >> sigma_s the join node should sit near t (so t's
        frequent data travels few hops), and vice versa."""
        w = 3
        hops_to_base = [5, 5, 5, 5, 5]  # equal distance to base along the path
        near_t = best_join_point_index(Selectivities(0.1, 1.0, 0.0), w, hops_to_base)
        near_s = best_join_point_index(Selectivities(1.0, 0.1, 0.0), w, hops_to_base)
        assert near_t == len(hops_to_base) - 1
        assert near_s == 0

    def test_join_point_pulled_toward_base_when_join_selectivity_high(self):
        # Path of 5 nodes where the middle node is closest to the base.
        hops_to_base = [4, 3, 1, 3, 4]
        index = best_join_point_index(Selectivities(0.5, 0.5, 1.0), w=3,
                                      path_hops_to_base=hops_to_base)
        assert index == 2

    def test_best_join_point_requires_path(self):
        with pytest.raises(ValueError):
            best_join_point_index(Selectivities(1, 1, 0), 1, [])


class TestTable3:
    S_HOPS = [2.0, 3.0, 4.0]
    T_HOPS = [1.0, 5.0]

    def test_naive(self):
        s = Selectivities(0.5, 1.0, 0.2)
        costs = naive_cost(s, self.S_HOPS, self.T_HOPS, w=3)
        assert costs.initiation == 0.0
        assert costs.computation_per_cycle == pytest.approx(0.5 * 9 + 1.0 * 6)
        assert costs.storage_tuples == pytest.approx(3 * (0.5 * 3 + 1.0 * 2))
        assert costs.total(10) == pytest.approx(10 * costs.computation_per_cycle)

    def test_base_prefilter_reduces_computation(self):
        s = Selectivities(0.5, 1.0, 0.2)
        naive = naive_cost(s, self.S_HOPS, self.T_HOPS, w=3)
        base = grouped_base_cost(s, self.S_HOPS, self.T_HOPS, w=3,
                                 phi_s_t=0.5, phi_t_s=0.5)
        assert base.computation_per_cycle < naive.computation_per_cycle
        assert base.initiation == pytest.approx(2 * naive.computation_per_cycle)
        # For long enough runs Base beats Naive despite the initiation cost.
        assert base.total(100) < naive.total(100)

    def test_through_base(self):
        s = Selectivities(0.5, 0.5, 0.2)
        costs = through_base_cost(s, self.S_HOPS, self.T_HOPS, w=1)
        expected = 0.5 * 9 + (0.5 * 3 / 2 + 1.0 * 1 * 0.2) * 6
        assert costs.computation_per_cycle == pytest.approx(expected)
        assert costs.storage_tuples == 3.0

    def test_through_base_empty_targets(self):
        s = Selectivities(0.5, 0.5, 0.2)
        costs = through_base_cost(s, self.S_HOPS, [], w=1)
        assert costs.computation_per_cycle == pytest.approx(0.5 * 9)

    def test_ght_and_innet_share_computation_shape(self):
        s = Selectivities(0.5, 0.5, 0.1)
        ght = ght_cost(s, [3.0], [4.0], [6.0], w=2)
        inn = innet_cost(s, [1.0], [2.0], [3.0], w=2, pair_discovery_hops=[3.0])
        # Same formula, different distances: shorter paths give lower cost.
        assert inn.computation_per_cycle < ght.computation_per_cycle
        assert inn.initiation == 3.0

    def test_group_cost_difference_sign(self):
        # Join node on the path, base far away: in-network should win
        # (negative delta) when join selectivity is low.
        delta = group_cost_difference(
            sigma_p=1.0, sigma_st=0.0, w=3,
            join_node_distances={7: 1.0},
            pairs_per_join_node={7: 1},
            join_node_base_distances={7: 5.0},
            d_pr=6.0,
        )
        assert delta < 0
        # High join selectivity and many pairs at the join node push the
        # result traffic up and favour the base.
        delta_high = group_cost_difference(
            sigma_p=1.0, sigma_st=1.0, w=3,
            join_node_distances={7: 1.0},
            pairs_per_join_node={7: 4},
            join_node_base_distances={7: 5.0},
            d_pr=6.0,
        )
        assert delta_high > 0

    def test_relative_error(self):
        assert relative_error(0.5, 1.0) == pytest.approx(0.5)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(0.5, 0.0) == float("inf")


class TestProperties:
    @given(sel, sel, sel, st.integers(1, 5), st.integers(0, 10),
           st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=80)
    def test_innet_cost_non_negative_and_monotone_in_distance(
        self, ss, tt, stt, w, d_sj, d_tj, d_jr
    ):
        s = Selectivities(ss, tt, stt)
        cost = innet_pair_cost(s, w, d_sj, d_tj, d_jr)
        assert cost >= 0.0
        assert innet_pair_cost(s, w, d_sj + 1, d_tj, d_jr) >= cost

    @given(sel, sel, sel, st.integers(1, 5),
           st.lists(st.integers(0, 12), min_size=2, max_size=10))
    @settings(max_examples=80)
    def test_best_join_point_is_argmin(self, ss, tt, stt, w, hops):
        s = Selectivities(ss, tt, stt)
        index = best_join_point_index(s, w, hops)
        costs = [
            innet_pair_cost(s, w, i, len(hops) - 1 - i, hops[i])
            for i in range(len(hops))
        ]
        assert costs[index] == pytest.approx(min(costs))
