"""Tests for the link model."""

import numpy as np
import pytest

from repro.network import LinkModel
from repro.network.links import lossy_links, perfect_links
from tests.network.transport_oracle import expected_attempts


class TestLinkModel:
    def test_perfect_links_always_deliver(self):
        links = perfect_links()
        for _ in range(100):
            delivered, attempts = links.attempt_hop()
            assert delivered
            assert attempts == 1
        assert expected_attempts(links) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(loss_probability=1.0)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=-0.1)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=0.1, max_retransmissions=-1)

    def test_lossy_links_retry_and_charge(self):
        links = lossy_links(0.5, seed=42)
        outcomes = [links.attempt_hop() for _ in range(2000)]
        total_attempts = sum(a for _, a in outcomes)
        successes = sum(1 for ok, _ in outcomes if ok)
        # With 3 retransmissions at 50% loss, ~93.75% of hops succeed.
        assert successes / len(outcomes) == pytest.approx(0.9375, abs=0.03)
        assert total_attempts > len(outcomes)

    def test_expected_attempts_matches_simulation(self):
        links = lossy_links(0.3, seed=7)
        outcomes = [links.attempt_hop() for _ in range(5000)]
        simulated = sum(a for _, a in outcomes) / len(outcomes)
        assert simulated == pytest.approx(expected_attempts(links), rel=0.05)

    def test_zero_retransmissions(self):
        links = LinkModel(loss_probability=0.5, max_retransmissions=0, seed=1)
        delivered, attempts = links.attempt_hop()
        assert attempts == 1
        assert expected_attempts(links) == pytest.approx(1.0)


class TestAttemptHopsBatch:
    """The batched multi-path draw behind the batch-cycle kernel."""

    def test_exact_stream_equivalence_to_looped_attempt_hops(self):
        """One batched draw consumes the seeded stream exactly like the
        per-path ``attempt_hops`` calls it replaces -- the bit-identity
        guarantee the batch kernel rests on."""
        lengths = [3, 1, 7, 2, 5, 4, 1, 6]
        for loss, seed in [(0.2, 0), (0.5, 11), (0.05, 42)]:
            looped = lossy_links(loss, seed=seed)
            loop_delivered = []
            loop_attempts = []
            for length in lengths:
                delivered, attempts = looped.attempt_hops(length)
                loop_delivered.append(delivered)
                loop_attempts.append(attempts)
            batched = lossy_links(loss, seed=seed)
            b_delivered, b_attempts = batched.attempt_hops_batch(lengths)
            assert np.array_equal(np.concatenate(loop_delivered), b_delivered)
            assert np.array_equal(np.concatenate(loop_attempts), b_attempts)
            # and the two generators are left in the same state
            assert looped.attempt_hop() == batched.attempt_hop()

    def test_distribution_matches_analytic_mean(self):
        loss = 0.3
        links = lossy_links(loss, seed=5)
        delivered, attempts = links.attempt_hops_batch([1000] * 100)
        limit = links.max_retransmissions + 1
        assert delivered.mean() == pytest.approx(
            1.0 - loss ** limit, abs=0.01
        )
        assert attempts.mean() == pytest.approx(
            expected_attempts(links), rel=0.02
        )
        assert int(attempts.max()) <= limit
        # every failed hop burned the full retransmission budget
        assert (attempts[~delivered] == limit).all()

    def test_perfect_links_draw_nothing(self):
        links = perfect_links()
        delivered, attempts = links.attempt_hops_batch([2, 0, 3])
        assert delivered.all() and delivered.size == 5
        assert (attempts == 1).all()

    def test_zero_length_segments_consume_no_randomness(self):
        first = lossy_links(0.4, seed=9)
        with_zeros = first.attempt_hops_batch([0, 3, 0, 2, 0])
        second = lossy_links(0.4, seed=9)
        without_zeros = second.attempt_hops_batch([3, 2])
        assert np.array_equal(with_zeros[0], without_zeros[0])
        assert np.array_equal(with_zeros[1], without_zeros[1])
        assert first.attempt_hop() == second.attempt_hop()

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValueError):
            lossy_links(0.2, seed=0).attempt_hops_batch([2, -1])
