"""Link/radio model: symmetric lossy links with bounded retransmission.

TOSSIM models radio errors and retransmissions (Section 4); we reproduce the
traffic-relevant part: every transmission attempt (including failed ones and
retransmissions) is charged to the transmitting node, and a hop whose retries
are exhausted drops the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class LinkModel:
    """Per-hop delivery model.

    Parameters
    ----------
    loss_probability:
        Probability that a single transmission attempt fails.
    max_retransmissions:
        Number of additional attempts after the first failure before the hop
        gives up and drops the message.
    seed:
        Seed for the internal random generator (deterministic experiments).
    """

    loss_probability: float = 0.0
    max_retransmissions: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def attempt_hop(self) -> tuple:
        """Simulate one hop.

        Returns
        -------
        (delivered, attempts):
            ``delivered`` is whether the hop eventually succeeded and
            ``attempts`` how many transmissions were made (each is charged).
        """
        if self.loss_probability == 0.0:
            return True, 1
        attempts = 0
        for _ in range(self.max_retransmissions + 1):
            attempts += 1
            if self._rng.random() >= self.loss_probability:
                return True, attempts
        return False, attempts

    def attempt_hops(self, count: int) -> tuple:
        """Vectorized :meth:`attempt_hop` for *count* consecutive hops.

        Returns ``(delivered, attempts)`` as numpy arrays of length *count*.
        Each hop draws one truncated-geometric sample: ``attempts`` is the
        number of transmissions made (capped at ``max_retransmissions + 1``)
        and ``delivered`` whether the hop succeeded within the cap.  The
        distribution is exactly the one :meth:`attempt_hop` realizes with
        per-attempt draws; only the underlying RNG stream differs, so lossy
        runs are statistically equivalent and still deterministic per seed.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.loss_probability == 0.0:
            return (
                np.ones(count, dtype=bool),
                np.ones(count, dtype=np.int64),
            )
        limit = self.max_retransmissions + 1
        trials = self._rng.geometric(1.0 - self.loss_probability, size=count)
        return trials <= limit, np.minimum(trials, limit)

    def attempt_hops_batch(self, path_lengths) -> tuple:
        """Batched :meth:`attempt_hops` for many consecutive paths.

        *path_lengths* is a sequence of per-path hop counts; the return value
        is ``(delivered, attempts)`` as flat arrays of ``sum(path_lengths)``
        hops, path after path.  The draws are **bit-identical** to calling
        ``attempt_hops(n)`` once per path in order: numpy generates geometric
        variates sequentially regardless of the requested size, so one
        ``sum``-sized draw consumes the generator stream exactly like the
        equivalent sequence of smaller draws (the batch-kernel parity tests
        rely on this to keep lossy runs bit-identical to the per-tuple
        reference path).
        """
        lengths = np.asarray(path_lengths, dtype=np.int64)
        if lengths.size and int(lengths.min()) < 0:
            raise ValueError("path lengths must be non-negative")
        total = int(lengths.sum())
        if self.loss_probability == 0.0:
            return (
                np.ones(total, dtype=bool),
                np.ones(total, dtype=np.int64),
            )
        limit = self.max_retransmissions + 1
        trials = self._rng.geometric(1.0 - self.loss_probability, size=total)
        return trials <= limit, np.minimum(trials, limit)

    def expected_attempts(self) -> float:
        """Expected transmissions per successful hop (for analytic checks)."""
        if self.loss_probability == 0.0:
            return 1.0
        p_success = 1.0 - self.loss_probability
        # Truncated geometric expectation over max_retransmissions + 1 tries.
        total_attempts = 0.0
        prob_reaching = 1.0
        for attempt in range(1, self.max_retransmissions + 2):
            total_attempts += prob_reaching * p_success * attempt
            prob_reaching *= self.loss_probability
        total_attempts += prob_reaching * (self.max_retransmissions + 1)
        return total_attempts


def perfect_links() -> LinkModel:
    """A loss-free link model (used for analytic cost-model validation)."""
    return LinkModel(loss_probability=0.0)


def lossy_links(loss_probability: float, seed: int = 0,
                max_retransmissions: Optional[int] = None) -> LinkModel:
    """Convenience constructor for a lossy link model."""
    if max_retransmissions is None:
        max_retransmissions = 3
    return LinkModel(
        loss_probability=loss_probability,
        max_retransmissions=max_retransmissions,
        seed=seed,
    )
