"""Adaptive selectivity learning and re-optimization triggering (Section 6).

A join node tracks, for every (s, t) pair it handles, the number of tuples
``N_s`` and ``N_t`` received from each producer and the number of join
results ``N_st`` produced.  Periodically it re-estimates

* ``sigma_st = N_st / (w * (N_s + N_t))`` and
* ``sigma_p  = N_p / T`` (``T`` = sampling cycles observed),

and triggers a new join-node placement when the estimates diverge from the
previous values by more than a threshold (the paper found 33 % to be a good
compromise).  Counters are periodically reset so learning tracks a local time
span and can follow temporal drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cost_model import Selectivities, relative_error

#: Default observation-cycle cap for open-ended (service-mode) runs.  The
#: policy's ``reset_interval`` normally clears counters long before this, but
#: a long-lived pair whose policy never fires (or a service run with resets
#: disabled) must not grow its counters without bound.  Far above any batch
#: figure's cycle count, so fixed-cycle runs never roll over.
DEFAULT_OBSERVATION_CAP = 1_000_000


@dataclass
class SelectivityEstimate:
    """A selectivity estimate plus how much evidence backs it."""

    selectivities: Selectivities
    observed_cycles: int
    source_tuples: int
    target_tuples: int
    results: int

    def is_confident(self, min_cycles: int) -> bool:
        return self.observed_cycles >= min_cycles


@dataclass
class PairObservation:
    """Counters a join node keeps for one (s, t) pair.

    ``observation_cap`` bounds the observed-cycle count: once ``cycles``
    reaches the cap all counters are halved (exponential rollover), so the
    estimated rates are preserved while an open-ended service run keeps
    every counter in a fixed integer range.  Rollovers are counted in
    ``rollovers``.
    """

    window_size: int
    n_source: int = 0
    n_target: int = 0
    n_results: int = 0
    cycles: int = 0
    observation_cap: int = DEFAULT_OBSERVATION_CAP
    rollovers: int = 0

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be at least 1")
        if self.observation_cap < 2:
            raise ValueError("observation_cap must be at least 2")

    # -- recording -----------------------------------------------------------
    def record_cycle(self, count: int = 1) -> None:
        """Count *count* observed cycles.  A caller counting several at once
        stops them where the cap is reached (the rollover halves what the
        cycles up to it recorded)."""
        self.cycles += count
        if self.cycles >= self.observation_cap:
            self._rollover()

    def _rollover(self) -> None:
        """Halve every counter, preserving the estimated rates."""
        self.n_source //= 2
        self.n_target //= 2
        self.n_results //= 2
        self.cycles //= 2
        self.rollovers += 1

    def record_source_tuple(self, count: int = 1) -> None:
        self.n_source += count

    def record_target_tuple(self, count: int = 1) -> None:
        self.n_target += count

    def record_results(self, count: int) -> None:
        self.n_results += count

    def reset(self) -> None:
        """Forget history so estimates track a local time span."""
        self.n_source = 0
        self.n_target = 0
        self.n_results = 0
        self.cycles = 0

    # -- estimation -----------------------------------------------------------
    def estimate(self) -> Optional[SelectivityEstimate]:
        """Current estimate, or ``None`` if nothing was observed yet."""
        if self.cycles == 0:
            return None
        sigma_s = min(1.0, self.n_source / self.cycles)
        sigma_t = min(1.0, self.n_target / self.cycles)
        received = self.n_source + self.n_target
        if received == 0:
            sigma_st = 0.0
        else:
            sigma_st = min(1.0, self.n_results / (self.window_size * received))
        return SelectivityEstimate(
            selectivities=Selectivities(sigma_s, sigma_t, sigma_st),
            observed_cycles=self.cycles,
            source_tuples=self.n_source,
            target_tuples=self.n_target,
            results=self.n_results,
        )


@dataclass
class AdaptivePolicy:
    """When to re-estimate, re-optimize and reset.

    Parameters
    ----------
    divergence_threshold:
        Trigger re-optimization when any parameter diverges by more than this
        fraction from the value used for the current placement (paper: 33 %).
    check_interval:
        Sampling cycles between estimate checks at a join node.
    reset_interval:
        Sampling cycles after which counters are reset to 0 so that learning
        happens within a local time span (enables tracking temporal drift).
    min_cycles:
        Minimum observed cycles before estimates are considered meaningful.
    """

    divergence_threshold: float = 0.33
    check_interval: int = 20
    reset_interval: int = 200
    min_cycles: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.divergence_threshold:
            raise ValueError("divergence_threshold must be positive")
        if self.check_interval < 1 or self.reset_interval < 1 or self.min_cycles < 1:
            raise ValueError("intervals must be at least 1")

    def is_check_cycle(self, cycle: int) -> bool:
        return cycle > 0 and cycle % self.check_interval == 0

    def is_reset_cycle(self, cycle: int) -> bool:
        return cycle > 0 and cycle % self.reset_interval == 0

    def should_reoptimize(
        self,
        current: Selectivities,
        estimate: SelectivityEstimate,
    ) -> bool:
        """True if the fresh estimate diverges enough from the current one.

        Divergence must exceed the 33 % threshold *and* be larger than the
        estimate's own sampling noise (two standard errors of a Bernoulli /
        Poisson count), so a handful of unlucky cycles does not bounce the
        join node back and forth.
        """
        if not estimate.is_confident(self.min_cycles):
            return False
        fresh = estimate.selectivities
        cycles = max(1, estimate.observed_cycles)
        received = max(1, estimate.source_tuples + estimate.target_tuples)

        def noise(assumed: float, measured: float, samples: int) -> float:
            # Binomial standard error at the larger of the two rates (clamped
            # away from 0/1 so a run of zeros is not treated as certainty).
            rate = max(assumed, measured)
            rate = min(max(rate, 1.0 / samples), 1.0 - 1.0 / (samples + 1))
            return 2.0 * (rate * (1.0 - rate) / samples) ** 0.5

        checks = (
            (current.sigma_s, fresh.sigma_s, cycles),
            (current.sigma_t, fresh.sigma_t, cycles),
            (current.sigma_st, fresh.sigma_st, received),
        )
        for assumed, measured, samples in checks:
            if relative_error(assumed, measured) <= self.divergence_threshold:
                continue
            if abs(assumed - measured) > noise(assumed, measured, samples):
                return True
        return False


@dataclass
class LearningState:
    """Bookkeeping for one pair: current model and accumulated observation."""

    current: Selectivities
    observation: PairObservation = field(init=False)
    window_size: int = 1
    reoptimizations: int = 0
    observation_cap: int = DEFAULT_OBSERVATION_CAP

    def __post_init__(self) -> None:
        self.observation = PairObservation(
            window_size=self.window_size, observation_cap=self.observation_cap
        )

    def maybe_update(self, policy: AdaptivePolicy, cycle: int) -> Optional[Selectivities]:
        """Check/reset per the policy; returns new selectivities if triggered."""
        updated: Optional[Selectivities] = None
        if policy.is_check_cycle(cycle):
            estimate = self.observation.estimate()
            if estimate is not None and policy.should_reoptimize(self.current, estimate):
                self.current = estimate.selectivities
                self.reoptimizations += 1
                updated = self.current
                # Start gathering fresh evidence against the new model so a
                # single noisy window cannot bounce the join node back.
                self.observation.reset()
        if policy.is_reset_cycle(cycle):
            self.observation.reset()
        return updated
