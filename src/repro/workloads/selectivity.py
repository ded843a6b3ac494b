"""Selectivity regimes used across the evaluation.

The evaluation sweeps relative producer selectivity ratios ``sigma_s :
sigma_t`` through five stages (1/10:1, 1/6:1/2, 1/2:1/2, 1/2:1/6, 1:1/10) and
join selectivities ``sigma_st`` of 20 %, 10 % and 5 % (Section 4.2).  The
spatial-skew and temporal-drift experiments of Section 6.1 use two regimes,
Sel1 and Sel2.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.cost_model import Selectivities

#: The five sigma_s : sigma_t stages, in the order the figures plot them.
RATIO_LADDER: List[Tuple[str, Tuple[float, float]]] = [
    ("1/10:1", (0.1, 1.0)),
    ("1/6:1/2", (1.0 / 6.0, 0.5)),
    ("1/2:1/2", (0.5, 0.5)),
    ("1/2:1/6", (0.5, 1.0 / 6.0)),
    ("1:1/10", (1.0, 0.1)),
]

#: The join selectivities swept within each ratio group.
JOIN_SELECTIVITIES: List[float] = [0.20, 0.10, 0.05]

#: The two regimes of Section 6.1 (spatial skew / temporal drift experiments).
SEL1 = Selectivities(sigma_s=0.10, sigma_t=1.00, sigma_st=0.05)
SEL2 = Selectivities(sigma_s=1.00, sigma_t=0.10, sigma_st=0.20)


def selectivities_for_ratio(label: str, sigma_st: float) -> Selectivities:
    """Build a :class:`Selectivities` from a ladder label and sigma_st."""
    for candidate, (sigma_s, sigma_t) in RATIO_LADDER:
        if candidate == label:
            return Selectivities(sigma_s=sigma_s, sigma_t=sigma_t, sigma_st=sigma_st)
    raise KeyError(f"unknown ratio label {label!r}; expected one of "
                   f"{[name for name, _ in RATIO_LADDER]}")
