"""Path-vector utilities and path-quality metrics.

Exploration messages carry path vectors that record visited nodes; when the
target is reached the vector is reversed and used to route the reply and all
subsequent data messages (Section 3).  This module also computes the
path-quality metrics of Appendix C (Figures 16-18): average path length and
the maximum number of paths loaded onto any single node.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


def concatenate_paths(first: Sequence[int], second: Sequence[int]) -> List[int]:
    """Join two paths where ``first`` ends at the node ``second`` starts at."""
    if not first:
        return list(second)
    if not second:
        return list(first)
    if first[-1] != second[0]:
        raise ValueError(
            f"paths do not share an endpoint: {first[-1]} != {second[0]}"
        )
    return list(first) + list(second[1:])


def strip_cycles(path: Sequence[int]) -> List[int]:
    """Remove loops from a path, keeping the first occurrence of each node."""
    seen: Dict[int, int] = {}
    out: List[int] = []
    for node in path:
        index = seen.get(node)
        if index is None:
            seen[node] = len(out)
            out.append(node)
        else:
            # Cut back to the previous occurrence; forget only the cut nodes.
            for dropped in out[index + 1:]:
                del seen[dropped]
            del out[index + 1:]
    return out


@dataclass(frozen=True)
class PathQuality:
    """Aggregate path-quality metrics over a set of source/target pairs."""

    average_path_length: float
    max_node_load: int


def path_load_profile(paths: Iterable[Sequence[int]]) -> Dict[int, int]:
    """Number of paths traversing each node (endpoints included)."""
    load: Dict[int, int] = defaultdict(int)
    for path in paths:
        for node in path:
            load[node] += 1
    return dict(load)


def path_quality_for_pairs(
    paths_by_pair: Dict[Tuple[int, int], Sequence[int]],
) -> PathQuality:
    """Compute Figure 16/17-style metrics from a pair -> path mapping."""
    paths = list(paths_by_pair.values())
    lengths = [len(p) - 1 for p in paths if p]
    average = sum(lengths) / len(lengths) if lengths else 0.0
    load = path_load_profile(p for p in paths if p)
    max_load = max(load.values(), default=0)
    return PathQuality(average_path_length=average, max_node_load=max_load)
