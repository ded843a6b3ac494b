"""Static attribute assignment (Table 1).

* ``id``  -- unique identifier (the node id).
* ``x``   -- values in [7, 60] with an exponential *spatial* distribution:
  nodes near the centre of the deployment get higher values.
* ``y``   -- uniform random values in [0, 10).
* ``cid`` / ``rid`` -- column and row number of the node's cell in a 4x4 grid
  laid over the deployment area.
* ``pos`` -- the node's real position (already present on every node).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.network.topology import Topology

X_RANGE: Tuple[int, int] = (7, 60)
Y_RANGE: Tuple[int, int] = (0, 10)
GRID_CELLS = 4


def _deployment_bounds(topology: Topology) -> Tuple[float, float, float, float]:
    xs = [node.position[0] for node in topology.nodes.values()]
    ys = [node.position[1] for node in topology.nodes.values()]
    return min(xs), min(ys), max(xs), max(ys)


def assign_table1_attributes(topology: Topology, seed: int = 0) -> None:
    """Populate every node's static attributes in place."""
    rng = np.random.default_rng(seed)
    xmin, ymin, xmax, ymax = _deployment_bounds(topology)
    width = max(xmax - xmin, 1e-9)
    height = max(ymax - ymin, 1e-9)
    centre = (xmin + width / 2.0, ymin + height / 2.0)
    max_distance = math.hypot(width / 2.0, height / 2.0) or 1.0

    x_lo, x_hi = X_RANGE
    y_lo, y_hi = Y_RANGE
    for node_id in topology.node_ids:
        node = topology.nodes[node_id]
        px, py = node.position
        # x: exponential decay of the value with distance from the centre, so
        # central nodes carry the high values (Table 1).
        distance = math.hypot(px - centre[0], py - centre[1]) / max_distance
        x_value = x_lo + (x_hi - x_lo) * math.exp(-3.0 * distance)
        node.set_static("x", int(round(x_value)))
        # y: uniform random in [0, 10).
        node.set_static("y", int(rng.integers(y_lo, y_hi)))
        # cid / rid: 4x4 grid cell indices over the deployment area.
        cid = min(GRID_CELLS - 1, int((px - xmin) / width * GRID_CELLS))
        rid = min(GRID_CELLS - 1, int((py - ymin) / height * GRID_CELLS))
        node.set_static("cid", cid)
        node.set_static("rid", rid)
        # pos is maintained by SensorNode itself; id likewise.
