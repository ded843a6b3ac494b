"""Per-hop reference rule for ``NetworkSimulator.transfer`` (test oracle).

Production charges a path whose nodes are all alive in one vectorized
``charge_path`` call.  This module keeps the plain rule that call stands
for -- each hop checked and charged in turn, with one ``attempt_hop`` draw
per hop -- so parity tests can hold the vectorized charge to it.

Nothing under ``src/`` imports this module, and no switch selects it.
"""

from repro.network.message import MessageKind


def per_hop_transfer(simulator, path, size_bytes: int,
                     kind: MessageKind = MessageKind.DATA) -> bool:
    """Charge *path* hop by hop on *simulator*; ``True`` if delivered."""
    if len(path) < 1:
        raise ValueError("path must contain at least one node")
    nodes = simulator.topology.nodes
    pipeline = simulator.pipeline
    for index in range(len(path) - 1):
        sender, receiver = path[index], path[index + 1]
        if not nodes[sender].alive or not nodes[receiver].alive:
            pipeline.charge_drop()
            return False
        delivered, attempts = simulator.links.attempt_hop()
        pipeline.charge_transmission(sender, size_bytes, kind,
                                     attempts=attempts, receiver=receiver)
        if not delivered:
            pipeline.charge_drop()
            return False
    return True
