"""Message kinds and byte-size accounting.

The paper's cost metric is bytes transferred on mote networks and messages on
mesh networks (Appendix F).  Message sizes follow the mote implementation:
16-bit attribute values, a small link-layer/routing header per packet, and
path vectors encoded as delta-compressed node-id lists (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence


class MessageKind(Enum):
    """Role of a message; used for traffic breakdowns."""

    # Enum.__hash__ is a Python-level function; members are singletons, so
    # identity hashing is equivalent and keeps the per-hop traffic
    # accounting (dicts keyed by kind) at C speed.
    __hash__ = object.__hash__

    DATA = "data"                    # producer readings flowing to a join node
    RESULT = "result"                # join results flowing to the base station
    EXPLORE = "explore"              # initiation-time path exploration
    EXPLORE_REPLY = "explore_reply"  # path-vector reply back to the initiator
    NOMINATE = "nominate"            # join-node nomination (Section 3.2)
    CONTROL = "control"              # query dissemination, decisions, repairs
    COST_REPORT = "cost_report"      # GROUPOPT cost differences to coordinator
    DECISION = "decision"            # GROUPOPT decision broadcast
    WINDOW_TRANSFER = "window_xfer"  # adaptive join-node hand-off (Section 6)
    SNOOP_HINT = "snoop_hint"        # path-collapse optimization tuples (App. E)
    TREE_MAINT = "tree_maint"        # routing tree / summary maintenance


#: ``ship(path, size_bytes, kind) -> delivered``: a run's ``ctx.ship`` or a
#: simulator's ``transfer``, handed to protocol code that sends messages.
Ship = Callable[[Sequence[int], int, MessageKind], bool]


@dataclass(frozen=True)
class MessageSizes:
    """Byte-size model for the mote network.

    The defaults approximate a TinyOS active message: an 11-byte header and
    2-byte (16-bit) attribute values.  ``per_path_entry`` is the cost of one
    entry of a delta-encoded path vector.
    """

    header: int = 11
    attribute: int = 2
    per_path_entry: int = 1
    tuple_overhead: int = 2

    def data_tuple(self, num_attributes: int = 1) -> int:
        """Size of one data tuple (reading) carried in a DATA message."""
        return self.header + self.tuple_overhead + num_attributes * self.attribute

    def result_tuple(self, num_attributes: int = 2) -> int:
        """Size of one join-result tuple (attributes from both sides)."""
        return self.header + self.tuple_overhead + num_attributes * self.attribute

    def explore(self, path_len: int, num_summary_bytes: int = 0) -> int:
        """Size of an exploration message carrying a path vector."""
        return self.header + path_len * self.per_path_entry + num_summary_bytes

    def control(self, num_fields: int = 3) -> int:
        return self.header + num_fields * self.attribute
