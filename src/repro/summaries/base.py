"""Protocol shared by all summary structures."""

from __future__ import annotations

from abc import ABC, abstractmethod


class Summary(ABC):
    """A probabilistic summary of a set of attribute values.

    A summary answers containment queries with *no false negatives*: if its
    probe (``might_contain`` for a Bloom filter, ``intersects_radius`` for a
    rectangle) returns ``False`` the value is definitely absent from the
    summarized set, so a routing search can prune the corresponding subtree.
    False positives merely cost extra exploration messages.
    """

    @abstractmethod
    def size_bytes(self) -> int:
        """Encoded size, used to account routing-table maintenance traffic."""
