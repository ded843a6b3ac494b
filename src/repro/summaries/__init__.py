"""Mergeable summary structures used by semantic routing tables.

The multi-tree routing substrate of the paper (Section 2.2, Appendix C)
indexes *static* attributes at every node: each routing-table entry summarizes
the attribute values reachable in the subtree below a child link.  The paper
uses different structures depending on the attribute type:

* :class:`BloomFilterSummary` -- categorical / discrete values (``id``,
  ``cid``, ``rid``, ``x``, ``y``).
* :class:`RectSummary` -- one bounding rectangle (MBR) for positions
  (``pos``), used by region-based queries (Query 3).

All summaries follow the small :class:`Summary` protocol: they answer
"might this subtree contain a matching value?" probes with no false
negatives, and report their encoded size in bytes so routing-table
maintenance traffic can be accounted.  The tables build them as arrays
(:mod:`repro.routing.semantic`): a summary object is the view a probe reads
one row through.
"""

from repro.summaries.base import Summary
from repro.summaries.bloom import BloomFilterSummary
from repro.summaries.rect import Rect, RectSummary

__all__ = [
    "Summary",
    "BloomFilterSummary",
    "RectSummary",
    "Rect",
]
