"""Bloom filter summaries for categorical static attributes.

The paper builds Bloom filters over ``x``, ``y``, ``cid``, ``rid`` and ``id``
(Section 4.1) and stores them in the routing tables of every tree so that a
join-key search descends only into subtrees that might hold a matching value.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.summaries.base import Summary

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes, seed: int) -> int:
    """64-bit FNV-1a hash with a seed mixed into the offset basis."""
    value = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _to_bytes(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, bool):
        return b"\x01" if value else b"\x00"
    if isinstance(value, int):
        return value.to_bytes(8, "little", signed=True)
    if isinstance(value, float):
        return repr(value).encode("utf-8")
    return str(value).encode("utf-8")


#: (type, value, num_bits, num_hashes) -> OR-mask of the value's bit
#: positions.  Masks are pure functions of their key, so the cache is shared
#: by every filter with the same geometry; the type is part of the key
#: because equal-comparing values of different types (1, 1.0, True) hash to
#: different byte strings.
_MASK_CACHE: dict = {}


def _mask_for(value: Any, num_bits: int, num_hashes: int) -> int:
    try:
        key = (value.__class__, value, num_bits, num_hashes)
        mask = _MASK_CACHE.get(key)
    except TypeError:  # unhashable value: compute without caching
        key = None
        mask = None
    if mask is None and key is not None and len(_MASK_CACHE) > 65536:
        _MASK_CACHE.clear()  # bound memory on high-cardinality value streams
    if mask is None:
        data = _to_bytes(value)
        h1 = _fnv1a(data, 1)
        h2 = _fnv1a(data, 2) | 1  # ensure odd so double hashing cycles all bits
        mask = 0
        for i in range(num_hashes):
            mask |= 1 << ((h1 + i * h2) % num_bits)
        if key is not None:
            _MASK_CACHE[key] = mask
    return mask


class BloomFilterSummary(Summary):
    """A standard Bloom filter with ``k`` hash functions over ``m`` bits.

    Parameters
    ----------
    num_bits:
        Size of the bit array.  Mote routing tables are tiny, the paper's
        default configuration fits in a handful of bytes per attribute.
    num_hashes:
        Number of hash functions.  If omitted it is derived from
        ``expected_items`` using the textbook optimum ``k = m/n * ln 2``.
    expected_items:
        Number of distinct values the filter is expected to hold; only used
        to derive ``num_hashes`` when that is not given explicitly.
    """

    def __init__(
        self,
        num_bits: int = 64,
        num_hashes: Optional[int] = None,
        expected_items: int = 16,
    ) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if num_hashes is None:
            num_hashes = max(1, round(num_bits / expected_items * math.log(2)))
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0
        self._count = 0

    def might_contain(self, value: Any) -> bool:
        # One AND against the value's precomputed (memoized) bit mask.
        mask = _mask_for(value, self.num_bits, self.num_hashes)
        return self._bits & mask == mask

    def size_bytes(self) -> int:
        return (self.num_bits + 7) // 8

    def __contains__(self, value: Any) -> bool:
        return self.might_contain(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilterSummary(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"fill={bin(self._bits).count('1') / self.num_bits:.2f})"
        )
