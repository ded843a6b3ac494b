"""Routing substrates for the multi-hop sensor network.

The paper assumes a content-addressable routing substrate (Appendix C) and
evaluates four concrete ones:

* a single routing tree built with the standard TinyDB construction
  (:mod:`repro.routing.tree`),
* the multi-tree substrate of Mihaylov et al. [11] that indexes static
  attributes in semantic routing tables and supports point-to-point routing
  between nodes holding matching values (:mod:`repro.routing.multitree`,
  :mod:`repro.routing.semantic`),
* geographic hashing over GPSR for mote networks
  (:mod:`repro.routing.ght`), and
* a distributed hash table for 802.11 mesh networks
  (:mod:`repro.routing.dht`).

:mod:`repro.routing.paths` holds shared path-vector utilities and the
path-quality metrics reported in Figures 16-18.
"""

from repro.routing.dht import DHTSubstrate
from repro.routing.ght import GHTSubstrate
from repro.routing.multitree import MultiTreeSubstrate, PairPath
from repro.routing.paths import (
    PathQuality,
    concatenate_paths,
    path_load_profile,
    path_quality_for_pairs,
)
from repro.routing.semantic import SemanticRoutingTable
from repro.routing.tree import RoutingTree

__all__ = [
    "RoutingTree",
    "SemanticRoutingTable",
    "MultiTreeSubstrate",
    "PairPath",
    "GHTSubstrate",
    "DHTSubstrate",
    "PathQuality",
    "concatenate_paths",
    "path_load_profile",
    "path_quality_for_pairs",
]
