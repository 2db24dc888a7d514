"""Exact-arithmetic block classification for the Brauer algebra B_n(delta).

Partitions and skew shapes, diagram arithmetic, Specht and cell modules,
the balanced-pair block criterion with homomorphism-target constructions,
and a brute-force linear-algebra oracle for verifying predictions at
small n.  Everything runs over Python ints: no Fraction and no
floats.
"""

from brauerblocks.partitions import Box, InvariantError, Partition, SkewShape
from brauerblocks.diagrams import BrauerDiagram
from brauerblocks.specht import SpechtModule, build_specht
from brauerblocks.cells import CellModule
from brauerblocks.blocks import (BlockPartition, LatticePrediction, WeightSet,
                                 bias, block_partition, hat, hom_target,
                                 is_balanced, is_minimal, lattice_predict,
                                 maximal_balanced_sub, minimal_weight, weights)
from brauerblocks.oracle import (BlockGraph, HomQuery, block_graph,
                                 central_scalar, gram_rank, hom_dim,
                                 restriction_multiplicity, verify_blocks)

__all__ = [
    "Box",
    "InvariantError",
    "Partition",
    "SkewShape",
    "BrauerDiagram",
    "SpechtModule",
    "build_specht",
    "CellModule",
    "WeightSet",
    "weights",
    "is_balanced",
    "bias",
    "BlockPartition",
    "block_partition",
    "maximal_balanced_sub",
    "hat",
    "is_minimal",
    "minimal_weight",
    "hom_target",
    "LatticePrediction",
    "lattice_predict",
    "HomQuery",
    "hom_dim",
    "central_scalar",
    "gram_rank",
    "restriction_multiplicity",
    "BlockGraph",
    "block_graph",
    "verify_blocks",
]
