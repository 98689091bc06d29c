"""catens: clustering categorical data by ensembling dissimilarity matrices.

The basic pipeline clusters an ``n x J`` table of nominal codes by Hamming
dissimilarity under single/average/complete linkage, then improves on it by
averaging the co-membership pattern of many base clusterings of random
sizes into an ensemble dissimilarity that is clustered again (ENSL/ENAL/
ENCL).  High-dimensional tables are handled by a further ensemble over
random column subspaces (WOR/WR); pre-aligned sequences with gap
placeholders are supported through a gap-aware distance.
"""

from .core import (
    CategoricalMatrix,
    Clustering,
    DataError,
    DissimilarityMatrix,
    encode,
    hamming,
    relabel_dense,
)
from .ensemble import (
    EnsembleConfig,
    IncidenceMatrix,
    build_incidence,
    draw_sizes,
    ensemble_cluster,
    ensemble_dissimilarity,
)
from .hclust import Dendrogram, Merge, agglomerate, cut, cut_with_outlier_deferral, to_newick
from .kmodes import KModesState, en_kmodes, kmodes
from .metrics import classification_rate, confusion, replicate_summary
from .rng import child_seed, substream
from .simgen import DESIGNS, Design, SeqDesign, gen_highdim, gen_lowdim, gen_noise
from .subspace import SubspaceSet, distinct_count_pmf, subspace_ensemble, wor_subspaces, wr_subspaces

__version__ = "0.1.0"

__all__ = [
    "CategoricalMatrix",
    "Clustering",
    "DataError",
    "Dendrogram",
    "Design",
    "DESIGNS",
    "DissimilarityMatrix",
    "EnsembleConfig",
    "IncidenceMatrix",
    "KModesState",
    "Merge",
    "SeqDesign",
    "SubspaceSet",
    "agglomerate",
    "build_incidence",
    "child_seed",
    "classification_rate",
    "confusion",
    "cut",
    "cut_with_outlier_deferral",
    "distinct_count_pmf",
    "draw_sizes",
    "en_kmodes",
    "encode",
    "ensemble_cluster",
    "ensemble_dissimilarity",
    "gen_highdim",
    "gen_lowdim",
    "gen_noise",
    "hamming",
    "kmodes",
    "relabel_dense",
    "replicate_summary",
    "subspace_ensemble",
    "substream",
    "to_newick",
    "wor_subspaces",
    "wr_subspaces",
]
