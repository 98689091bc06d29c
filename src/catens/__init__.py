"""catens: clustering categorical data by ensembling dissimilarity matrices.

The basic pipeline clusters an ``n x J`` table of nominal codes by Hamming
dissimilarity under single/average/complete linkage, then improves on it by
averaging the co-membership pattern of many base clusterings of random
sizes into an ensemble dissimilarity that is clustered again (ENSL/ENAL/
ENCL).  High-dimensional tables are handled by a further ensemble over
random column subspaces (WOR/WR); pre-aligned sequences with gap
placeholders are supported through a gap-aware distance.

Names are imported from the module that defines them, such as
``catens.ensemble.ensemble_cluster``; ``import catens`` loads ``catens.core`` alone.
"""

# the benchmark's self-tests read these two; a change to the benchmark can drop them
from .core import DataError, hamming
