"""Fully dynamic Euclidean k-means at desk scale.

Library surface: grid geometry and oracles, consistent hashing, range-query
structures, the implicit assignment structure, restricted/augmented
k-means, the epoch controller, the sparsified runner, and a stream harness.
"""

from .assignment import AssignmentStructure
from .controller import DynamicKMeans, UpdateReport, validate_certificate
from .errors import NoColorError, NoMassError, UsageError
from .geometry import (WeightedSet, brute_nn, brute_opt_augmented,
                       brute_opt_restricted, cost, dist, dist2, jl_project,
                       make_jl_matrix, opt_kmeans_exact)
from .harness import RunResult, run_stream
from .hashing import OVER_CAP, ConsistentHash, WeakHash
from .params import ExponentSchedule, Params, schedule_for
from .range_query import BallOneMeans, CenterIndex, MomentSummary
from .sparsifier import MergeReduceSparsifier, SparsifiedRunner
from .subroutines import (ClusterContext, augmented_kmeans, restricted_kmeans,
                          static_weighted_kmeans)
from .workload import UpdateStream, gen_workload

__version__ = "0.1.0"
