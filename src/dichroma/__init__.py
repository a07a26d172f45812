"""Digraph dicolouring laboratory.

Exact parameters and bound evaluators for dicolouring digraphs, an exact
solver, the acyclic-representatives and clique-transversal machinery, the
randomized sparse colouring pipeline, the dense-vertex reduction, and a
verification harness with a command line front end.
"""

from .asr import (
    ASRInstance,
    GoodTriplet,
    TransversalOutcome,
    acyclic_hitting_set,
    biclique_transversal,
    find_asr,
    is_good_triplet,
    list_dicolour_asr,
    search_good_triplet,
)
from .canon import canonical_key
from .dense import (
    DensePartition,
    DenseReport,
    delta_threshold,
    dense_colour,
    dense_reduce_theorem,
    find_dense_vertex,
    partition_N123,
)
from .dgf import emit_dgf, emit_json, parse_dgf, write_json
from .digraph import (
    Digraph,
    Graph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    random_tournament,
    symmetric_closure,
)
from .errors import (
    CapExceeded,
    CompletionStuck,
    DichromaError,
    InstanceTooLarge,
    InternalInconsistency,
    InvalidParameter,
    InvalidVertex,
    MissingList,
    NoASR,
    NotDense,
    NotPartialKL,
    ParseError,
    PreconditionViolated,
    SelfLoop,
)
from .exactmath import (
    ceil_sqrt,
    compare_to_ln_cubed,
    e7_bounds,
    floor_div_e7,
    geq_sqrt,
    ln_bounds,
)
from .harness import (
    DelminRecord,
    HuntReport,
    MainConstants,
    VerificationRecord,
    delmin_reduction,
    hunt,
    hunt_records,
    log_cubed_threshold,
    main_constants,
    nonisomorphic_digraphs,
    verify_delmin,
    verify_instance,
)
from .matching import is_matching, maximum_matching
from .params import (
    BicliqueReport,
    DegreeProfile,
    DensityReport,
    biclique_number,
    biclique_report,
    degree_profile,
    delmin_bound,
    density_report,
    directed_clique_number,
    epsilon_bound,
    is_b_sparse,
    reed_bound,
)
from .solver import (
    Dicolouring,
    check_partial_kl,
    dichromatic_number,
    greedy_complete,
    is_k_dichoosable,
    is_valid,
    k_dicolourable,
    list_dicolourable,
    optimal_dicolouring,
)
from .sparse import (
    MonteCarloEstimates,
    SparseTrialState,
    monte_carlo,
    sample_partial,
    sparse_dicolour,
    trial,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
