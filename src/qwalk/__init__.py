"""Continuous-time quantum walks on weighted, signed, and tail-extended graphs.

Build graphs (including the gadget catalog), evolve states under
U(t) = exp(itA), verify perfect state transfer, periodicity, and
sedentariness, and transform transfers via equitable-partition quotients,
twin-subgraph reductions, and diagonal sign switching.
"""

from .errors import QwalkError
from .graphs import (
    PureState,
    TailSpec,
    WeightedGraph,
    build_graph,
    build_state,
    degree_profile,
    graph_to_document,
    negate_edges,
    pair_state,
    plus_state,
    state_to_document,
    vertex_state,
)
from .spectral import (
    SpectralDecomposition,
    TruncationCertificate,
    adjacency,
    evolve,
    exp_oracle,
    fidelity,
    prepare,
    transfer_amplitude,
)
from .partition import (
    EquitableData,
    EquitableFailure,
    Partition,
    check_equitable,
    coarsest_equitable,
    quotient,
)
from .twins import (
    BlockCheck,
    TwinStructure,
    detect_twin_structures,
    reduced_hamiltonian,
    verify_twin_structure,
)
from .signed import (
    SignVector,
    build_sign_vector,
    compose_signed,
    is_antibalanced,
    is_balanced,
    pairplus_transforms,
    switch,
)
from .transfer import (
    SedentaryEstimate,
    TransferReport,
    check_pst,
    pgst_witness,
    search_pst,
    sedentary_estimate,
)
from .constructions import (
    CayleySpec,
    Gadget,
    RootedCollection,
    blow_up,
    cayley,
    complete_graph,
    cycle_graph,
    fiber_sum_state,
    named_gadget,
    one_sum,
    path_graph,
    rooted_product,
)
from .experiments import (
    LimbReport,
    exhaustive_tree_experiment,
    find_p5_limb,
    random_tree,
    run_tree_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
