"""Minimum-order quadrangulations of closed orientable surfaces.

The package computes minimum quadrangulation orders by exact integer
arithmetic, constructs verified spinal quadrangulations from one
closed-form rotation system, and confirms small-genus ground truths by
exhaustive search.
"""

from .embedding import (
    EmbeddingReport,
    GenusMismatchError,
    RotationSystem,
    embedding_from_document,
    embedding_to_document,
    load_embedding,
    save_embedding,
    validate_quadrangulation,
)
from .formulas import (
    MinOrderResult,
    certified_minimal,
    min_order,
    min_order_runs,
    min_spine_size,
    order_lower_bound,
    spectrum,
)
from .graph import (
    FormatError,
    Graph,
    betti,
    complete_graph,
    delete_edges_connected,
    graph_from_document,
    graph_to_document,
    interlace,
    is_connected,
    load_graph,
    make_graph,
    save_graph,
)
from .oracle import (
    BudgetExhausted,
    MinOrderWitness,
    SearchBudget,
    min_order_bruteforce,
    quad_edge_count,
    search_quadrangulation,
)
from .spinal import (
    BuildError,
    BuildReport,
    build_instance,
    build_spinal_report,
)

__version__ = "0.1.0"
