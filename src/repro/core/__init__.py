"""The paper's contribution: sequence construction, labeling schemes, protocols.

Typical use::

    from repro.core import lambda_scheme
    labeling = lambda_scheme(graph, source=0)

One execution (label, simulate, derive the outcome) runs through the scheme
registry: ``repro.api.get_scheme("lambda").run(graph, 0)``.
"""

from .domination import (
    DOMINATION_STRATEGIES,
    dominates,
    greedy_minimal_dominating_subset,
    is_minimal_dominating_subset,
    minimal_dominating_subset,
    prune_to_minimal,
)
from .labeling import (
    FORBIDDEN_ACK_LABELS,
    Labeling,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
)
from .labels import Label, distinct_labels, label_length, scheme_length
from .outcome import Outcome
from .protocols import (
    AcknowledgedBroadcastNode,
    ArbitrarySourceNode,
    BroadcastNode,
    COORDINATOR_LABEL,
    UniversalNode,
    make_acknowledged_node,
    make_arbitrary_node,
    make_broadcast_node,
)
from .sequences import SequenceConstruction, Stage, build_sequences
from .special import (
    LabelSearchResult,
    TreeFloodNode,
    broadcast_succeeds_with_labels,
    run_tree_flood,
    search_minimum_labels,
)
from .verify import (
    check_corollary_2_7,
    check_fact_3_1,
    check_lemma_2_8,
    check_theorem_2_9,
    check_theorem_3_9,
    check_universality_constraints,
    verify_broadcast_outcome,
)

__all__ = [
    "AcknowledgedBroadcastNode",
    "ArbitrarySourceNode",
    "BroadcastNode",
    "COORDINATOR_LABEL",
    "DOMINATION_STRATEGIES",
    "FORBIDDEN_ACK_LABELS",
    "Label",
    "LabelSearchResult",
    "Labeling",
    "Outcome",
    "SequenceConstruction",
    "Stage",
    "TreeFloodNode",
    "UniversalNode",
    "broadcast_succeeds_with_labels",
    "build_sequences",
    "check_corollary_2_7",
    "check_fact_3_1",
    "check_lemma_2_8",
    "check_theorem_2_9",
    "check_theorem_3_9",
    "check_universality_constraints",
    "distinct_labels",
    "dominates",
    "greedy_minimal_dominating_subset",
    "is_minimal_dominating_subset",
    "label_length",
    "lambda_ack_scheme",
    "lambda_arb_scheme",
    "lambda_scheme",
    "make_acknowledged_node",
    "make_arbitrary_node",
    "make_broadcast_node",
    "minimal_dominating_subset",
    "prune_to_minimal",
    "run_tree_flood",
    "scheme_length",
    "search_minimum_labels",
    "verify_broadcast_outcome",
]
