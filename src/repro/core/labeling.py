"""The paper's labeling schemes: λ (2 bits), λ_ack (3 bits), λ_arb (3 bits).

A labeling scheme is a function computed with *complete knowledge of the
graph* that assigns each node a short bit string; the universal algorithms
(:mod:`repro.core.protocols`) then run knowing only those bits.  This module
implements:

* :func:`lambda_scheme` — Section 2.2.  ``x1`` marks nodes that ever belong to
  a dominating set ``DOM_i``; ``x2`` marks, for every node that stays in the
  dominating set across consecutive stages, one newly-informed witness
  neighbour that will tell it to stay.
* :func:`lambda_ack_scheme` — Section 3.1.  λ plus a third bit ``x3`` marking
  a node ``z`` that is informed last; ``z`` starts the acknowledgement chain.
  Fact 3.1 (labels ``101``, ``111``, ``011`` never occur) is asserted.
* :func:`lambda_arb_scheme` — Section 4.1.  A coordinator node ``r`` gets the
  reserved label ``111``; the rest of the graph is labeled by λ_ack computed
  *as if* ``r`` were the source.

Each function returns a :class:`Labeling` that bundles the label map with the
underlying :class:`~repro.core.sequences.SequenceConstruction`, so the
verification and benchmark layers can cross-examine the scheme against the
execution traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..graphs.graph import Graph, GraphError
from .labels import Label, distinct_labels, scheme_length
from .sequences import SequenceConstruction, build_sequences

__all__ = ["Labeling", "lambda_scheme", "lambda_ack_scheme", "lambda_arb_scheme"]

#: Labels that λ_ack provably never assigns (Fact 3.1); λ_arb reserves 111 for
#: the coordinator and 001 remains the unique label of the acknowledger z.
FORBIDDEN_ACK_LABELS = ("101", "111", "011")


@dataclass(frozen=True)
class Labeling:
    """A labeling scheme applied to one graph.

    Attributes
    ----------
    scheme:
        ``"lambda"``, ``"lambda_ack"`` or ``"lambda_arb"``.
    labels:
        Mapping node → label bit-string.
    source:
        The designated source (for λ / λ_ack), or ``None`` for λ_arb where the
        source is unknown at labeling time.
    coordinator:
        The coordinator ``r`` for λ_arb; ``None`` otherwise.
    acknowledger:
        The node ``z`` with ``x3 = 1`` (λ_ack / λ_arb); ``None`` for λ.
    construction:
        The Section 2.1 sequence construction the labels were derived from
        (for λ_arb this is the construction with ``r`` as source).
    """

    scheme: str
    labels: Dict[int, str]
    source: Optional[int]
    coordinator: Optional[int] = None
    acknowledger: Optional[int] = None
    construction: Optional[SequenceConstruction] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def label(self, node: int) -> str:
        """The bit string assigned to ``node``."""
        return self.labels[node]

    def parsed(self, node: int) -> Label:
        """The parsed :class:`~repro.core.labels.Label` of ``node``."""
        return Label.from_string(self.labels[node])

    @property
    def length(self) -> int:
        """The scheme length: maximum label length over all nodes."""
        return scheme_length(self.labels)

    def label_histogram(self) -> Dict[str, int]:
        """How many nodes carry each distinct label string."""
        return distinct_labels(self.labels)

    def num_distinct_labels(self) -> int:
        """Number of distinct label strings actually used."""
        return len(self.label_histogram())

    def as_dict(self) -> Dict[int, str]:
        """A plain copy of the node → label mapping."""
        return dict(self.labels)


# --------------------------------------------------------------------------- #
# λ — Section 2.2
# --------------------------------------------------------------------------- #
def lambda_scheme(
    graph: Graph,
    source: int,
    *,
    strategy: str = "prune",
    construction: Optional[SequenceConstruction] = None,
) -> Labeling:
    """Compute the 2-bit labeling scheme λ for ``(graph, source)``.

    Parameters
    ----------
    graph, source:
        The network and its designated source.
    strategy:
        Domination strategy for the underlying sequence construction.
    construction:
        A pre-computed sequence construction to reuse (must match the graph
        and source); mainly used by λ_ack to avoid recomputation.
    """
    seq = construction if construction is not None else build_sequences(graph, source, strategy)
    if seq.graph is not graph and seq.graph != graph:
        raise GraphError("provided construction was built for a different graph")
    if seq.source != source:
        raise GraphError("provided construction was built for a different source")

    adj = graph.neighbor_sets()
    x1 = [0] * graph.n
    x2 = [0] * graph.n

    # x1 = 1 iff the node belongs to DOM_i for some i.
    for stage in seq.stages:
        for v in stage.dom:
            x1[v] = 1

    # x2: for every i and every v ∈ DOM_{i+1} ∩ DOM_i, pick one neighbour
    # w ∈ NEW_i of v and set x2(w) = 1.  We pick the smallest-index witness so
    # the scheme is deterministic.  The structure of the construction makes the
    # picks conflict-free: each w ∈ NEW_i has exactly one neighbour in DOM_i,
    # so no node v ∈ DOM_{i+1} ∩ DOM_i ends up with two marked NEW_i
    # neighbours (which would cause a collision in round 2i).
    for i in range(1, seq.ell):
        new_i = seq.new(i)
        for v in sorted(seq.dom(i + 1) & seq.dom(i)):
            witnesses = adj[v] & new_i
            if not witnesses:
                raise GraphError(
                    f"no NEW_{i} witness adjacent to {v} ∈ DOM_{i+1} ∩ DOM_{i}; "
                    "this contradicts the minimality of DOM_i"
                )
            x2[min(witnesses)] = 1

    labels = {v: f"{a}{b}" for v, (a, b) in enumerate(zip(x1, x2))}
    return Labeling(
        scheme="lambda",
        labels=labels,
        source=source,
        construction=seq,
    )


# --------------------------------------------------------------------------- #
# λ_ack — Section 3.1
# --------------------------------------------------------------------------- #
def lambda_ack_scheme(
    graph: Graph,
    source: int,
    *,
    strategy: str = "prune",
    construction: Optional[SequenceConstruction] = None,
) -> Labeling:
    """Compute the 3-bit labeling scheme λ_ack for ``(graph, source)``.

    The scheme is λ plus a bit ``x3`` that is 1 at exactly one node ``z``
    chosen among the nodes informed **last** (i.e. in round ``2ℓ − 3``); we
    pick the smallest-index such node so the scheme is deterministic.  For the
    degenerate single-node and two-node graphs the acknowledger is the unique
    non-source node (or the source itself when it is alone).  ``construction``
    is a pre-computed sequence construction for ``(graph, source)`` to reuse,
    as for :func:`lambda_scheme`.
    """
    base = lambda_scheme(graph, source, strategy=strategy, construction=construction)
    seq = base.construction
    assert seq is not None

    last = seq.last_informed_nodes()
    if last:
        z = min(last)
    else:
        # Single-node graph: no other node exists; by convention z is the source
        # (the "acknowledgement" is vacuous and the protocols special-case it).
        z = source

    labels = {v: lab + ("1" if v == z else "0") for v, lab in base.labels.items()}

    # Fact 3.1: z's λ-bits are both 0, hence 101/111/011 never occur.
    if graph.n > 1:
        offending = [v for v, lab in labels.items() if lab in FORBIDDEN_ACK_LABELS]
        if offending:
            raise GraphError(
                f"Fact 3.1 violated: nodes {offending} received forbidden labels — "
                "this indicates a bug in the sequence construction"
            )

    return Labeling(
        scheme="lambda_ack",
        labels=labels,
        source=source,
        acknowledger=z,
        construction=seq,
    )


# --------------------------------------------------------------------------- #
# λ_arb — Section 4.1
# --------------------------------------------------------------------------- #
def lambda_arb_scheme(
    graph: Graph,
    *,
    coordinator: Optional[int] = None,
    strategy: str = "prune",
) -> Labeling:
    """Compute the 3-bit labeling scheme λ_arb (source unknown at labeling time).

    Parameters
    ----------
    graph:
        The network.  No source is designated; any node may later turn out to
        hold the message.
    coordinator:
        The node ``r`` that receives the reserved label ``111`` and coordinates
        the three-phase algorithm B_arb.  The paper chooses it arbitrarily; we
        default to node 0 for determinism.
    """
    if graph.n == 0:
        raise GraphError("cannot label an empty graph")
    r = 0 if coordinator is None else coordinator
    if r not in graph:
        raise GraphError(f"coordinator {r} is not a node of {graph!r}")

    if graph.n == 1:
        # Degenerate case: the only node is simultaneously r, z and the source.
        return Labeling(
            scheme="lambda_arb",
            labels={r: "111"},
            source=None,
            coordinator=r,
            acknowledger=r,
            construction=None,
        )

    ack = lambda_ack_scheme(graph, r, strategy=strategy)
    labels = dict(ack.labels)
    labels[r] = "111"
    return Labeling(
        scheme="lambda_arb",
        labels=labels,
        source=None,
        coordinator=r,
        acknowledger=ack.acknowledger,
        construction=ack.construction,
    )
