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

The bits are computed on arrays, from the construction's DOM id arrays and
per-node NEW stages and the graph's CSR rows, with a constant number of array
operations per construction whatever its ℓ; label strings come from one fixed
table, so nodes share string objects.  Each function returns a
:class:`Labeling` that bundles the label map with the underlying
:class:`~repro.core.sequences.SequenceConstruction`, so the verification and
benchmark layers can cross-examine the scheme against the execution traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..graphs.graph import Graph, GraphError, csr_rows
from .labels import Label, distinct_labels, scheme_length
from .sequences import SequenceConstruction, build_sequences

__all__ = ["Labeling", "lambda_scheme", "lambda_ack_scheme", "lambda_arb_scheme"]

#: Labels that λ_ack provably never assigns (Fact 3.1); λ_arb reserves 111 for
#: the coordinator and 001 remains the unique label of the acknowledger z.
FORBIDDEN_ACK_LABELS = ("101", "111", "011")

#: Every label string by its bits read as a binary number.
_LABEL_TABLE = {width: np.array([format(code, f"0{width}b") for code in range(1 << width)],
                                dtype=object)
                for width in (2, 3)}
_FORBIDDEN_ACK = np.zeros(8, dtype=bool)
_FORBIDDEN_ACK[[int(label, 2) for label in FORBIDDEN_ACK_LABELS]] = True


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
        return len(set(self.labels.values()))

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
    seq = _construction_for(graph, source, strategy, construction)
    return Labeling(
        scheme="lambda",
        labels=_label_map(_lambda_codes(seq), 2),
        source=source,
        construction=seq,
    )


def _construction_for(graph: Graph, source: int, strategy: str,
                      construction: Optional[SequenceConstruction]) -> SequenceConstruction:
    """``construction`` checked against ``(graph, source)``, or a new one."""
    seq = construction if construction is not None else build_sequences(graph, source, strategy)
    if seq.graph is not graph and seq.graph != graph:
        raise GraphError("provided construction was built for a different graph")
    if seq.source != source:
        raise GraphError("provided construction was built for a different source")
    return seq


def _label_map(codes: np.ndarray, width: int) -> Dict[int, str]:
    """Node → label string for per-node label codes."""
    return dict(enumerate(_LABEL_TABLE[width][codes].tolist()))


def _lambda_codes(seq: SequenceConstruction) -> np.ndarray:
    """Every node's λ bits ``x1 x2`` as the code ``2·x1 + x2``.

    x1 = 1 iff the node belongs to DOM_i for some i.  x2: for every i and
    every v ∈ DOM_{i+1} ∩ DOM_i, one neighbour w ∈ NEW_i of v gets x2(w) = 1:
    the first in v's CSR row, which is the smallest, so the scheme is
    deterministic.  The structure of the construction makes the picks
    conflict-free: each w ∈ NEW_i has exactly one neighbour in DOM_i, so no
    node v ∈ DOM_{i+1} ∩ DOM_i ends up with two marked NEW_i neighbours
    (which would cause a collision in round 2i).
    """
    codes = np.zeros(seq.graph.n, dtype=np.intp)
    codes[seq.dom_ids] = 2
    # (v, i) with v ∈ DOM_i ∩ DOM_{i+1}: keys v·width + i, sorted, differ by 1.
    width, ptr = seq.ell + 2, seq.dom_ptr
    key = seq.dom_ids * width + np.arange(1, seq.ell + 1).repeat(ptr[1:] - ptr[:-1])
    key.sort()
    pairs = key[:-1][key[1:] - key[:-1] == 1]
    if pairs.size:
        stayers, stage = pairs // width, pairs % width
        nbrs, owner = csr_rows(*seq.graph.csr(), stayers)
        hits = (seq.new_stage[nbrs] == stage[owner]).nonzero()[0]
        # The first hit of each stayer, in CSR order.
        first = np.ones(hits.size, dtype=bool)
        first[1:] = owner[hits[1:]] != owner[hits[:-1]]
        first = hits[first]
        if first.size < pairs.size:
            found = np.zeros(pairs.size, dtype=bool)
            found[owner[first]] = True
            missing = np.flatnonzero(~found)
            j = missing[np.lexsort((stayers[missing], stage[missing]))[0]]
            i, v = int(stage[j]), int(stayers[j])
            raise GraphError(
                f"no NEW_{i} witness adjacent to {v} ∈ DOM_{i+1} ∩ DOM_{i}; "
                "this contradicts the minimality of DOM_i"
            )
        codes[nbrs[first]] |= 1
    return codes


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
    seq = _construction_for(graph, source, strategy, construction)
    last = seq.new_stage == seq.ell - 1
    # Single-node graph: no other node exists; by convention z is the source
    # (the "acknowledgement" is vacuous and the protocols special-case it).
    z = int(np.argmax(last)) if seq.ell >= 2 else source
    codes = _lambda_codes(seq) * 2
    codes[z] += 1

    # Fact 3.1: z's λ-bits are both 0, hence 101/111/011 never occur.
    if graph.n > 1:
        offending = np.flatnonzero(_FORBIDDEN_ACK[codes]).tolist()
        if offending:
            raise GraphError(
                f"Fact 3.1 violated: nodes {offending} received forbidden labels — "
                "this indicates a bug in the sequence construction"
            )

    return Labeling(
        scheme="lambda_ack",
        labels=_label_map(codes, 3),
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
    construction: Optional[SequenceConstruction] = None,
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
    strategy, construction:
        As for :func:`lambda_ack_scheme`, with ``r`` as the source; a
        one-node graph needs no construction.
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

    ack = lambda_ack_scheme(graph, r, strategy=strategy, construction=construction)
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
