"""Independent verification of executions against the paper's theory.

The tests and benchmarks do not merely check "did broadcast complete"; they
check the *mechanism*: that the simulator trace matches the round-by-round
characterisation the paper proves.  This module implements those checkers:

* :func:`check_lemma_2_8` — in every odd round ``2i − 1`` the transmitters of
  µ are exactly ``DOM_i`` and the newly-informed nodes are exactly ``NEW_i``;
  in every even round ``2i`` the "stay" transmitters are exactly the nodes of
  ``NEW_i`` whose label has ``x2 = 1``.
* :func:`check_theorem_2_9` — broadcast completes within ``2n − 3`` rounds
  (and within the sharper ``2ℓ − 3``).
* :func:`check_theorem_3_9` — acknowledged broadcast: completion by
  ``2n − 3`` and the ack at the source within ``{t+1, …, t+n−2}``; also the
  Corollary 3.8 window ``{2ℓ−2, …, 3ℓ−4}``.
* :func:`check_fact_3_1` — λ_ack never assigns 101, 111 or 011.
* :func:`check_corollary_2_7` — the NEW sets partition ``V ∖ {s}``.
* :func:`check_universality_constraints` — labels are within the advertised
  widths and the number of distinct labels matches the paper's counts.

Each checker returns a list of violation strings (empty = pass), so callers
can aggregate them; :func:`verify_broadcast_outcome` bundles the relevant ones
for a paper scheme's :class:`~repro.core.outcome.Outcome`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..graphs.graph import Graph
from ..radio.trace import ExecutionTrace
from .labeling import FORBIDDEN_ACK_LABELS, Labeling
from .outcome import Outcome
from .sequences import SequenceConstruction

__all__ = [
    "check_lemma_2_8",
    "check_theorem_2_9",
    "check_theorem_3_9",
    "check_fact_3_1",
    "check_corollary_2_7",
    "check_universality_constraints",
    "verify_broadcast_outcome",
]


def check_lemma_2_8(
    graph: Graph,
    labeling: Labeling,
    construction: SequenceConstruction,
    trace: ExecutionTrace,
) -> List[str]:
    """Check the exact transmit/receive characterisation of Lemma 2.8."""
    violations: List[str] = []
    ell = construction.ell
    # Build the expected per-round sets.  The source may overhear µ from a
    # neighbour later on, but it is never "newly informed" (Lemma 2.8 speaks
    # about uninformed nodes), so it is excluded here.
    informed_first: Dict[int, int] = {}
    for r in trace.rounds:
        for node, msg in r.receptions.items():
            if msg.is_source and node not in informed_first and node != construction.source:
                informed_first[node] = r.round_number

    for i in range(1, ell + 1):
        odd_round = 2 * i - 1
        if odd_round <= trace.num_rounds:
            record = trace.record(odd_round)
            actual_tx = {
                v for v, m in record.transmissions.items() if m.is_source
            }
            expected_tx = set(construction.dom(i))
            if actual_tx != expected_tx:
                violations.append(
                    f"Lemma 2.8 1(a) violated in round {odd_round}: "
                    f"transmitters {sorted(actual_tx)} != DOM_{i} {sorted(expected_tx)}"
                )
            actual_new = {v for v, first in informed_first.items() if first == odd_round}
            expected_new = set(construction.new(i))
            if actual_new != expected_new:
                violations.append(
                    f"Lemma 2.8 1(b) violated in round {odd_round}: "
                    f"newly informed {sorted(actual_new)} != NEW_{i} {sorted(expected_new)}"
                )
        even_round = 2 * i
        if even_round <= trace.num_rounds:
            record = trace.record(even_round)
            actual_stay = {v for v, m in record.transmissions.items() if m.is_stay}
            expected_stay = {
                v for v in construction.new(i) if labeling.parsed(v).x2 == 1
            }
            if actual_stay != expected_stay:
                violations.append(
                    f"Lemma 2.8 2(a) violated in round {even_round}: "
                    f"stay transmitters {sorted(actual_stay)} != "
                    f"NEW_{i} ∩ (x2=1) {sorted(expected_stay)}"
                )
    return violations


def check_theorem_2_9(graph: Graph, outcome: Outcome) -> List[str]:
    """Broadcast completes and does so within 2n − 3 rounds (and 2ℓ − 3)."""
    violations: List[str] = []
    n = graph.n
    if outcome.completion_round is None:
        if n > 1:
            violations.append("broadcast did not complete within the round budget")
        return violations
    bound = max(1, 2 * n - 3)
    if outcome.completion_round > bound:
        violations.append(
            f"Theorem 2.9 violated: completion round {outcome.completion_round} > 2n-3 = {bound}"
        )
    construction = outcome.labeling.construction
    if construction is not None and n > 1:
        sharp = construction.broadcast_rounds()
        if outcome.completion_round > sharp:
            violations.append(
                f"sharp bound violated: completion round {outcome.completion_round} > "
                f"2ℓ-3 = {sharp}"
            )
    return violations


def check_theorem_3_9(graph: Graph, outcome: Outcome) -> List[str]:
    """Acknowledged broadcast: Theorem 3.9 and Corollary 3.8 windows."""
    violations = check_theorem_2_9(graph, outcome)
    n = graph.n
    if n <= 1:
        return violations
    t = outcome.completion_round
    ack = outcome.acknowledgement_round
    if ack is None:
        violations.append("the source never received an acknowledgement")
        return violations
    if t is not None:
        # Theorem 3.9 states the window {t+1, …, t+n−2}, but its own
        # Corollary 3.8 permits 3ℓ−4 = t + ℓ − 1, which on a path (ℓ = n)
        # equals t + n − 1; the path instance indeed realises t + n − 1, so we
        # check the Corollary-consistent window t + n − 1 here and record the
        # one-round discrepancy in EXPERIMENTS.md.
        if not (t + 1 <= ack <= t + max(1, n - 1)):
            violations.append(
                f"Theorem 3.9 violated: ack round {ack} not in "
                f"[{t + 1}, {t + max(1, n - 1)}]"
            )
    construction = outcome.labeling.construction
    if construction is not None:
        ell = construction.ell
        lo, hi = 2 * ell - 2, 3 * ell - 4
        if ell >= 2 and not (lo <= ack <= hi):
            violations.append(
                f"Corollary 3.8 violated: ack round {ack} not in [{lo}, {hi}] (ℓ={ell})"
            )
    return violations


def check_fact_3_1(labeling: Labeling) -> List[str]:
    """λ_ack / λ_arb never assign the labels 101, 111, 011 (except the reserved
    coordinator label 111 under λ_arb)."""
    violations: List[str] = []
    for node, label in labeling.labels.items():
        if labeling.scheme == "lambda_arb" and node == labeling.coordinator:
            continue
        if label in FORBIDDEN_ACK_LABELS:
            violations.append(f"Fact 3.1 violated: node {node} has forbidden label {label}")
    return violations


def check_corollary_2_7(construction: SequenceConstruction) -> List[str]:
    """The NEW sets partition V ∖ {source}."""
    violations: List[str] = []
    seen: Dict[int, int] = {}
    for stage in construction.stages:
        for v in stage.new:
            if v in seen:
                violations.append(
                    f"Corollary 2.7 violated: node {v} in NEW_{seen[v]} and NEW_{stage.index}"
                )
            seen[v] = stage.index
    expected = set(range(construction.graph.n)) - {construction.source}
    if set(seen) != expected:
        missing = expected - set(seen)
        extra = set(seen) - expected
        violations.append(
            f"Corollary 2.7 violated: missing={sorted(missing)}, unexpected={sorted(extra)}"
        )
    return violations


def check_universality_constraints(labeling: Labeling) -> List[str]:
    """Label widths and distinct-label counts match the paper's statements.

    λ uses length-2 labels (≤ 4 distinct), λ_ack length-3 with at most 5
    distinct labels, λ_arb length-3 with at most 6 distinct labels.
    """
    violations: List[str] = []
    widths = {len(lab) for lab in labeling.labels.values()}
    distinct = labeling.num_distinct_labels()
    if labeling.scheme == "lambda":
        if not widths <= {2}:
            violations.append(f"λ must use 2-bit labels, found widths {sorted(widths)}")
        if distinct > 4:
            violations.append(f"λ uses {distinct} > 4 distinct labels")
    elif labeling.scheme == "lambda_ack":
        if not widths <= {3}:
            violations.append(f"λ_ack must use 3-bit labels, found widths {sorted(widths)}")
        if distinct > 5:
            violations.append(f"λ_ack uses {distinct} > 5 distinct labels")
    elif labeling.scheme == "lambda_arb":
        if not widths <= {3}:
            violations.append(f"λ_arb must use 3-bit labels, found widths {sorted(widths)}")
        if distinct > 6:
            violations.append(f"λ_arb uses {distinct} > 6 distinct labels")
    else:
        violations.append(f"unknown scheme {labeling.scheme!r}")
    return violations


def verify_broadcast_outcome(graph: Graph, outcome: Outcome) -> List[str]:
    """Run every applicable checker for one outcome and return all violations."""
    violations: List[str] = []
    labeling = outcome.labeling
    violations += check_universality_constraints(labeling)
    if labeling.construction is not None:
        violations += check_corollary_2_7(labeling.construction)
    if labeling.scheme == "lambda":
        violations += check_theorem_2_9(graph, outcome)
        if labeling.construction is not None:
            violations += check_lemma_2_8(
                graph, labeling, labeling.construction, outcome.trace
            )
    elif labeling.scheme == "lambda_ack":
        violations += check_fact_3_1(labeling)
        violations += check_theorem_3_9(graph, outcome)
    elif labeling.scheme == "lambda_arb":
        violations += check_fact_3_1(labeling)
        if outcome.completion_round is None and graph.n > 1:
            violations.append("B_arb did not deliver µ to every node")
        if outcome.common_completion_round is None and graph.n > 1:
            violations.append("B_arb nodes do not agree on a common completion round")
    return violations
