"""The round-synchronous radio simulation engine.

This is the faithful implementation of the communication model of §1.1:

* time proceeds in synchronous rounds;
* in each round every node either transmits to all its neighbours or listens;
* a listening node hears a message iff **exactly one** of its neighbours
  transmits in that round;
* with two or more transmitting neighbours a collision occurs and (in the
  default no-collision-detection model) the node hears nothing, exactly as if
  nobody had transmitted.

The engine is deliberately free of protocol knowledge: protocols are supplied
as a factory that builds one :class:`~repro.radio.node.RadioNode` per node from
its label.  The engine therefore *cannot* leak topology information to the
nodes, which is what makes the universality claims testable.

Performance note (per the hpc-parallel guidance: profile, then optimise): the
hot loop is the per-round neighbour sweep.  For the graph sizes the paper's
O(n)-round algorithms need (n up to a few thousand), the dominant cost is the
per-listener transmitter count, which we compute with a NumPy bincount over
the CSR neighbour arrays instead of per-node Python set intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph, GraphError
from .clock import ClockModel, SynchronizedClocks
from .collision import CollisionModel, NoCollisionDetection
from .faults import FaultModel, NoFaults
from .messages import Message
from .node import RadioNode
from .trace import ExecutionTrace, RoundRecord

__all__ = ["NodeFactory", "RadioSimulator", "SimulationResult", "run_protocol"]

#: Callable that builds the per-node protocol object.  It receives
#: ``(node_id, label, is_source, source_payload)`` and must return a
#: :class:`RadioNode`.  ``source_payload`` is ``None`` for non-source nodes.
NodeFactory = Callable[[int, str, bool, Any], RadioNode]


@dataclass
class SimulationResult:
    """Outcome of a simulation run: the trace plus the final node objects."""

    trace: ExecutionTrace
    nodes: List[RadioNode]
    stop_round: int
    stop_reason: str

    @property
    def completed(self) -> bool:
        """True if the run stopped because its stop condition was met."""
        return self.stop_reason == "condition"


class RadioSimulator:
    """Synchronous radio-network simulator over a fixed labeled graph.

    Parameters
    ----------
    graph:
        The (connected) network topology.
    labels:
        Mapping node → label string, typically produced by one of the
        labeling schemes in :mod:`repro.core.labeling`.
    node_factory:
        Builds the protocol instance for each node.
    source:
        The node that initially holds the source message, or ``None`` for
        protocols without a distinguished source at simulation level (the
        B_arb coordinator experiments still pass a concrete source).
    source_payload:
        The source message µ handed to the source node.
    collision_model / fault_model / clock_model:
        Channel semantics; the defaults reproduce the paper's model exactly.
    trace_level:
        Trace recording level (see :mod:`repro.radio.trace`): ``"full"``
        keeps every round record, ``"summary"``/``"none"`` keep only O(n)
        aggregates (headline metrics still work; per-round access raises).
    """

    def __init__(
        self,
        graph: Graph,
        labels: Mapping[int, str],
        node_factory: NodeFactory,
        *,
        source: Optional[int] = None,
        source_payload: Any = "MSG",
        collision_model: Optional[CollisionModel] = None,
        fault_model: Optional[FaultModel] = None,
        clock_model: Optional[ClockModel] = None,
        trace_level: str = "full",
    ) -> None:
        if source is not None and source not in graph:
            raise GraphError(f"source {source} is not a node of {graph!r}")
        missing = [v for v in graph.nodes() if v not in labels]
        if missing:
            raise ValueError(f"labels missing for nodes {missing[:5]}{'...' if len(missing) > 5 else ''}")
        self.graph = graph
        self.labels = dict(labels)
        self.source = source
        self.source_payload = source_payload
        self.collision_model = collision_model or NoCollisionDetection()
        self.fault_model = fault_model or NoFaults()
        self.clock_model = clock_model or SynchronizedClocks()
        self.nodes: List[RadioNode] = [
            node_factory(
                v,
                self.labels[v],
                v == source,
                source_payload if v == source else None,
            )
            for v in graph.nodes()
        ]
        # The engine builds RoundRecords either way, so "none" is recorded as
        # "summary" here; only array backends can skip per-round bookkeeping.
        level = "summary" if trace_level == "none" else trace_level
        self.trace = ExecutionTrace(num_nodes=graph.n, source=source, level=level)
        self._round = 0
        # Pre-extract CSR arrays for the vectorised collision resolution.
        self._indptr, self._indices = graph.csr()

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    @property
    def current_round(self) -> int:
        """Number of rounds simulated so far."""
        return self._round

    def step(self) -> RoundRecord:
        """Simulate one round and return its record."""
        self._round += 1
        rnd = self._round
        n = self.graph.n

        # Phase 1: every node decides simultaneously, based only on its history.
        decisions: List[Optional[Message]] = [None] * n
        for v in range(n):
            if not self.fault_model.node_is_alive(rnd, v):
                continue
            local = self.clock_model.local_round(v, rnd)
            decisions[v] = self.nodes[v].decide(local)

        # Phase 2: fault model may suppress transmissions.
        transmissions: Dict[int, Message] = {}
        suppressed: Dict[int, Message] = {}
        for v, msg in enumerate(decisions):
            if msg is None:
                continue
            if self.fault_model.transmission_survives(rnd, v, msg):
                transmissions[v] = msg
            else:
                suppressed[v] = msg

        # Phase 3: resolve what every listener hears.
        receptions: Dict[int, Message] = {}
        collisions: set = set()
        if transmissions:
            # counts[v] = number of transmitting neighbours of v, accumulated by
            # sweeping each transmitter's CSR neighbour slice (vectorised adds).
            counts = np.zeros(n, dtype=np.int64)
            for u in transmissions:
                counts[self._indices[self._indptr[u] : self._indptr[u + 1]]] += 1
            for v in range(n):
                if decisions[v] is not None:
                    continue  # transmitting nodes hear nothing
                c = int(counts[v])
                if c == 0:
                    continue
                arriving = [
                    transmissions[int(u)]
                    for u in self._indices[self._indptr[v] : self._indptr[v + 1]]
                    if int(u) in transmissions
                ]
                heard, collided = self.collision_model.perceive(arriving)
                if heard is not None:
                    receptions[v] = heard
                elif collided or len(arriving) >= 2:
                    # Record the collision in the trace even if undetectable by
                    # the node; the analysis layer wants collision counts.
                    collisions.add(v)

        # Phase 4: deliver outcomes to nodes (transmitters hear nothing).
        for v in range(n):
            if not self.fault_model.node_is_alive(rnd, v):
                continue
            local = self.clock_model.local_round(v, rnd)
            heard = receptions.get(v)
            detected = (
                v in collisions and self.collision_model.provides_detection
            )
            self.nodes[v].deliver(local, decisions[v], heard, detected)

        record = RoundRecord(
            round_number=rnd,
            transmissions=dict(transmissions),
            receptions=receptions,
            collisions=frozenset(collisions),
            suppressed=suppressed,
        )
        self.trace.append(record)
        return record

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_rounds: int,
        stop_condition: Optional[Callable[["RadioSimulator"], bool]] = None,
    ) -> SimulationResult:
        """Run rounds until the stop condition holds or the budget runs out.

        Parameters
        ----------
        max_rounds:
            Hard budget on the number of rounds to simulate.
        stop_condition:
            Optional predicate evaluated after every round; the run stops when
            it returns ``True`` (stop reason ``"condition"``, otherwise
            ``"budget"``).  The reference backend passes the predicate of the
            task's stop rule.
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        stop_reason = "budget"
        stop_round = self._round
        for _ in range(max_rounds):
            record = self.step()
            stop_round = record.round_number
            if stop_condition is not None and stop_condition(self):
                stop_reason = "condition"
                break
        return SimulationResult(
            trace=self.trace, nodes=self.nodes, stop_round=stop_round, stop_reason=stop_reason
        )

    # ------------------------------------------------------------------ #
    # common stop conditions
    # ------------------------------------------------------------------ #
    def all_informed(self) -> bool:
        """True if every non-source node has heard the source message."""
        informed = self.trace.informed_nodes()
        return len(informed) == self.graph.n

    def source_acknowledged(self) -> bool:
        """True if the source has heard an ack message."""
        if self.source is None:
            return False
        return self.trace.first_ack_at(self.source) is not None


def run_protocol(
    graph: Graph,
    labels: Mapping[int, str],
    node_factory: NodeFactory,
    *,
    source: Optional[int],
    source_payload: Any = "MSG",
    max_rounds: Optional[int] = None,
    stop_condition: Optional[Callable[[RadioSimulator], bool]] = None,
    collision_model: Optional[CollisionModel] = None,
    fault_model: Optional[FaultModel] = None,
    clock_model: Optional[ClockModel] = None,
    trace_level: str = "full",
) -> SimulationResult:
    """Convenience wrapper: build a :class:`RadioSimulator` and run it.

    ``max_rounds`` defaults to ``4 * n + 10``, a generous envelope above every
    bound proven in the paper (2n−3 for broadcast, 3ℓ−4 ≤ 3n−4 for the ack).
    """
    if max_rounds is None:
        max_rounds = 4 * graph.n + 10
    sim = RadioSimulator(
        graph,
        labels,
        node_factory,
        source=source,
        source_payload=source_payload,
        collision_model=collision_model,
        fault_model=fault_model,
        clock_model=clock_model,
        trace_level=trace_level,
    )
    return sim.run(max_rounds, stop_condition)
