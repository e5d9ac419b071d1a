"""Backend abstraction: *what* to simulate, decoupled from *how*.

The tentpole refactor of this layer splits the execution core in two:

* a :class:`SimulationTask` is pure data describing one protocol
  execution — topology, labeling, protocol name, source, round budget, stop
  rule, channel semantics and protocol data such as a schedule;
* a :class:`SimulationBackend` turns a task into a
  :class:`~repro.radio.engine.SimulationResult` plus a ``derived`` dict of
  protocol-level outcomes (completion round, acknowledgement round, …),
  the same keys from every engine.

Each engine holds the only description of how it runs each protocol:

* :class:`~repro.backends.reference.ReferenceBackend` drives the faithful
  per-node object engine (:mod:`repro.radio.engine`) — the ground truth — with
  one node class per protocol, and reads ``derived`` off its trace and nodes;
* :class:`~repro.backends.batched.VectorizedBackend` runs one family of
  NumPy array kernels over CSR adjacency for every registered scheme, one
  task or a whole stacked batch per kernel call, producing bit-for-bit
  identical outcomes at a fraction of the cost (the equivalence suites in
  ``tests/test_backend_equivalence.py`` and
  ``tests/test_batched_equivalence.py`` assert this on grids of families ×
  sizes × seeds), at every instance size.

Callers never need the per-protocol plumbing: :func:`resolve_backend` maps
a backend spec (or an existing backend instance) to a shared backend
object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import countOf
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.labels import Label, LabelArray
from ..graphs.graph import Graph, GraphError
from ..radio.clock import ClockModel
from ..radio.collision import CollisionModel
from ..radio.engine import SimulationResult
from ..radio.faults import FaultModel

__all__ = [
    "PROTOCOLS",
    "STOP_RULES",
    "BackendError",
    "BackendResult",
    "SimulationBackend",
    "SimulationTask",
]

#: Protocol names a task may carry; every backend runs each of them.
PROTOCOLS = (
    "broadcast",
    "acknowledged",
    "arbitrary",
    "round_robin",
    "coloring_tdma",
    "collision_detection",
    "centralized",
)

#: Declarative stop rules every backend understands: every node informed,
#: the source acknowledged, every node knows B_arb completed, every node
#: decoded the bit-signalled payload.
STOP_RULES = ("all_informed", "acknowledged", "arb_complete", "all_decoded")

#: The protocols whose nodes read ``x1 x2 [x3]`` bit labels.
_BIT_PROTOCOLS = ("broadcast", "acknowledged", "arbitrary")
#: Every label string :meth:`~repro.core.labels.Label.from_string` accepts.
_BIT_LABELS = frozenset(
    format(value, f"0{width}b") for width in (1, 2, 3) for value in range(1 << width)
)
#: B_arb's reserved coordinator label (Fact 3.1: λ_ack never assigns it).
_COORDINATOR_LABEL = "111"
_COORDINATOR_CODE = int(_COORDINATOR_LABEL, 2)


class BackendError(RuntimeError):
    """Raised when a backend cannot execute the task it was handed."""


@dataclass
class SimulationTask:
    """One protocol execution, described as pure data.

    Attributes
    ----------
    protocol:
        Semantic protocol name (see :data:`PROTOCOLS`).  Each backend maps it
        to its own implementation: a kernel, or a node class on the
        reference engine.
    graph / labels / source / payload:
        The workload: topology, labeling, designated source (the node holding
        µ) and the payload µ itself.  ``labels`` is any mapping from node
        to label string; a :class:`~repro.core.labels.LabelArray`, which
        every labeler of one label width returns, is checked and read as
        its codes, with no per-node strings.  A task whose source is not a
        node, whose labeling misses a node, whose source has no payload, or
        whose B/B_ack/B_arb labels are not bit strings of at most three bits
        raises the reference engine's error
        (:class:`~repro.graphs.graph.GraphError` or :class:`ValueError`) at
        construction, whatever engine runs it.  A B_arb task must also mark
        exactly its ``extras["coordinator"]`` with the label ``111``, the
        label its nodes recognise the coordinator by; one that names no
        coordinator raises :class:`ValueError` on every engine.
    max_rounds:
        Hard round budget.
    stop_rule:
        One of :data:`STOP_RULES` or ``None`` (run to budget).  Backends stop
        after the first round in which the rule holds: the reference engine
        evaluates it over its node objects, the array kernels over their
        state arrays.
    trace_level:
        ``"full"`` / ``"summary"`` / ``"none"`` (see :mod:`repro.radio.trace`).
    collision_model / fault_model / clock_model:
        Channel semantics; ``None`` selects the paper's defaults.  Non-default
        models force array backends to fall back to the reference engine.
    extras:
        Protocol data: B_arb's ``"coordinator"`` id and the centralized
        ``"schedule"`` (one transmitter-id list per round).
    """

    protocol: str
    graph: Graph
    labels: Mapping[int, str]
    source: Optional[int] = None
    payload: Any = "MSG"
    max_rounds: int = 0
    stop_rule: Optional[str] = None
    trace_level: str = "full"
    collision_model: Optional[CollisionModel] = None
    fault_model: Optional[FaultModel] = None
    clock_model: Optional[ClockModel] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; known: {PROTOCOLS}")
        if self.stop_rule is not None and self.stop_rule not in STOP_RULES:
            raise ValueError(f"unknown stop rule {self.stop_rule!r}; known: {STOP_RULES}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {self.max_rounds}")
        # The reference engine's own input checks, in its order, so that
        # every engine rejects the same tasks with the same errors.
        if self.source is not None and self.source not in self.graph:
            raise GraphError(f"source {self.source} is not a node of {self.graph!r}")
        missing = self._missing_nodes()
        if missing:
            raise ValueError(
                f"labels missing for nodes {list(missing[:5])}"
                f"{'...' if len(missing) > 5 else ''}"
            )
        if self.source is not None and self.payload is None:
            raise ValueError("the source node must be given a source payload")
        if self.protocol in _BIT_PROTOCOLS:
            self._check_bit_labels()
        if self.protocol == "arbitrary":
            self._check_coordinator()

    def _missing_nodes(self) -> Sequence[int]:
        """The nodes ``labels`` has no label for, in node order."""
        labels, n = self.labels, self.graph.n
        if isinstance(labels, LabelArray):
            return range(len(labels), n)
        if all(map(labels.__contains__, self.graph.nodes())):
            return ()
        return [v for v in self.graph.nodes() if v not in labels]

    def _check_bit_labels(self) -> None:
        """Raise ``Label.from_string``'s error for the first node, in node
        order, whose label it rejects; a scan of the distinct strings when
        every one is valid.  A label array's labels all have its width,
        which is valid up to three bits."""
        labels = self.labels
        if isinstance(labels, LabelArray):
            if labels.width > 3 and self.graph.n:
                Label.from_string(labels[0])
            return
        if _BIT_LABELS.issuperset(labels.values()):
            return
        for v in self.graph.nodes():
            if labels[v] not in _BIT_LABELS:
                Label.from_string(labels[v])

    def _check_coordinator(self) -> None:
        """B_arb's nodes take the ``111`` label as the coordinator role and
        the array kernel takes ``extras["coordinator"]``: the two must agree."""
        coordinator = self.extras.get("coordinator")
        if coordinator is None:
            raise ValueError(
                f"a B_arb task must name its coordinator, the node labelled "
                f"{_COORDINATOR_LABEL!r}, in extras['coordinator']"
            )
        labels = self.labels
        if isinstance(labels, LabelArray):
            marked = (np.flatnonzero(labels.codes[:self.graph.n] == _COORDINATOR_CODE).tolist()
                      if labels.width == len(_COORDINATOR_LABEL) else [])
        elif countOf(labels.values(), _COORDINATOR_LABEL) == 1 and (
            coordinator in self.graph and labels[coordinator] == _COORDINATOR_LABEL
        ):
            return
        else:
            marked = [v for v in self.graph.nodes() if labels[v] == _COORDINATOR_LABEL]
        if marked != [coordinator]:
            raise ValueError(
                f"B_arb's coordinator {coordinator!r} must be the only node "
                f"labelled {_COORDINATOR_LABEL!r}; labelled {_COORDINATOR_LABEL!r}: "
                f"{marked[:5]}{'...' if len(marked) > 5 else ''}"
            )


@dataclass
class BackendResult:
    """What a backend hands back: the simulation plus derived outcomes.

    ``derived`` carries the protocol-level conclusions of the run, with the
    same keys and values from every backend: ``completion_round`` (plus
    ``acknowledgement_round`` for B_ack and B_arb, and
    ``common_completion_round`` for B_arb), or ``decoded_correctly`` for bit
    signalling.  The array kernels compute it from their state arrays, the
    reference backend from its trace and node objects.

    ``backend`` is execution provenance: the registry name of the engine that
    *actually* ran the task.  Backends that delegate uncovered tasks (the
    vectorized backend, to the reference engine) leave the inner engine's
    tag in place, so a row produced through a fallback is never mislabeled
    as having run on the outer engine.
    """

    simulation: SimulationResult
    derived: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None

    @property
    def trace(self):
        """The execution trace."""
        return self.simulation.trace


class SimulationBackend(ABC):
    """Strategy interface every simulation engine implements."""

    #: Registry / CLI name of the backend.
    name: str = "abstract"

    @abstractmethod
    def run_task(self, task: SimulationTask) -> BackendResult:
        """Execute ``task`` and return the result."""

    def run_batch(self, tasks: Sequence[SimulationTask]) -> List[BackendResult]:
        """Execute several tasks and return their results in input order.

        The default simply loops; backends that can amortise per-task
        overhead (see :class:`~repro.backends.batched.VectorizedBackend`)
        override this with a genuinely stacked execution.  Results must be
        identical to per-task :meth:`run_task` calls.
        """
        return [self.run_task(task) for task in tasks]

    def supports(self, task: SimulationTask) -> bool:
        """True if this backend can execute ``task`` natively."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
