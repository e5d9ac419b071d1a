"""The scheme registry: every algorithm behind one uniform protocol.

The paper is a *comparison* — λ / λ_ack / λ_arb against round-robin,
G²-coloring TDMA, collision-detection signalling and the centralized
schedule — so the experiment surface treats all seven identically.  A
:class:`Scheme` decomposes one end-to-end execution into the three steps every
scheme shares:

1. **labeler** (:meth:`Scheme.build_labels`) — compute (or validate a reused)
   labeling and its advice-size metadata;
2. **task builder** (:meth:`Scheme.build_task`) — describe the execution as a
   declarative :class:`~repro.backends.base.SimulationTask` (protocol, stop
   rule, budget, channel models);
3. **outcome deriver** (:meth:`Scheme.derive_outcome`) — turn the backend's
   result into the unified :class:`~repro.core.outcome.Outcome`.

:meth:`Scheme.run` is the template method gluing the three together through
:func:`~repro.backends.resolve_backend`: ``get_scheme(name).run(graph,
source, ...)`` is the one graph-level way to run one execution, and
``repro.api.run`` and the CLI call it.  The grid runner calls the three steps
itself, so it can share labels across an instance's rows and stack tasks.
New schemes plug in with::

    @register_scheme("my_scheme")
    class MyScheme(Scheme):
        ...

and immediately become available to scenarios, sweeps and the CLI.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type, Union

from ..backends import SimulationTask, resolve_backend
from ..backends.base import BackendResult
from ..baselines.base import bits_needed
from ..baselines.centralized import ScheduledNode, compute_centralized_schedule
from ..baselines.collision_detection import (
    LENGTH_HEADER_BITS,
    SLOT_LENGTH,
    BitSignalNode,
)
from ..baselines.coloring_tdma import ColoringTdmaNode, coloring_tdma_labels
from ..baselines.round_robin import RoundRobinNode, round_robin_labels
from ..core import labeling as core_labeling
from ..core.labeling import (
    Labeling,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
)
from ..core.outcome import Outcome
from ..core.protocols.acknowledged import make_acknowledged_node
from ..core.protocols.arbitrary import ArbitrarySourceNode, make_arbitrary_node
from ..core.protocols.broadcast import make_broadcast_node
from ..core.sequences import SequenceConstruction
from ..graphs.graph import Graph, GraphError
from ..radio.clock import ClockModel
from ..radio.collision import WithCollisionDetection
from ..radio.faults import FaultModel

__all__ = [
    "Scheme",
    "SchemeLabels",
    "register_scheme",
    "get_scheme",
    "scheme_names",
    "paper_scheme_names",
    "baseline_scheme_names",
]


def _broadcast_bound(n: int) -> int:
    """Theorem 2.9's bound: all nodes informed within 2n − 3 rounds (≥ 1)."""
    return max(1, 2 * n - 3)


@dataclass
class SchemeLabels:
    """What a scheme's labeler produces: the labels plus advice metadata."""

    labels: Mapping[int, str]
    label_bits: int
    distinct_labels: int
    labeling: Optional[Labeling] = None
    extras: Dict[str, Any] = field(default_factory=dict)


class Scheme(ABC):
    """One registered broadcast scheme: labeler + task builder + outcome deriver."""

    #: Registry / CLI / scenario-file name.
    name: str = "abstract"
    #: ``"paper"`` for the labeled algorithms, ``"baseline"`` for comparisons.
    kind: str = "baseline"
    #: One-line description shown by ``repro schemes``.
    description: str = ""

    # ------------------------------------------------------------------ #
    # the three scheme-specific steps
    # ------------------------------------------------------------------ #
    @abstractmethod
    def build_labels(
        self, graph: Graph, source: int, *, labeling: Optional[Labeling] = None, **options: Any
    ) -> SchemeLabels:
        """Compute (or validate a reused) labeling for ``graph`` / ``source``.

        ``options`` may carry ``payload``: only a labeler sized by it (bit
        signalling) reads it, and the others swallow it.
        """

    @abstractmethod
    def default_budget(self, graph: Graph, info: SchemeLabels) -> int:
        """Round budget used when the caller does not set ``max_rounds``."""

    @abstractmethod
    def build_task(
        self,
        graph: Graph,
        info: SchemeLabels,
        source: int,
        *,
        payload: Any,
        max_rounds: int,
        trace_level: str,
        fault_model: Optional[FaultModel],
        clock_model: Optional[ClockModel],
    ) -> SimulationTask:
        """Describe the execution declaratively for the backend layer."""

    @abstractmethod
    def derive_outcome(
        self, graph: Graph, task: SimulationTask, result: BackendResult, info: SchemeLabels
    ) -> Outcome:
        """Assemble the unified :class:`Outcome` from the backend result."""

    # ------------------------------------------------------------------ #
    # hooks with sensible defaults
    # ------------------------------------------------------------------ #
    def validate_source(self, graph: Graph, source: int) -> None:
        """Reject sources outside the graph (schemes may refine this)."""
        if source not in graph:
            raise GraphError(f"source {source} is not a node of {graph!r}")

    def grid_options(self, graph: Graph, source: int) -> Dict[str, Any]:
        """Extra per-instance options a sweep grid passes to :meth:`run`."""
        return {}

    # ------------------------------------------------------------------ #
    # the template method
    # ------------------------------------------------------------------ #
    def run(
        self,
        graph: Graph,
        source: int,
        *,
        payload: Any = "MSG",
        labeling: Optional[Labeling] = None,
        max_rounds: Optional[int] = None,
        fault_model: Optional[FaultModel] = None,
        clock_model: Optional[ClockModel] = None,
        backend: Any = None,
        trace_level: str = "full",
        **options: Any,
    ) -> Outcome:
        """Label, simulate and derive the outcome of one execution.

        ``labeling`` reuses a precomputed labeling of this scheme; other
        ``options`` (``strategy``, λ_arb's ``coordinator``, bit signalling's
        ``with_detection``) reach :meth:`build_labels`.  ``backend`` is a
        name, a backend instance or ``None`` (the reference engine), and
        ``trace_level`` is ``"full"``, ``"summary"`` or ``"none"``.
        """
        self.validate_source(graph, source)
        info = self.build_labels(graph, source, labeling=labeling,
                                 payload=payload, **options)
        budget = max_rounds if max_rounds is not None else self.default_budget(graph, info)
        task = self.build_task(
            graph,
            info,
            source,
            payload=payload,
            max_rounds=budget,
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
        )
        result = resolve_backend(backend).run_task(task)
        outcome = self.derive_outcome(graph, task, result, info)
        if result.backend is not None:
            # Execution provenance: the engine that actually ran the task
            # (after any fallback), surfaced into the metrics row's
            # ``backend`` column by ``metrics_from_run``.
            outcome.extras.setdefault("executed_by", result.backend)
        return outcome


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Scheme] = {}


def register_scheme(name: str) -> Callable[[Type[Scheme]], Type[Scheme]]:
    """Class decorator registering a :class:`Scheme` under ``name``.

    The class is instantiated once; the shared instance is what
    :func:`get_scheme` returns.  Registering a name twice replaces the
    previous entry (useful for tests and downstream overrides).
    """

    def decorator(cls: Type[Scheme]) -> Type[Scheme]:
        if not (isinstance(cls, type) and issubclass(cls, Scheme)):
            raise TypeError(f"@register_scheme expects a Scheme subclass, got {cls!r}")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorator


def get_scheme(name: Union[str, Scheme]) -> Scheme:
    """Look up a registered scheme by name (a :class:`Scheme` passes through)."""
    if isinstance(name, Scheme):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known schemes: {scheme_names()}"
        ) from None


def scheme_names() -> List[str]:
    """Sorted names of all registered schemes."""
    return sorted(_REGISTRY)


def scheme_backend_coverage(name: Union[str, Scheme]) -> List[str]:
    """The registered backends that execute ``name`` natively.

    Probes each backend's :meth:`~repro.backends.SimulationBackend.supports`
    with a tiny representative task (a 4-node path), so the answer reflects
    the actual kernel coverage — every registered scheme runs on the
    vectorized kernels under the paper's default channel models,
    and the reference backend covers everything by construction; tasks
    outside an engine's coverage still *run* on it by falling back per
    task.  Used by ``repro schemes --json`` so tooling that
    builds grids programmatically can pick backends without trial and error.
    """
    from ..backends import BACKEND_NAMES, resolve_backend
    from ..graphs.generators import generate_family

    scheme = get_scheme(name)
    graph = generate_family("path", 4, 0)
    info = scheme.build_labels(graph, 0, **scheme.grid_options(graph, 0))
    task = scheme.build_task(
        graph, info, 0, payload="MSG",
        max_rounds=scheme.default_budget(graph, info),
        trace_level="summary", fault_model=None, clock_model=None,
    )
    return [n for n in BACKEND_NAMES if resolve_backend(n).supports(task)]


def paper_scheme_names() -> List[str]:
    """Sorted names of the paper's labeled algorithms."""
    return sorted(n for n, s in _REGISTRY.items() if s.kind == "paper")


def baseline_scheme_names() -> List[str]:
    """Sorted names of the comparison baselines."""
    return sorted(n for n, s in _REGISTRY.items() if s.kind == "baseline")


# --------------------------------------------------------------------------- #
# the paper's labeled algorithms
# --------------------------------------------------------------------------- #
def _shared_construction(
    cache: Optional[Dict[Tuple[int, str], SequenceConstruction]],
    graph: Graph,
    source: int,
    strategy: str,
) -> Optional[SequenceConstruction]:
    """The construction rooted at ``source`` from ``cache``, built on first use.

    ``cache`` is a sweep grid's per-instance dict keyed ``(source, strategy)``,
    so λ and λ_ack label from one construction.  ``None`` without a cache (a
    standalone run builds its own) or for a source outside the graph (the
    labeler then raises its usual error).
    """
    if cache is None or source not in graph:
        return None
    key = (source, strategy)
    if key not in cache:
        cache[key] = core_labeling.build_sequences(graph, source, strategy)
    return cache[key]


def _labels_from_labeling(lab: Labeling, **extras: Any) -> SchemeLabels:
    return SchemeLabels(
        labels=lab.labels,
        label_bits=lab.length,
        distinct_labels=lab.num_distinct_labels(),
        labeling=lab,
        extras=extras,
    )


@register_scheme("lambda")
class LambdaScheme(Scheme):
    """Algorithm B with the 2-bit λ labeling (Theorem 2.9)."""

    kind = "paper"
    description = "2-bit λ labels + universal Algorithm B (≤ 2n−3 rounds)"

    def build_labels(self, graph, source, *, labeling=None, strategy="prune",
                     _constructions=None, **_):
        lab = labeling if labeling is not None else lambda_scheme(
            graph, source, strategy=strategy,
            construction=_shared_construction(_constructions, graph, source, strategy),
        )
        if lab.scheme != "lambda":
            raise GraphError(f"the lambda scheme expects a λ labeling, got {lab.scheme!r}")
        return _labels_from_labeling(lab)

    def default_budget(self, graph, info):
        return _broadcast_bound(graph.n) + 4

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        return SimulationTask(
            protocol="broadcast",
            graph=graph,
            labels=info.labels,
            node_factory=make_broadcast_node,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule="all_informed",
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        if "completion_round" in result.derived:
            completion = result.derived["completion_round"]
        else:
            completion = sim.trace.broadcast_completion_round()
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            labeling=info.labeling,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            bound_broadcast=_broadcast_bound(graph.n),
        )


@register_scheme("lambda_ack")
class LambdaAckScheme(Scheme):
    """Algorithm B_ack with the 3-bit λ_ack labeling (Theorem 3.9)."""

    kind = "paper"
    description = "3-bit λ_ack labels + acknowledged broadcast B_ack (≤ t+n−2)"

    def build_labels(self, graph, source, *, labeling=None, strategy="prune",
                     _constructions=None, **_):
        lab = labeling if labeling is not None else lambda_ack_scheme(
            graph, source, strategy=strategy,
            construction=_shared_construction(_constructions, graph, source, strategy),
        )
        if lab.scheme != "lambda_ack":
            raise GraphError(
                f"the lambda_ack scheme expects a λ_ack labeling, got {lab.scheme!r}"
            )
        return _labels_from_labeling(lab)

    def default_budget(self, graph, info):
        return 3 * graph.n + 6

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        if graph.n == 1:
            # A single-node network: broadcast and acknowledgement are vacuous;
            # one round through the regular backend path suffices.
            max_rounds, stop_rule = 1, None
        else:
            stop_rule = "acknowledged"
        return SimulationTask(
            protocol="acknowledged",
            graph=graph,
            labels=info.labels,
            node_factory=make_acknowledged_node,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule=stop_rule,
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        if graph.n == 1:
            return Outcome(
                scheme=self.name, simulation=sim, completion_round=1,
                labeling=info.labeling, label_bits=info.label_bits,
                distinct_labels=info.distinct_labels, acknowledgement_round=1,
                bound_broadcast=1, bound_acknowledgement=2,
            )
        if "completion_round" in result.derived:
            completion = result.derived["completion_round"]
            ack_round = result.derived.get("acknowledgement_round")
        else:
            completion = sim.trace.broadcast_completion_round()
            ack_round = sim.trace.first_ack_at(task.source)
        bound_ack = None
        if completion is not None:
            bound_ack = completion + max(1, graph.n - 2)
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            labeling=info.labeling,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            acknowledgement_round=ack_round,
            bound_broadcast=_broadcast_bound(graph.n),
            bound_acknowledgement=bound_ack,
        )


@register_scheme("lambda_arb")
class LambdaArbScheme(Scheme):
    """Algorithm B_arb: 3-bit labels, source unknown at labeling time (Section 4)."""

    kind = "paper"
    description = "3-bit λ_arb labels + arbitrary-source broadcast B_arb"

    def build_labels(self, graph, source, *, labeling=None, coordinator=None,
                     strategy="prune", **_):
        lab = labeling if labeling is not None else lambda_arb_scheme(
            graph, coordinator=coordinator, strategy=strategy
        )
        if lab.scheme != "lambda_arb":
            raise GraphError(
                f"the lambda_arb scheme expects a λ_arb labeling, got {lab.scheme!r}"
            )
        return _labels_from_labeling(lab)

    def validate_source(self, graph, source):
        if source not in graph:
            raise GraphError(f"true source {source} is not a node of {graph!r}")

    def grid_options(self, graph, source):
        # Sweep convention: the coordinator is a node other than the source.
        return {"coordinator": 0 if source != 0 else graph.n - 1}

    def default_budget(self, graph, info):
        # Three acknowledged broadcasts plus guard delays: a 12n + 30 budget is
        # comfortably above the worst case (each phase is O(n) rounds).
        return 12 * graph.n + 30

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        lab = info.labeling
        coordinator_node = lab.coordinator if lab.coordinator is not None else 0
        if graph.n == 1:
            return SimulationTask(
                protocol="arbitrary", graph=graph, labels=info.labels,
                node_factory=make_arbitrary_node, source=source, payload=payload,
                max_rounds=1, trace_level=trace_level,
                fault_model=fault_model, clock_model=clock_model,
                extras={"coordinator": coordinator_node},
            )
        return SimulationTask(
            protocol="arbitrary",
            graph=graph,
            labels=info.labels,
            node_factory=make_arbitrary_node,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule="arb_complete",
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
            extras={"coordinator": coordinator_node},
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        true_source = task.source
        coordinator_node = task.extras["coordinator"]
        if graph.n == 1:
            return Outcome(
                scheme=self.name, simulation=sim, completion_round=1,
                labeling=info.labeling, label_bits=info.label_bits,
                distinct_labels=info.distinct_labels, acknowledgement_round=1,
                common_completion_round=1, bound_broadcast=1,
                extras={"true_source": true_source,
                        "coordinator": info.labeling.coordinator},
            )
        if "completion_round" in result.derived:
            completion = result.derived["completion_round"]
            ack_round = result.derived.get("acknowledgement_round")
            common = result.derived.get("common_completion_round")
        else:
            completion, ack_round, common = _derive_arbitrary_outcome(
                graph, sim, true_source, coordinator_node
            )
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            labeling=info.labeling,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            acknowledgement_round=ack_round,
            common_completion_round=common,
            bound_broadcast=_broadcast_bound(graph.n),
            extras={"true_source": true_source, "coordinator": coordinator_node},
        )


def _derive_arbitrary_outcome(graph, sim, true_source, coordinator_node):
    """Assemble B_arb's headline rounds from the trace and node objects.

    Completion for B_arb: every node other than the coordinator and the true
    source hears µ via a SOURCE message in phase 3; the true source holds µ
    from the start; the coordinator learns µ from the phase-2 ack payload.
    The trace-level helper (which requires *every* non-source node to hear a
    SOURCE message) would therefore never credit the coordinator, so the
    completion round is assembled here from those three ingredients.
    """
    ack_round = sim.trace.first_ack_at(coordinator_node)
    receipt_rounds = []
    missing = False
    for v in graph.nodes():
        if v in (true_source, coordinator_node):
            continue
        first = sim.trace.first_source_receipt(v)
        if first is None:
            missing = True
            break
        receipt_rounds.append(first)
    coordinator_knows = any(
        isinstance(node, ArbitrarySourceNode)
        and node.node_id == coordinator_node
        and (node.sourcemsg is not None)
        for node in sim.nodes
    )
    coordinator_learned_round = None
    if coordinator_node != true_source:
        # The phase-2 ack (the one carrying µ) is the last ack the coordinator
        # hears; the trace tracks it incrementally at every level.
        coordinator_learned_round = sim.trace.last_ack_at(coordinator_node)
    completion = None
    if not missing and (coordinator_knows or coordinator_node == true_source):
        candidates = list(receipt_rounds)
        if coordinator_learned_round is not None:
            candidates.append(coordinator_learned_round)
        completion = max(candidates) if candidates else 1
    common_rounds = {
        node.completion_known_local_round
        for node in sim.nodes
        if isinstance(node, ArbitrarySourceNode)
    }
    common = None
    if len(common_rounds) == 1 and None not in common_rounds:
        common = common_rounds.pop()
    return completion, ack_round, common


# --------------------------------------------------------------------------- #
# the comparison baselines
# --------------------------------------------------------------------------- #
@register_scheme("round_robin")
class RoundRobinScheme(Scheme):
    """Folklore round-robin broadcast with distinct O(log n)-bit labels."""

    kind = "baseline"
    description = "distinct-id round-robin TDMA, 2·⌈log₂ n⌉-bit labels"

    def build_labels(self, graph, source, *, labeling=None, **_):
        labels = round_robin_labels(graph)
        return SchemeLabels(
            labels=labels,
            label_bits=max(len(lab) for lab in labels.values()),
            distinct_labels=len(set(labels.values())),
        )

    def default_budget(self, graph, info):
        return graph.n * (graph.n + 2)

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        def factory(node_id, label, is_source, source_payload):
            return RoundRobinNode(node_id, label, is_source=is_source,
                                  source_payload=source_payload)

        return SimulationTask(
            protocol="round_robin",
            graph=graph,
            labels=info.labels,
            node_factory=factory,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule="all_informed",
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        completion = result.derived.get(
            "completion_round", sim.trace.broadcast_completion_round()
        )
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            extras={"period": graph.n},
        )


@register_scheme("coloring_tdma")
class ColoringTdmaScheme(Scheme):
    """TDMA broadcast from a proper coloring of G² (O(log Δ)-bit labels)."""

    kind = "baseline"
    description = "G²-coloring TDMA, collision-free by construction"

    def build_labels(self, graph, source, *, labeling=None, **_):
        labels, num_colours = coloring_tdma_labels(graph)
        return SchemeLabels(
            labels=labels,
            label_bits=max(len(lab) for lab in labels.values()),
            distinct_labels=len(set(labels.values())),
            extras={"num_colours": num_colours},
        )

    def default_budget(self, graph, info):
        return info.extras["num_colours"] * (graph.n + 2)

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        def factory(node_id, label, is_source, source_payload):
            return ColoringTdmaNode(node_id, label, is_source=is_source,
                                    source_payload=source_payload)

        return SimulationTask(
            protocol="coloring_tdma",
            graph=graph,
            labels=info.labels,
            node_factory=factory,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule="all_informed",
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        completion = result.derived.get(
            "completion_round", sim.trace.broadcast_completion_round()
        )
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            extras={"num_colours": info.extras["num_colours"]},
        )


@register_scheme("collision_detection")
class CollisionDetectionScheme(Scheme):
    """Anonymous bit-signalling broadcast under collision detection."""

    kind = "baseline"
    description = "label-free bit signalling (needs the detection channel)"

    def build_labels(self, graph, source, *, labeling=None, with_detection=True,
                     payload="MSG", **_):
        # The symbol stream, and so the round budget, grows with the payload.
        symbol_count = 1 + LENGTH_HEADER_BITS + 8 * len(str(payload).encode("utf-8"))
        return SchemeLabels(
            labels={v: "0" for v in graph.nodes()},
            label_bits=0,
            distinct_labels=1,
            extras={"with_detection": bool(with_detection), "symbol_count": symbol_count},
        )

    def default_budget(self, graph, info):
        return SLOT_LENGTH * info.extras["symbol_count"] + graph.n + 10

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        def factory(node_id, label, is_source, source_payload):
            return BitSignalNode(node_id, label, is_source=is_source,
                                 source_payload=source_payload)

        with_detection = info.extras["with_detection"]
        return SimulationTask(
            protocol="collision_detection",
            graph=graph,
            labels=info.labels,
            node_factory=factory,
            source=source,
            payload=str(payload),
            max_rounds=max_rounds,
            stop_rule="all_decoded",
            trace_level=trace_level,
            collision_model=WithCollisionDetection() if with_detection else None,
            fault_model=fault_model,
            clock_model=clock_model,
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        payload = task.payload
        if "decoded_correctly" in result.derived:
            decoded_ok = result.derived["decoded_correctly"]
        else:
            decoded_ok = all(
                isinstance(node, BitSignalNode) and node.decoded == str(payload)
                for node in sim.nodes
            )
        completion = sim.stop_round if (sim.completed and decoded_ok) else None
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            label_bits=0,
            distinct_labels=1,
            extras={
                "symbols": info.extras["symbol_count"],
                "slot_length": SLOT_LENGTH,
                "with_detection": info.extras["with_detection"],
                "decoded_correctly": decoded_ok,
            },
        )


@register_scheme("centralized")
class CentralizedScheme(Scheme):
    """Centralized known-topology greedy schedule (unbounded advice)."""

    kind = "baseline"
    description = "precomputed greedy schedule, unbounded advice size"

    def build_labels(self, graph, source, *, labeling=None, strategy="greedy", **_):
        schedule = compute_centralized_schedule(graph, source, strategy=strategy)
        per_node_rounds: Dict[int, set] = {v: set() for v in graph.nodes()}
        for idx, transmitters in enumerate(schedule, start=1):
            for v in transmitters:
                per_node_rounds[v].add(idx)
        # Advice size: each scheduled round index costs ceil(log2(len+1)) bits.
        round_bits = bits_needed(len(schedule) + 1)
        label_bits = max(
            (len(rounds) * round_bits for rounds in per_node_rounds.values()), default=0
        )
        return SchemeLabels(
            labels={v: "0" for v in graph.nodes()},
            label_bits=label_bits,
            distinct_labels=len({frozenset(r) for r in per_node_rounds.values()}),
            extras={
                "schedule": [sorted(int(v) for v in s) for s in schedule],
                "per_node_rounds": per_node_rounds,
            },
        )

    def default_budget(self, graph, info):
        return len(info.extras["schedule"]) + 2

    def build_task(self, graph, info, source, *, payload, max_rounds, trace_level,
                   fault_model, clock_model):
        per_node_rounds = info.extras["per_node_rounds"]

        def factory(node_id, label, is_source, source_payload):
            return ScheduledNode(
                node_id, label, is_source=is_source, source_payload=source_payload,
                transmit_rounds=per_node_rounds[node_id],
            )

        # The schedule travels in extras so array backends can execute it
        # natively; the node factory covers the reference engine.
        return SimulationTask(
            protocol="centralized",
            graph=graph,
            labels=info.labels,
            node_factory=factory,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule="all_informed",
            trace_level=trace_level,
            fault_model=fault_model,
            clock_model=clock_model,
            extras={"schedule": info.extras["schedule"]},
        )

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        completion = result.derived.get(
            "completion_round", sim.trace.broadcast_completion_round()
        )
        return Outcome(
            scheme=self.name,
            simulation=sim,
            completion_round=completion,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            extras={"schedule_length": len(info.extras["schedule"])},
        )
