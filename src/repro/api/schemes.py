"""The scheme registry: every algorithm behind one uniform protocol.

The paper is a *comparison* — λ / λ_ack / λ_arb against round-robin,
G²-coloring TDMA, collision-detection signalling and the centralized
schedule — so the experiment surface treats all seven identically.  A
:class:`Scheme` decomposes one end-to-end execution into the three steps every
scheme shares:

1. **labeler** (:meth:`Scheme.build_labels`) — compute (or validate a reused)
   labeling and its advice-size metadata;
2. **task builder** (:meth:`Scheme.build_task`, one for every scheme) —
   describe the execution as a pure-data
   :class:`~repro.backends.base.SimulationTask`: the scheme's protocol name
   and stop rule, the budget, the channel models and protocol data such as
   a schedule.  Each backend alone knows how to run each protocol;
3. **outcome deriver** (:meth:`Scheme.derive_outcome`) — turn the backend
   result's ``derived`` dict, which every backend fills with the same keys,
   into the unified :class:`~repro.core.outcome.Outcome`.

:meth:`Scheme.run` is the template method gluing the three together through
:func:`~repro.backends.resolve_backend`: ``get_scheme(name).run(graph,
source, ...)`` is the one graph-level way to run one execution, and
``repro.api.run`` and the CLI call it.  The grid runner calls the three steps
itself, so it can share labels across an instance's rows and stack tasks.
New schemes plug in with::

    @register_scheme("my_scheme")
    class MyScheme(Scheme):
        protocol = "broadcast"
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
from ..baselines.centralized import compute_centralized_schedule, transmit_rounds
from ..baselines.collision_detection import LENGTH_HEADER_BITS, SLOT_LENGTH
from ..baselines.coloring_tdma import coloring_tdma_labels
from ..baselines.round_robin import round_robin_labels
from ..core import labeling as core_labeling
from ..core.labeling import (
    Labeling,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
)
from ..core.outcome import Outcome
from ..core.protocols.arbitrary import COORDINATOR_LABEL
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
    #: The :data:`~repro.backends.base.PROTOCOLS` entry its nodes run.
    protocol: str = ""
    #: The :data:`~repro.backends.base.STOP_RULES` entry its tasks stop by.
    stop_rule: str = "all_informed"
    #: True where broadcast and acknowledgement are vacuous in a one-node
    #: network, whose task is then one round with no stop rule.
    one_round_alone: bool = False

    # ------------------------------------------------------------------ #
    # the scheme-specific steps
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
    def derive_outcome(
        self, graph: Graph, task: SimulationTask, result: BackendResult, info: SchemeLabels
    ) -> Outcome:
        """Assemble the unified :class:`Outcome` from ``result.derived``."""

    # ------------------------------------------------------------------ #
    # the shared task builder and outcome helper
    # ------------------------------------------------------------------ #
    def task_extras(self, info: SchemeLabels) -> Dict[str, Any]:
        """Protocol data the task carries (see :attr:`SimulationTask.extras`)."""
        return {}

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
        """Describe the execution as pure data for the backend layer.

        Schemes differ here only in :attr:`protocol`, :attr:`stop_rule`,
        :attr:`one_round_alone` and :meth:`task_extras`, and in the detection
        channel a bit-signalling labeler asks for.
        """
        stop_rule: Optional[str] = self.stop_rule
        if graph.n == 1 and self.one_round_alone:
            max_rounds, stop_rule = 1, None
        detection = info.extras.get("with_detection", False)
        return SimulationTask(
            protocol=self.protocol,
            graph=graph,
            labels=info.labels,
            source=source,
            payload=payload,
            max_rounds=max_rounds,
            stop_rule=stop_rule,
            trace_level=trace_level,
            collision_model=WithCollisionDetection() if detection else None,
            fault_model=fault_model,
            clock_model=clock_model,
            extras=self.task_extras(info),
        )

    def outcome(self, result: BackendResult, info: SchemeLabels, **fields: Any) -> Outcome:
        """An :class:`Outcome` of this scheme's run, labeling fields filled in."""
        return Outcome(
            scheme=self.name,
            simulation=result.simulation,
            labeling=info.labeling,
            label_bits=info.label_bits,
            distinct_labels=info.distinct_labels,
            **fields,
        )

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


def _labels_from_labeling(lab: Labeling) -> SchemeLabels:
    return SchemeLabels(
        labels=lab.labels,
        label_bits=lab.length,
        distinct_labels=lab.num_distinct_labels(),
        labeling=lab,
    )


@register_scheme("lambda")
class LambdaScheme(Scheme):
    """Algorithm B with the 2-bit λ labeling (Theorem 2.9)."""

    kind = "paper"
    description = "2-bit λ labels + universal Algorithm B (≤ 2n−3 rounds)"
    protocol = "broadcast"

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

    def derive_outcome(self, graph, task, result, info):
        return self.outcome(
            result, info,
            completion_round=result.derived["completion_round"],
            bound_broadcast=_broadcast_bound(graph.n),
        )


@register_scheme("lambda_ack")
class LambdaAckScheme(Scheme):
    """Algorithm B_ack with the 3-bit λ_ack labeling (Theorem 3.9)."""

    kind = "paper"
    description = "3-bit λ_ack labels + acknowledged broadcast B_ack (≤ t+n−2)"
    protocol = "acknowledged"
    stop_rule = "acknowledged"
    one_round_alone = True

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

    def derive_outcome(self, graph, task, result, info):
        if graph.n == 1:
            return self.outcome(
                result, info, completion_round=1, acknowledgement_round=1,
                bound_broadcast=1, bound_acknowledgement=2,
            )
        completion = result.derived["completion_round"]
        return self.outcome(
            result, info,
            completion_round=completion,
            acknowledgement_round=result.derived["acknowledgement_round"],
            bound_broadcast=_broadcast_bound(graph.n),
            bound_acknowledgement=(
                None if completion is None else completion + max(1, graph.n - 2)
            ),
        )


@register_scheme("lambda_arb")
class LambdaArbScheme(Scheme):
    """Algorithm B_arb: 3-bit labels, source unknown at labeling time (Section 4)."""

    kind = "paper"
    description = "3-bit λ_arb labels + arbitrary-source broadcast B_arb"
    protocol = "arbitrary"
    stop_rule = "arb_complete"
    one_round_alone = True

    def build_labels(self, graph, source, *, labeling=None, coordinator=None,
                     strategy="prune", **_):
        lab = labeling if labeling is not None else lambda_arb_scheme(
            graph, coordinator=coordinator, strategy=strategy
        )
        if lab.scheme != "lambda_arb":
            raise GraphError(
                f"the lambda_arb scheme expects a λ_arb labeling, got {lab.scheme!r}"
            )
        # The nodes recognise the coordinator by its label alone, so the
        # labeling must name the node that carries it.
        if lab.coordinator is None or lab.labels.get(lab.coordinator) != COORDINATOR_LABEL:
            raise GraphError(
                f"a λ_arb labeling must name its coordinator, the node labelled "
                f"{COORDINATOR_LABEL!r}; got coordinator {lab.coordinator!r}"
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

    def task_extras(self, info):
        return {"coordinator": info.labeling.coordinator}

    def derive_outcome(self, graph, task, result, info):
        extras = {"true_source": task.source, "coordinator": task.extras["coordinator"]}
        if graph.n == 1:
            return self.outcome(
                result, info, completion_round=1, acknowledgement_round=1,
                common_completion_round=1, bound_broadcast=1, extras=extras,
            )
        return self.outcome(
            result, info,
            completion_round=result.derived["completion_round"],
            acknowledgement_round=result.derived["acknowledgement_round"],
            common_completion_round=result.derived["common_completion_round"],
            bound_broadcast=_broadcast_bound(graph.n),
            extras=extras,
        )


# --------------------------------------------------------------------------- #
# the comparison baselines
# --------------------------------------------------------------------------- #
def _slot_labels(labels: Dict[int, str], **extras: Any) -> SchemeLabels:
    return SchemeLabels(
        labels=labels,
        label_bits=max(len(lab) for lab in labels.values()),
        distinct_labels=len(set(labels.values())),
        extras=extras,
    )


@register_scheme("round_robin")
class RoundRobinScheme(Scheme):
    """Folklore round-robin broadcast with distinct O(log n)-bit labels."""

    kind = "baseline"
    description = "distinct-id round-robin TDMA, 2·⌈log₂ n⌉-bit labels"
    protocol = "round_robin"

    def build_labels(self, graph, source, *, labeling=None, **_):
        return _slot_labels(round_robin_labels(graph))

    def default_budget(self, graph, info):
        return graph.n * (graph.n + 2)

    def derive_outcome(self, graph, task, result, info):
        return self.outcome(
            result, info,
            completion_round=result.derived["completion_round"],
            extras={"period": graph.n},
        )


@register_scheme("coloring_tdma")
class ColoringTdmaScheme(Scheme):
    """TDMA broadcast from a proper coloring of G² (O(log Δ)-bit labels)."""

    kind = "baseline"
    description = "G²-coloring TDMA, collision-free by construction"
    protocol = "coloring_tdma"

    def build_labels(self, graph, source, *, labeling=None, **_):
        labels, num_colours = coloring_tdma_labels(graph)
        return _slot_labels(labels, num_colours=num_colours)

    def default_budget(self, graph, info):
        return info.extras["num_colours"] * (graph.n + 2)

    def derive_outcome(self, graph, task, result, info):
        return self.outcome(
            result, info,
            completion_round=result.derived["completion_round"],
            extras={"num_colours": info.extras["num_colours"]},
        )


@register_scheme("collision_detection")
class CollisionDetectionScheme(Scheme):
    """Anonymous bit-signalling broadcast under collision detection."""

    kind = "baseline"
    description = "label-free bit signalling (needs the detection channel)"
    protocol = "collision_detection"
    stop_rule = "all_decoded"

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

    def derive_outcome(self, graph, task, result, info):
        sim = result.simulation
        decoded_ok = result.derived["decoded_correctly"]
        return self.outcome(
            result, info,
            completion_round=sim.stop_round if (sim.completed and decoded_ok) else None,
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
    protocol = "centralized"

    def build_labels(self, graph, source, *, labeling=None, strategy="greedy", **_):
        schedule = [
            sorted(int(v) for v in transmitters)
            for transmitters in compute_centralized_schedule(graph, source, strategy=strategy)
        ]
        per_node_rounds = transmit_rounds(schedule, graph.n)
        # Advice size: each scheduled round index costs ceil(log2(len+1)) bits.
        round_bits = bits_needed(len(schedule) + 1)
        return SchemeLabels(
            labels={v: "0" for v in graph.nodes()},
            label_bits=max((len(r) * round_bits for r in per_node_rounds), default=0),
            distinct_labels=len({frozenset(r) for r in per_node_rounds}),
            extras={"schedule": schedule},
        )

    def default_budget(self, graph, info):
        return len(info.extras["schedule"]) + 2

    def task_extras(self, info):
        return {"schedule": info.extras["schedule"]}

    def derive_outcome(self, graph, task, result, info):
        return self.outcome(
            result, info,
            completion_round=result.derived["completion_round"],
            extras={"schedule_length": len(info.extras["schedule"])},
        )
