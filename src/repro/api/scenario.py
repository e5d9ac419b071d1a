"""Declarative scenario configs: one experiment as serializable data.

A :class:`Scenario` describes everything one scheme execution needs — the
graph (a generator spec ``family:n[:seed]``, an edge-list file path, or an
inline :class:`~repro.graphs.graph.Graph`), the source rule, the payload, the
channel perturbations, the backend, the trace level and the round budget — as
plain data that round-trips through JSON.  That makes experiments
version-controllable (``repro run scenario.json``), reproducible and shippable
to worker processes, which rematerialize the graph and the channel models from
the spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..graphs.generators import family_names, generate_family
from ..graphs.graph import Graph, GraphError
from ..graphs.io import load_edge_list
from .specs import ClockSpec, FaultSpec, normalize_clock_spec, normalize_fault_spec

__all__ = ["Scenario", "SOURCE_RULES", "graph_from_spec", "pick_source"]

#: Named source rules a scenario (or sweep config) may use instead of a node id.
SOURCE_RULES = ("zero", "last", "center-ish")


def graph_from_spec(spec: str) -> Graph:
    """Parse ``family:n[:seed]`` or an edge-list file path into a graph.

    Raises :class:`ValueError` (the common base of :class:`GraphError`) on
    malformed specs, unknown families and non-positive sizes, *before* any
    generator runs — so errors surface as one clear message instead of a
    traceback from deep inside a generator.
    """
    if Path(spec).exists():
        return load_edge_list(spec)
    parts = spec.split(":")
    if len(parts) not in (2, 3) or parts[0] not in family_names():
        raise ValueError(
            f"graph spec {spec!r} is neither an existing file nor 'family:n[:seed]' "
            f"with family in {family_names()}"
        )
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"graph spec {spec!r}: size {parts[1]!r} is not an integer") from None
    if n <= 0:
        raise ValueError(f"graph spec {spec!r}: size must be a positive integer, got {n}")
    seed = 0
    if len(parts) == 3:
        try:
            seed = int(parts[2])
        except ValueError:
            raise ValueError(
                f"graph spec {spec!r}: seed {parts[2]!r} is not an integer"
            ) from None
    return generate_family(parts[0], n, seed)


def pick_source(graph: Graph, rule: Union[int, str]) -> int:
    """Resolve a source rule (node id or ``"zero"``/``"last"``/``"center-ish"``)."""
    if isinstance(rule, bool):  # bool is an int subclass; reject it explicitly
        raise ValueError(f"unknown source rule {rule!r}")
    if isinstance(rule, int):
        if rule not in graph:
            raise GraphError(f"source {rule} is not a node of {graph!r}")
        return rule
    if rule == "zero":
        return 0
    if rule == "last":
        return graph.n - 1
    if rule == "center-ish":
        return graph.n // 2
    raise ValueError(f"unknown source rule {rule!r}; known: {SOURCE_RULES} or a node id")


@dataclass
class Scenario:
    """One experiment, described declaratively.

    Attributes
    ----------
    graph:
        ``"family:n[:seed]"`` generator spec, an edge-list file path, or an
        inline :class:`Graph` (serialized as ``{"n": ..., "edges": [...]}``).
    scheme:
        Registered scheme name (see :func:`repro.api.scheme_names`).
    source:
        Node id, or one of the named rules ``"zero"`` / ``"last"`` /
        ``"center-ish"``.
    payload:
        The source message µ (any JSON-serializable value).
    faults / clock:
        Declarative channel perturbation specs (see :mod:`repro.api.specs`);
        ``None`` selects the paper's reliable synchronized model.
    backend:
        Backend name (``"reference"`` or ``"vectorized"``), or ``None``
        for the reference default.
    trace_level:
        ``"full"`` / ``"summary"`` / ``"none"``.
    max_rounds:
        Round budget; ``None`` uses the scheme's theoretical default.
    options:
        Scheme-specific options (``strategy``, ``coordinator``,
        ``with_detection``, …) forwarded to :meth:`Scheme.run`.
    """

    graph: Union[str, Graph]
    scheme: str = "lambda"
    source: Union[int, str] = 0
    payload: Any = "MSG"
    faults: FaultSpec = None
    clock: ClockSpec = None
    backend: Optional[str] = None
    trace_level: str = "full"
    max_rounds: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.faults = normalize_fault_spec(self.faults)
        self.clock = normalize_clock_spec(self.clock)
        if self.trace_level not in ("full", "summary", "none"):
            raise ValueError(f"unknown trace level {self.trace_level!r}")

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def materialize_graph(self) -> Graph:
        """The concrete graph this scenario runs on."""
        if isinstance(self.graph, Graph):
            return self.graph
        return graph_from_spec(self.graph)

    def resolve_source(self, graph: Graph) -> int:
        """The concrete source node on ``graph``."""
        return pick_source(graph, self.source)

    @property
    def family(self) -> str:
        """A short tag for the graph (family name for specs, ``"custom"`` inline)."""
        if isinstance(self.graph, str):
            return self.graph.split(":")[0]
        return "custom"

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form; inverse of :meth:`from_dict`."""
        graph: Any = self.graph
        if isinstance(graph, Graph):
            graph = {
                "n": graph.n,
                "edges": [[int(u), int(v)] for u, v in sorted(graph.edges())],
            }
        return {
            "graph": graph,
            "scheme": self.scheme,
            "source": self.source,
            "payload": self.payload,
            "faults": self.faults,
            "clock": self.clock,
            "backend": self.backend,
            "trace_level": self.trace_level,
            "max_rounds": self.max_rounds,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(doc, dict):
            raise TypeError(f"scenario document must be a dict, got {type(doc).__name__}")
        data = dict(doc)
        # Documents written while the sharded engine existed carry
        # ``"shards": null``; a real shard count named an engine that is gone.
        shards = data.pop("shards", None)
        if shards is not None:
            raise ValueError(
                f"scenario sets shards={shards!r}, but the sharded backend was "
                f"retired; the vectorized backend runs large instances on one "
                f"core, so drop 'shards' (and set backend 'vectorized')"
            )
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields {unknown}; known: {sorted(known)}")
        graph = data.get("graph")
        if isinstance(graph, dict):
            data["graph"] = Graph.from_edges(
                int(graph["n"]), [(int(u), int(v)) for u, v in graph.get("edges", [])]
            )
        elif not isinstance(graph, (str, Graph)):
            raise ValueError(
                "scenario 'graph' must be a 'family:n[:seed]' spec, a file path "
                "or an inline {'n': ..., 'edges': [...]} object"
            )
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        """JSON text; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        """Write the scenario as JSON to ``path``."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Read a scenario from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
