"""Graph serialization: edge lists, adjacency JSON, DIMACS, and networkx interop.

File formats are intentionally simple and line-oriented so experiment inputs
can be version-controlled and diffed.  All round-trips are exact (node count,
edge set and, where applicable, node names are preserved).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .graph import Graph, GraphError

__all__ = [
    "to_edge_list",
    "from_edge_list",
    "save_edge_list",
    "load_edge_list",
    "to_adjacency_json",
    "from_adjacency_json",
    "to_dimacs",
    "from_dimacs",
    "to_networkx",
    "from_networkx",
]

PathLike = Union[str, Path]


def _ints(tokens: Sequence[str], line: str, what: str) -> Tuple[int, ...]:
    """Parse ``tokens`` as integers, or raise a :class:`GraphError` naming ``line``."""
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise GraphError(f"bad {what} {line!r}: expected integers") from None


# --------------------------------------------------------------------------- #
# edge-list text format: first line "n m", then one "u v" line per edge
# --------------------------------------------------------------------------- #
def to_edge_list(graph: Graph) -> str:
    """Serialise to the plain edge-list text format."""
    lines = [f"{graph.n} {graph.num_edges}"]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse the plain edge-list text format produced by :func:`to_edge_list`.

    Blank lines and lines starting with ``#`` (after indentation) are
    skipped.  Every malformed line raises :class:`GraphError` naming it.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list document")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"edge-list header must be 'n m', got {lines[0]!r}")
    n, m = _ints(header, lines[0], "edge-list header")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append(_ints(parts, ln, "edge line"))
    if len(edges) != m:
        raise GraphError(f"header promised {m} edges but found {len(edges)}")
    return Graph.from_edges(n, edges)


def save_edge_list(graph: Graph, path: PathLike) -> None:
    """Write the edge-list format to ``path``."""
    Path(path).write_text(to_edge_list(graph), encoding="utf-8")


def load_edge_list(path: PathLike) -> Graph:
    """Read a graph from an edge-list file."""
    return from_edge_list(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# adjacency JSON (keeps names)
# --------------------------------------------------------------------------- #
def to_adjacency_json(graph: Graph) -> str:
    """Serialise to a JSON document with node count, adjacency and optional names."""
    doc = {
        "n": graph.n,
        "adjacency": {str(u): sorted(graph.neighbors(u)) for u in range(graph.n)},
        "names": list(graph.names) if graph.names is not None else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def from_adjacency_json(text: str) -> Graph:
    """Parse the JSON document produced by :func:`to_adjacency_json`."""
    doc = json.loads(text)
    n = int(doc["n"])
    edges = []
    for u_str, nbrs in doc.get("adjacency", {}).items():
        u = int(u_str)
        for v in nbrs:
            edges.append((u, int(v)))
    names = doc.get("names")
    return Graph.from_edges(n, edges, names=names)


# --------------------------------------------------------------------------- #
# DIMACS (1-indexed "p edge n m" / "e u v" lines)
# --------------------------------------------------------------------------- #
def to_dimacs(graph: Graph) -> str:
    """Serialise to the DIMACS edge format (nodes are 1-indexed on disk)."""
    lines = [f"p edge {graph.n} {graph.num_edges}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    """Parse the DIMACS edge format.

    Blank lines and ``c`` comment lines are skipped; lines of any other kind
    than ``p`` and ``e`` are ignored.  A malformed ``p`` or ``e`` line raises
    :class:`GraphError` naming it.
    """
    n: Optional[int] = None
    edges: List[Tuple[int, int]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            parts = ln.split()
            if len(parts) < 4:
                raise GraphError(f"bad DIMACS problem line {ln!r}")
            n, _ = _ints(parts[2:4], ln, "DIMACS problem line")
        elif ln.startswith("e"):
            parts = ln.split()
            if len(parts) < 3:
                raise GraphError(f"bad DIMACS edge line {ln!r}")
            u, v = _ints(parts[1:3], ln, "DIMACS edge line")
            edges.append((u - 1, v - 1))
    if n is None:
        raise GraphError("DIMACS document has no problem line")
    return Graph.from_edges(n, edges)


# --------------------------------------------------------------------------- #
# networkx interop (optional dependency, used for cross-validation tests)
# --------------------------------------------------------------------------- #
def to_networkx(graph: Graph):
    """Convert to a :class:`networkx.Graph` (requires networkx)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return g


def from_networkx(nx_graph) -> Graph:
    """Convert from a networkx graph (nodes are relabelled to 0..n-1 in sorted order)."""
    nodes = sorted(nx_graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
    return Graph.from_edges(len(nodes), edges, names=[str(v) for v in nodes])
