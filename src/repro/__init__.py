"""repro — reproduction of "Constant-Length Labeling Schemes for Deterministic
Radio Broadcast" (Ellen, Gorain, Miller, Pelc; SPAA 2019).

The package is organised in layers:

* :mod:`repro.graphs`    — graph substrate (generators, properties, I/O);
* :mod:`repro.radio`     — the round-synchronous radio-network simulator;
* :mod:`repro.core`      — the paper's labeling schemes and universal
  algorithms (λ/B, λ_ack/B_ack, λ_arb/B_arb), plus verification of every
  lemma/theorem against simulation traces;
* :mod:`repro.baselines` — the comparison schemes the paper's introduction
  discusses (round-robin, G²-colouring TDMA, collision-detection signalling,
  centralised BFS schedules);
* :mod:`repro.analysis`  — metrics, theoretical bounds, sweeps and reports;
* :mod:`repro.viz`       — ASCII rendering of graphs and executions,
  including the reproduction of the paper's Figure 1.

Quick start::

    from repro import api, grid_graph
    g = grid_graph(4, 4)
    outcome = api.get_scheme("lambda").run(g, 0)
    print(outcome.completion_round, "<=", outcome.bound_broadcast)

Every registered scheme (the paper's three and the four baselines) runs one
execution through ``api.get_scheme(name).run(graph, source, ...)``, and a
declarative scenario through ``api.run(scenario)``.
"""

from .graphs import (
    Graph,
    GraphBuilder,
    GraphError,
    complete_graph,
    cycle_graph,
    generate_family,
    grid_graph,
    path_graph,
    random_geometric_graph,
    random_gnp_graph,
    random_tree,
    star_graph,
)
from .core import (
    Labeling,
    Outcome,
    build_sequences,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    verify_broadcast_outcome,
)
from .radio import ExecutionTrace, Message, RadioSimulator
from . import api

__version__ = "1.0.0"

__all__ = [
    "ExecutionTrace",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Labeling",
    "Message",
    "Outcome",
    "RadioSimulator",
    "__version__",
    "api",
    "build_sequences",
    "complete_graph",
    "cycle_graph",
    "generate_family",
    "grid_graph",
    "lambda_ack_scheme",
    "lambda_arb_scheme",
    "lambda_scheme",
    "path_graph",
    "random_geometric_graph",
    "random_gnp_graph",
    "random_tree",
    "star_graph",
    "verify_broadcast_outcome",
]
