"""Metrics, theoretical bounds, sweeps and report tables."""

from .bounds import (
    PaperBounds,
    ack_round_window,
    broadcast_round_bound,
    broadcast_round_bound_sharp,
    coloring_label_bits,
    distinct_label_bound,
    round_robin_label_bits,
    scheme_length_bound,
)
from .metrics import (
    RunMetrics,
    aggregate,
    message_bits_total,
    metrics_from_run,
    per_round_transmitter_counts,
)
from .executor import chunk_specs, default_jobs
from .report import (
    format_aggregate_table,
    format_comparison,
    format_metrics_table,
    format_table,
    metrics_to_csv,
    metrics_to_json,
)
from .stream import (
    COLUMN_ALIASES,
    StreamAggregator,
    aggregate_result_set,
    compute_stats,
    filter_result_set,
    resolve_column,
    resolve_group_columns,
    status_matches,
    stream_aggregate,
)
from .sweep import SweepInstance, instance_seed, materialize_instance

__all__ = [
    "COLUMN_ALIASES",
    "PaperBounds",
    "RunMetrics",
    "StreamAggregator",
    "SweepInstance",
    "ack_round_window",
    "aggregate",
    "aggregate_result_set",
    "broadcast_round_bound",
    "broadcast_round_bound_sharp",
    "chunk_specs",
    "coloring_label_bits",
    "compute_stats",
    "default_jobs",
    "distinct_label_bound",
    "filter_result_set",
    "format_aggregate_table",
    "format_comparison",
    "format_metrics_table",
    "format_table",
    "instance_seed",
    "materialize_instance",
    "message_bits_total",
    "metrics_from_run",
    "metrics_to_csv",
    "metrics_to_json",
    "per_round_transmitter_counts",
    "resolve_column",
    "resolve_group_columns",
    "round_robin_label_bits",
    "scheme_length_bound",
    "status_matches",
    "stream_aggregate",
]
