"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same kind of rows/series the paper's claims
describe (completion round vs. bound, label length vs. baseline label length,
who wins and by what factor), formatted as aligned monospace tables so they
read well in CI logs; "Deviations from the paper" in the README says where a
table checks a claim other than literally.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_metrics_table",
    "format_aggregate_table",
    "format_comparison",
    "metrics_to_json",
    "metrics_to_csv",
    "aggregate_to_dicts",
]


def _metric_dicts(metrics: Sequence) -> List[Dict[str, Any]]:
    """Row dicts for a metrics sequence.

    A columnar :class:`~repro.store.ResultSet` exports its rows in one
    columnar pass (``to_dicts``); plain row sequences flatten per dataclass.
    """
    if hasattr(metrics, "to_dicts"):
        return metrics.to_dicts()
    return [m.as_dict() for m in metrics]


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    *,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    header = [str(c) for c in cols]
    body = [[_cell(row.get(c)) for c in cols] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(cols))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def format_metrics_table(metrics: Sequence, *, title: Optional[str] = None) -> str:
    """Render a sequence of :class:`~repro.analysis.metrics.RunMetrics` rows.

    The ``fault`` / ``clock`` / ``status`` columns only appear when some row
    ran under a non-default channel model (or recorded a ``--keep-going``
    failure), so plain sweeps render exactly as before.
    """
    rows = _metric_dicts(metrics)
    columns = [
        "scheme",
        "family",
        "n",
        "source_eccentricity",
        "label_bits",
        "distinct_labels",
        "completion_round",
        "bound",
        "acknowledgement_round",
        "transmissions",
        "collisions",
    ]
    if any(row.get("fault", "none") != "none" for row in rows):
        columns.append("fault")
    if any(row.get("clock", "sync") != "sync" for row in rows):
        columns.append("clock")
    if len({row.get("backend", "") for row in rows} - {""}) > 1:
        # Mixed execution provenance (some cells rode a fallback engine):
        # surface which engine actually ran each row.
        columns.append("backend")
    if any(row.get("status", "ok") != "ok" for row in rows):
        columns.append("status")
    return format_table(rows, columns, title=title)


def aggregate_to_dicts(groups: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten aggregate groups (``[{"by": ..., "stats": ...}]``) to one dict
    per group — grouping columns first, then the statistics in kernel order.

    This is the row shape every aggregate output surface (table, json, csv)
    renders, so ``repro results --agg`` and ``repro query --agg`` emit
    identical documents for identical data.
    """
    return [{**group["by"], **group["stats"]} for group in groups]


def format_aggregate_table(
    groups: Sequence[Mapping[str, Any]],
    *,
    column: str,
    title: Optional[str] = None,
) -> str:
    """Render streaming/eager aggregate output as an aligned table.

    One row per group: the grouping columns, then ``count``/``mean``/``std``
    and the percentile spread (``p05``/``median``/``p95``) with ``min``/
    ``max`` — plus the bootstrap CI bounds when present.
    """
    rows = aggregate_to_dicts(groups)
    if title is None:
        title = f"aggregate of {column}"
    columns = list(rows[0].keys()) if rows else None
    return format_table(rows, columns, title=title)


def metrics_to_json(metrics: Sequence, *, indent: int = 2) -> str:
    """Serialise :class:`~repro.analysis.metrics.RunMetrics` rows as a JSON array.

    Machine-readable export for ``repro sweep --output json`` and downstream
    tooling; field order follows the dataclass definition, row order is the
    sweep order.
    """
    return json.dumps(_metric_dicts(metrics), indent=indent)


def metrics_to_csv(metrics: Sequence) -> str:
    """Serialise :class:`~repro.analysis.metrics.RunMetrics` rows as CSV text.

    The header row lists every metrics field and is emitted even for an
    empty sequence (exports stay concatenable); ``None`` cells are left empty.
    """
    from .metrics import RunMetrics

    buffer = io.StringIO()
    rows = _metric_dicts(metrics)
    if rows:
        fieldnames = list(rows[0].keys())
    else:
        fieldnames = [field.name for field in dataclasses.fields(RunMetrics)]
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buffer.getvalue()


def format_comparison(
    reference_rows: Sequence,
    baseline_rows: Sequence,
    *,
    field: str = "completion_round",
    title: Optional[str] = None,
) -> str:
    """Side-by-side comparison of a numeric field, grouped by (family, n).

    Produces one row per (family, n) with a column per scheme plus the ratio
    of every baseline to the reference scheme (the paper's λ).
    """
    grouped: Dict[tuple, Dict[str, Any]] = {}
    for row in list(reference_rows) + list(baseline_rows):
        key = (row.family, row.n)
        grouped.setdefault(key, {"family": row.family, "n": row.n})
        grouped[key][row.scheme] = getattr(row, field)
    rows: List[Dict[str, Any]] = []
    for key in sorted(grouped):
        entry = grouped[key]
        ref_values = [v for k, v in entry.items() if k not in ("family", "n") and k.startswith("lambda")]
        ref = ref_values[0] if ref_values else None
        out = dict(entry)
        if ref:
            for scheme, value in list(entry.items()):
                if scheme in ("family", "n") or scheme.startswith("lambda"):
                    continue
                if isinstance(value, (int, float)) and value:
                    out[f"{scheme}/λ"] = round(value / ref, 2)
        rows.append(out)
    columns = sorted({c for r in rows for c in r}, key=lambda c: (c not in ("family", "n"), c))
    return format_table(rows, columns, title=title)
