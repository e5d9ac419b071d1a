"""Segment compaction: garbage-collect a result store in place.

An append-only store accumulates three kinds of dead bytes over its life:
duplicate lines for one key (concurrent writers racing the same cell),
retired-schema lines left behind by a schema bump, and junk from repaired
torn tails (hard-killed writers).  :func:`compact_store` rewrites each
segment down to exactly one line per live key — the *winning* (last valid)
line, kept byte-for-byte verbatim, in first-appended key order — so
compaction never changes the row bytes, keys or resume semantics of the
store, only removes lines that no read could ever serve.

``format="columnar"`` compacts each shard's winners into a binary columnar
segment instead (``<x>.colseg``, :mod:`repro.store.columnar`): JSONL rows
are merged over any existing columnar rows (JSONL is always the newer
generation), the merged winners are written as column blocks, and the JSONL
file is removed — all under the shard's lock, so concurrent appends land
either in the compacted generation or in a fresh JSONL file next to it.
``format="jsonl"`` is the inverse: columnar segments are expanded back to
canonical JSONL lines (bit-exact for rows written by this store), restoring
a plain-JSONL store.  A shard whose rows cannot be represented columnar-ly
(hand-edited documents) is left as compacted JSONL and counted in
``segments_unconverted`` — never half-converted.

Each rewrite is atomic (write temp + fsync + rename) under the shard's
exclusive advisory lock, so concurrent writers in other processes either
append before the rename (their lines are compacted too) or after it (their
appends land in the new file); nothing is lost either way.  Segments that
are already clean are left untouched — running compaction twice is
byte-stable.  Sidecar offset indexes are refreshed to cover compacted JSONL
segments; columnar segments are self-indexing.  Columnar segments that fail
validation (torn tail from a killed rewrite) or whose keys or rows do not
decode are junk: counted in ``junk_dropped`` and dropped here, in either
format.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .columnar import (
    COLUMNAR_MAGIC,
    COLUMNAR_SUFFIX,
    ColumnarError,
    ColumnarSegment,
    write_columnar_segment,
)
from .index import SegmentIndex, index_path, write_segment_index
from .keys import SCHEMA_VERSION
from .store import (
    _FORMAT,
    _KEY_RE,
    _META_NAME,
    _SEGMENTS_DIR,
    StoreError,
    _unlock,
    locked_segment_fd,
)

__all__ = ["compact_store"]

_FORMATS = ("jsonl", "columnar")


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _canonical_line(doc: Dict[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _columnar_docs(path: Path) -> Optional[List[Dict[str, Any]]]:
    """Every document of a columnar segment, or ``None`` when its header,
    keys or rows fail to decode.

    The store's loader quarantines a segment whose header or key column does
    not decode; compaction decodes the rows too, and drops the segment as
    junk when any of them fails.  The segment closes only after the decode
    error is handled, so no column view outlives its map.
    """
    try:
        segment = ColumnarSegment(path)
    except (OSError, ColumnarError):
        return None
    try:
        segment.keys_list()
        docs: Optional[List[Dict[str, Any]]] = list(segment.iter_docs())
    except ValueError:  # ColumnarError, or a trace that is not JSON
        docs = None
    segment.close()
    return docs


class _Winners:
    """Merged winning documents for one shard, in first-appended key order."""

    def __init__(self) -> None:
        self.order: List[str] = []
        self.lines: Dict[str, bytes] = {}
        self.docs: Dict[str, Dict[str, Any]] = {}
        self.duplicates = 0
        self.stale = 0
        self.junk = 0

    def record(self, key: str, line: bytes, doc: Dict[str, Any]) -> None:
        if key in self.lines:
            self.duplicates += 1
        else:
            self.order.append(key)
        self.lines[key] = line
        self.docs[key] = doc

    def add_jsonl(self, data: bytes) -> None:
        """Fold segment bytes in, later lines winning (byte-verbatim)."""
        pos = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            end = len(data) if newline == -1 else newline + 1
            raw = data[pos:end]
            pos = end
            stripped = raw.strip()
            if not stripped:
                self.junk += 1
                continue
            try:
                doc = json.loads(stripped)
                key, row = doc["key"], doc["row"]
            except (ValueError, KeyError, TypeError):
                self.junk += 1
                continue
            if row is None or not isinstance(key, str) or not _KEY_RE.fullmatch(key):
                self.junk += 1
                continue
            if doc.get("schema", 0) != SCHEMA_VERSION:
                self.stale += 1
                continue
            if not raw.endswith(b"\n"):
                raw += b"\n"
            self.record(key, raw, doc)

    def add_columnar(self, path: Path) -> bool:
        """Fold a columnar segment in; False when it fails to decode."""
        docs = _columnar_docs(path)
        for doc in docs or ():
            self.record(doc["key"], _canonical_line(doc), doc)
        return docs is not None

    def jsonl_bytes(self) -> bytes:
        return b"".join(self.lines[key] for key in self.order)


def _remove(path: Path, *, with_index: bool = False) -> None:
    path.unlink(missing_ok=True)
    if with_index:
        index_path(path).unlink(missing_ok=True)


def _write_jsonl(path: Path, winners: _Winners, *, current: bytes) -> Tuple[int, int]:
    """Write merged winners as JSONL (when changed) + sidecar; returns
    (bytes_after, rewritten)."""
    new_data = winners.jsonl_bytes()
    rewritten = 0
    if new_data != current:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(new_data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
        rewritten = 1
    # else: already clean — repeat compactions are byte-stable and only
    # the sidecar may need refreshing.
    offsets: List[int] = []
    lengths: List[int] = []
    cursor = 0
    for key in winners.order:
        offsets.append(cursor)
        lengths.append(len(winners.lines[key]))
        cursor += lengths[-1]
    try:
        write_segment_index(path, SegmentIndex(
            segment_bytes=len(new_data),
            schema=SCHEMA_VERSION,
            skipped=0,
            stale=0,
            keys=winners.order,
            offsets=offsets,
            lengths=lengths,
        ))
    except OSError:
        pass
    return len(new_data), rewritten


def _compact_shard(
    jsonl_path: Path,
    colseg_path: Path,
    fmt: str,
) -> Dict[str, int]:
    """Compact one shard (its JSONL file and/or columnar segment) under the
    shard's lock; returns per-shard integer stats."""
    jsonl_exists = jsonl_path.exists()
    colseg_exists = colseg_path.exists()
    stats = {
        "segments": 1,
        "rows_kept": 0,
        "duplicates_dropped": 0,
        "stale_dropped": 0,
        "junk_dropped": 0,
        "bytes_before": 0,
        "bytes_after": 0,
        "segments_rewritten": 0,
        "segments_removed": 0,
        "segments_unconverted": 0,
    }
    if fmt == "columnar" and colseg_exists and not jsonl_exists:
        # Nothing to merge; a segment that decodes is already compact
        # (rewriting it would be byte-identical), any other is junk.
        docs = _columnar_docs(colseg_path)
        size = colseg_path.stat().st_size
        stats["bytes_before"] = size
        if docs is None:
            stats["junk_dropped"] = 1
            stats["segments_removed"] = 1
            _remove(colseg_path)
            _fsync_dir(colseg_path.parent)
            return stats
        stats["rows_kept"] = len(docs)
        stats["bytes_after"] = size
        return stats
    # Everything else merges through (and is serialized by) the JSONL lock.
    try:
        fd = locked_segment_fd(jsonl_path, create=not jsonl_exists)
    except OSError:
        return {}
    try:
        size = os.fstat(fd).st_size
        data = os.pread(fd, size, 0)
        winners = _Winners()
        # Sources dispatch by magic like reads do: columnar generations fold
        # in first, then JSONL lines override per key (JSONL is newer).
        jsonl_is_columnar = data.startswith(COLUMNAR_MAGIC)
        if colseg_exists:
            if not winners.add_columnar(colseg_path):
                winners.junk += 1  # quarantined: torn rewrite, drop it
        if jsonl_is_columnar:
            if not winners.add_columnar(jsonl_path):
                winners.junk += 1
        else:
            winners.add_jsonl(data)
        stats["bytes_before"] = size + (colseg_path.stat().st_size
                                        if colseg_exists else 0)
        stats["rows_kept"] = len(winners.order)
        stats["duplicates_dropped"] = winners.duplicates
        stats["stale_dropped"] = winners.stale
        stats["junk_dropped"] = winners.junk
        if not winners.order:
            # Nothing live: drop the shard's files entirely.
            _remove(jsonl_path, with_index=True)
            _remove(colseg_path)
            _fsync_dir(jsonl_path.parent)
            stats["segments_removed"] = 1 + (1 if colseg_exists else 0)
            return stats
        if fmt == "columnar":
            try:
                nbytes = write_columnar_segment(
                    colseg_path, [winners.docs[key] for key in winners.order])
            except ColumnarError:
                # Not columnar-representable (hand-edited docs): stay JSONL,
                # all-or-nothing per shard.
                stats["segments_unconverted"] = 1
            else:
                _remove(jsonl_path, with_index=True)
                _fsync_dir(jsonl_path.parent)
                stats["bytes_after"] = nbytes
                stats["segments_rewritten"] = 1
                return stats
        # fmt == "jsonl", or the columnar fallback above: merged winners land
        # in the JSONL file and any columnar source files are retired.
        current = b"" if (jsonl_is_columnar or not jsonl_exists) else data
        bytes_after, rewritten = _write_jsonl(jsonl_path, winners,
                                              current=current)
        if colseg_exists:
            _remove(colseg_path)
            _fsync_dir(colseg_path.parent)
            stats["segments_removed"] = 1
        stats["bytes_after"] = bytes_after
        stats["segments_rewritten"] = rewritten
        return stats
    finally:
        _unlock(fd)
        os.close(fd)


def compact_store(
    root: Union[str, os.PathLike],
    *,
    format: str = "jsonl",
) -> Dict[str, Any]:
    """Compact every segment of the store at ``root``; returns summary stats.

    ``format`` selects the on-disk representation compaction leaves behind:
    ``"jsonl"`` (the default, and the historical behavior) or ``"columnar"``
    (binary column blocks; see :mod:`repro.store.columnar`).  Raises
    :class:`StoreError` when ``root`` is not a result store.  The returned
    dict reports ``segments`` seen (shards, counting a JSONL file and its
    columnar sibling as one), ``segments_rewritten`` / ``segments_removed``
    / ``segments_unconverted``, ``rows_kept`` and the ``duplicates_dropped``
    / ``stale_dropped`` / ``junk_dropped`` line counts, plus
    ``bytes_before`` and ``bytes_after``.
    """
    if format not in _FORMATS:
        raise StoreError(
            f"unknown compaction format {format!r}; choose from {_FORMATS}"
        )
    root = Path(root)
    meta_path = root / _META_NAME
    if not meta_path.is_file():
        raise StoreError(f"no result store at {root}")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable store metadata {meta_path}: {exc}") from exc
    if meta.get("format") != _FORMAT:
        raise StoreError(
            f"{root} is not a repro result store (format={meta.get('format')!r})"
        )
    totals: Dict[str, Any] = {
        "path": str(root),
        "format": format,
        "segments": 0,
        "segments_rewritten": 0,
        "segments_removed": 0,
        "segments_unconverted": 0,
        "rows_kept": 0,
        "duplicates_dropped": 0,
        "stale_dropped": 0,
        "junk_dropped": 0,
        "bytes_before": 0,
        "bytes_after": 0,
    }
    segments = root / _SEGMENTS_DIR
    if not segments.is_dir():
        return totals
    shards = sorted(
        {p.name[:-len(".jsonl")] for p in segments.glob("*.jsonl")}
        | {p.name[:-len(COLUMNAR_SUFFIX)] for p in segments.glob(f"*{COLUMNAR_SUFFIX}")}
    )
    for shard in shards:
        shard_stats = _compact_shard(
            segments / f"{shard}.jsonl",
            segments / f"{shard}{COLUMNAR_SUFFIX}",
            format,
        )
        for field, value in shard_stats.items():
            totals[field] += value
    return totals
