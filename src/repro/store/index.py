"""Sidecar offset indexes: O(1) key lookup without re-parsing JSONL segments.

Each segment ``segments/<x>.jsonl`` may carry a sidecar ``segments/<x>.idx``
mapping every live key to the byte span of its winning line.  The sidecar is a
**disposable cache**: it is written atomically (temp + rename) on
:meth:`~repro.store.store.ResultStore.close` and after compaction, validated
against the segment on open, and silently rebuilt from the JSONL whenever it
is missing, stale (the segment shrank or was rewritten) or corrupt.  Deleting
every ``.idx`` file never loses data — the JSONL segments alone are the
durability contract.

File layout (version 1)::

    repro-idx 1\n
    <segment_bytes> <schema> <entries=K> <skipped> <stale>\n
    key_1,key_2,...,key_K\n
    <K little-endian int64 (offset, length) pairs>

One read, one ``str.split`` over the key line and one ``numpy.frombuffer``
over the binary span blob parse in a few milliseconds at 10⁵ entries — an
order of magnitude faster than ``json.loads`` over every segment line, which
is what makes indexed opens O(#keys) dictionary builds instead of O(#bytes)
JSON parses.  (Every segment costs a sidecar rewrite on close and a file open
on load, which is why a store shards into at most 16 segments — up to 256 in
stores written under the older two-character layout — and why the loader is
deliberately frugal with per-file fixed costs.)  ``skipped`` / ``stale``
record how many junk / retired-schema lines the covered bytes contain, so an
indexed open restores the same diagnostic counters a full scan would have
produced.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

__all__ = ["SegmentIndex", "index_path", "load_segment_index", "write_segment_index"]

_MAGIC = b"repro-idx 1\n"
_SPAN_DTYPE = np.dtype("<i8")


@dataclass
class SegmentIndex:
    """The parsed sidecar of one segment: key → byte-span, plus scan counters."""

    #: Bytes of the segment the entries (and counters) account for.  When the
    #: segment on disk is longer, the extra tail was appended after this index
    #: was written and must be scanned; when it is shorter, the segment was
    #: rewritten and the whole index is stale.
    segment_bytes: int
    #: The row-schema version the entries were filtered against.
    schema: int
    #: Unparseable (torn / junk) lines within the covered bytes.
    skipped: int
    #: Retired-schema lines within the covered bytes.
    stale: int
    keys: List[str]
    offsets: List[int]
    lengths: List[int]


def index_path(segment_path: Path) -> Path:
    """The sidecar path for a ``segments/<x>.jsonl`` segment."""
    return segment_path.with_suffix(".idx")


def load_segment_index(
    segment_path: Union[str, os.PathLike], *, segment_bytes: int, schema: int
) -> Optional[SegmentIndex]:
    """Parse and validate the sidecar of ``segment_path``; ``None`` when unusable.

    ``segment_bytes`` is the segment's current size: an index claiming to
    cover more bytes than exist (the segment was truncated or compacted) is
    stale, as is one built under a different row-schema version or with a
    negative field or span, or a span ending past its own covered range.
    Any parse error also returns ``None`` — the caller falls back to a full
    JSONL scan.
    """
    spath = os.fspath(segment_path)
    if spath.endswith(".jsonl"):
        spath = spath[:-len(".jsonl")]
    try:
        with open(spath + ".idx", "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    try:
        if not raw.startswith(_MAGIC):
            return None
        meta_end = raw.index(b"\n", len(_MAGIC))
        fields = raw[len(_MAGIC):meta_end].split()
        if len(fields) != 5:
            return None
        covered, idx_schema, entries, skipped, stale = map(int, fields)
        if (idx_schema != schema or covered > segment_bytes
                or min(covered, entries, skipped, stale) < 0):
            return None
        keys_end = raw.index(b"\n", meta_end + 1)
        key_blob = raw[meta_end + 1:keys_end]
        keys = key_blob.decode("utf-8").split(",") if key_blob else []
        spans = np.frombuffer(raw, dtype=_SPAN_DTYPE, offset=keys_end + 1)
        if len(keys) != entries or spans.size != 2 * entries:
            return None
        # Readers trust span values: a negative length marks a columnar
        # slot and a huge one would be read whole, so every span must lie
        # inside the covered bytes (a span in range but wrong fails to parse
        # and self-heals, see ResultStore._load_doc).  Checked on the Python
        # int lists the index returns anyway: sums cannot overflow, and
        # unlike NumPy compares it adds no per-segment dispatch cost or
        # first-use resident memory to a warm store's open.
        offsets, lengths = spans[0::2].tolist(), spans[1::2].tolist()
        if entries and (min(offsets) < 0 or min(lengths) < 0
                        or max(map(operator.add, offsets, lengths)) > covered):
            return None
        return SegmentIndex(
            segment_bytes=covered,
            schema=schema,
            skipped=skipped,
            stale=stale,
            keys=keys,
            offsets=offsets,
            lengths=lengths,
        )
    except (ValueError, OverflowError, UnicodeDecodeError):
        return None


def write_segment_index(segment_path: Path, index: SegmentIndex) -> None:
    """Atomically (temp + rename) write the sidecar for ``segment_path``.

    Raises ``OSError`` on unwritable directories; callers treat the sidecar
    as best-effort and swallow the error (the store works without it).
    """
    path = index_path(segment_path)
    meta = (f"{int(index.segment_bytes)} {int(index.schema)} "
            f"{len(index.keys)} {int(index.skipped)} {int(index.stale)}\n")
    spans = np.empty((len(index.keys), 2), dtype=_SPAN_DTYPE)
    if index.keys:
        spans[:, 0] = index.offsets
        spans[:, 1] = index.lengths
    tmp = path.with_suffix(".idx.tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(meta.encode("ascii"))
        handle.write(",".join(index.keys).encode("utf-8") + b"\n")
        handle.write(spans.tobytes())
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
