"""Binary columnar segments: the store's analytics-grade on-disk format (v2).

A JSONL segment is perfect for appends and terrible for analytics: answering
"mean completion round by scheme" over 10⁶ rows means JSON-parsing every
field of every row.  ``repro store compact --format columnar`` rewrites a
shard's winner lines into one ``segments/<x>.colseg`` file laid out as
per-column blocks, so a reader that wants two columns touches two columns'
bytes — the file is ``mmap``-ed and NumPy views are taken lazily per column.

File layout (all integers little-endian)::

    repro-colseg 1\\n                 # 15-byte magic
    <u64 header_bytes>
    <header_bytes of UTF-8 JSON>     # {"schema", "rows", "total_bytes",
                                     #  "columns": [{name, kind, ...offsets}]}
    <column blocks, 8-byte aligned>

Column kinds::

    int64      rows × 8 bytes of values
    opt_int64  rows × 8 bytes of values + rows × 1 byte validity mask
    str        (rows+1) × 8 bytes of blob offsets + UTF-8 blob

Per row the file stores the ``key``, every RunMetrics field, and the row's
``trace`` attachment as its canonical JSON text (``""`` = no attachment).
:func:`write_columnar_segment` *verifies before renaming* that every stored
document reconstructs to exactly the canonical JSONL bytes the store's
``put()`` would have written — the bit-for-bit guarantee that makes a
columnar ↔ JSONL round-trip lossless — and refuses (:class:`ColumnarError`)
otherwise, so a segment with hand-edited non-canonical lines simply stays
JSONL.  Writes are atomic (temp + fsync + rename); a truncated or corrupt
file fails validation at open and is quarantined by the loader like JSONL
junk (dropped at the next compaction), never half-parsed.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..analysis.metrics import (
    METRIC_FIELDS,
    METRIC_INT_FIELDS,
    METRIC_OPTIONAL_INT_FIELDS,
    METRIC_STRING_FIELDS,
)
from .keys import SCHEMA_VERSION

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_SUFFIX",
    "ColumnarError",
    "ColumnarSegment",
    "write_columnar_segment",
    "read_file_magic",
]

COLUMNAR_MAGIC = b"repro-colseg 1\n"
COLUMNAR_SUFFIX = ".colseg"

_I64 = np.dtype("<i8")
_U8 = np.dtype("u1")
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Sentinel stored in the trace column for "no trace attachment".  A real
#: attachment is its canonical JSON text, which is never empty.
_NO_TRACE = ""


class ColumnarError(ValueError):
    """A document cannot be represented columnar-ly, or a file failed validation."""


def read_file_magic(path: Union[str, os.PathLike]) -> bytes:
    """The first ``len(COLUMNAR_MAGIC)`` bytes of ``path`` (b"" on any error)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(COLUMNAR_MAGIC))
    except OSError:
        return b""


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_int(value: Any, field: str, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ColumnarError(f"row {key}: field {field!r} is not an int")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ColumnarError(f"row {key}: field {field!r} overflows int64")
    return value


def _align8(n: int) -> int:
    return (n + 7) & ~7


def write_columnar_segment(
    path: Union[str, os.PathLike],
    docs: Sequence[Dict[str, Any]],
) -> int:
    """Write ``docs`` (winner order) as one columnar segment; returns its size.

    Every doc must be a store document (``key``/``schema``/``row`` and an
    optional ``trace``) at the current schema version whose canonical JSON
    form the column blocks reproduce byte-for-byte; otherwise
    :class:`ColumnarError` is raised and nothing is written.  The write is
    atomic: temp file + fsync + rename, so readers only ever see a complete,
    self-validating segment.
    """
    path = Path(path)
    rows = len(docs)
    keys: List[str] = []
    traces: List[str] = []
    int_cols: Dict[str, List[int]] = {f: [] for f in METRIC_INT_FIELDS}
    opt_cols: Dict[str, List[int]] = {f: [] for f in METRIC_OPTIONAL_INT_FIELDS}
    opt_masks: Dict[str, List[bool]] = {f: [] for f in METRIC_OPTIONAL_INT_FIELDS}
    str_cols: Dict[str, List[str]] = {f: [] for f in METRIC_STRING_FIELDS}

    field_set = frozenset(METRIC_FIELDS)
    for doc in docs:
        if not isinstance(doc, dict) or not set(doc) <= {"key", "schema", "row", "trace"}:
            raise ColumnarError(f"not a store document: {sorted(doc)!r}")
        key = doc.get("key")
        if not isinstance(key, str):
            raise ColumnarError("store document without a string key")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ColumnarError(f"row {key}: schema is not {SCHEMA_VERSION}")
        row = doc.get("row")
        if not isinstance(row, dict) or set(row) != field_set:
            raise ColumnarError(f"row {key}: fields differ from the RunMetrics schema")
        keys.append(key)
        for f in METRIC_INT_FIELDS:
            int_cols[f].append(_check_int(row[f], f, key))
        for f in METRIC_OPTIONAL_INT_FIELDS:
            v = row[f]
            opt_masks[f].append(v is not None)
            opt_cols[f].append(0 if v is None else _check_int(v, f, key))
        for f in METRIC_STRING_FIELDS:
            v = row[f]
            if not isinstance(v, str):
                raise ColumnarError(f"row {key}: field {f!r} is not a string")
            str_cols[f].append(v)
        traces.append(_canonical(doc["trace"]) if "trace" in doc else _NO_TRACE)

    # Assemble blocks in a fixed column order: key, RunMetrics fields, trace.
    directory: List[Dict[str, Any]] = []
    blocks: List[bytes] = []

    def _str_blocks(name: str, values: List[str]) -> None:
        encoded = [v.encode("utf-8") for v in values]
        lengths = np.fromiter((len(e) for e in encoded), dtype=_I64, count=rows)
        offsets = np.zeros(rows + 1, dtype=_I64)
        np.cumsum(lengths, out=offsets[1:])
        blob = b"".join(encoded)
        directory.append({"name": name, "kind": "str",
                          "blocks": [offsets.nbytes, len(blob)]})
        blocks.append(offsets.tobytes())
        blocks.append(blob)

    def _int_block(name: str, values: List[int]) -> None:
        data = np.asarray(values, dtype=_I64)
        directory.append({"name": name, "kind": "int64", "blocks": [data.nbytes]})
        blocks.append(data.tobytes())

    def _opt_blocks(name: str, values: List[int], mask: List[bool]) -> None:
        data = np.asarray(values, dtype=_I64)
        valid = np.asarray(mask, dtype=_U8)
        directory.append({"name": name, "kind": "opt_int64",
                          "blocks": [data.nbytes, valid.nbytes]})
        blocks.append(data.tobytes())
        blocks.append(valid.tobytes())

    _str_blocks("key", keys)
    for f in METRIC_FIELDS:
        if f in METRIC_INT_FIELDS:
            _int_block(f, int_cols[f])
        elif f in METRIC_OPTIONAL_INT_FIELDS:
            _opt_blocks(f, opt_cols[f], opt_masks[f])
        else:
            _str_blocks(f, str_cols[f])
    _str_blocks("trace", traces)

    # Lay the blocks out 8-byte aligned after the header and stamp absolute
    # offsets into the directory.  The header length depends on the offsets
    # (variable-width JSON integers), so fix the layout iteratively.
    def _layout(header_bytes: int) -> int:
        cursor = len(COLUMNAR_MAGIC) + 8 + header_bytes
        block_iter = iter(blocks)
        for entry in directory:
            offsets = []
            for _ in entry["blocks"]:
                cursor = _align8(cursor)
                block = next(block_iter)
                offsets.append(cursor)
                cursor += len(block)
            entry["offsets"] = offsets
        return cursor

    header_doc: Dict[str, Any] = {"schema": SCHEMA_VERSION, "rows": rows}
    header = b""
    for _ in range(8):  # converges in <=2 passes; bounded for safety
        total = _layout(len(header))
        header_doc["columns"] = [
            {"name": e["name"], "kind": e["kind"],
             "blocks": e["blocks"], "offsets": e["offsets"]}
            for e in directory
        ]
        header_doc["total_bytes"] = total
        new_header = _canonical(header_doc).encode("utf-8")
        if len(new_header) == len(header):
            header = new_header
            break
        header = new_header
    else:  # pragma: no cover - layout never oscillates
        raise ColumnarError("columnar header layout failed to converge")

    out = bytearray()
    out += COLUMNAR_MAGIC
    out += np.int64(len(header)).astype(_I64).tobytes()
    out += header
    for block in blocks:
        pad = _align8(len(out)) - len(out)
        out += b"\x00" * pad
        out += block
    if len(out) != header_doc["total_bytes"]:  # pragma: no cover - internal
        raise ColumnarError("columnar layout size mismatch")

    # Verify the bit-for-bit contract before publishing the file: every doc
    # must reconstruct to its canonical JSONL bytes.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(out)
        handle.flush()
        os.fsync(handle.fileno())
    try:
        segment = ColumnarSegment(tmp)
        try:
            for i, doc in enumerate(docs):
                if _canonical(segment.doc(i)) != _canonical(doc):
                    raise ColumnarError(
                        f"row {keys[i]} does not round-trip bit-for-bit; "
                        f"keeping the segment JSONL"
                    )
        finally:
            segment.close()
    except ColumnarError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return len(out)


class ColumnarSegment:
    """A lazily-mmapped reader over one ``.colseg`` file.

    Opening validates the magic, header, schema version and the announced
    ``total_bytes`` against the real file size (a truncated tail fails here);
    raises :class:`ColumnarError` on any mismatch.  Column data is only
    touched when asked for: :meth:`get_column` / :meth:`get_mask` return
    NumPy views/arrays over the mmap, so an aggregate over one column reads
    that column's pages only.  The reader also satisfies the column-source
    protocol of :class:`~repro.store.resultset.ResultSet`, which is how a
    columnar store serves lazy result sets.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        # The map keeps its own descriptor, so the file closes right away.
        with open(self.path, "rb") as handle:
            try:
                self._mm: Any = mmap.mmap(handle.fileno(), 0,
                                          access=mmap.ACCESS_READ)
            except ValueError:  # empty file cannot be mapped
                raise ColumnarError(f"{self.path}: empty columnar segment") from None
        try:
            buf = self._mm
            magic_len = len(COLUMNAR_MAGIC)
            if buf[:magic_len] != COLUMNAR_MAGIC:
                raise ColumnarError(f"{self.path}: bad columnar magic")
            if len(buf) < magic_len + 8:
                raise ColumnarError(f"{self.path}: truncated columnar header")
            (header_len,) = np.frombuffer(buf, dtype=_I64, count=1,
                                          offset=magic_len)
            header_len = int(header_len)
            header_end = magic_len + 8 + header_len
            if header_len <= 0 or header_end > len(buf):
                raise ColumnarError(f"{self.path}: corrupt columnar header length")
            try:
                header = json.loads(bytes(buf[magic_len + 8:header_end]))
            except ValueError as exc:
                raise ColumnarError(f"{self.path}: corrupt columnar header: {exc}")
            if not isinstance(header, dict):
                raise ColumnarError(f"{self.path}: columnar header is not an object")
            if header.get("schema") != SCHEMA_VERSION:
                raise ColumnarError(
                    f"{self.path}: columnar schema {header.get('schema')!r} "
                    f"!= {SCHEMA_VERSION}"
                )
            if header.get("total_bytes") != len(buf):
                raise ColumnarError(
                    f"{self.path}: file is {len(buf)} bytes but the header "
                    f"announces {header.get('total_bytes')!r} (truncated tail?)"
                )
            self.rows = int(header.get("rows", -1))
            if self.rows < 0:
                raise ColumnarError(f"{self.path}: corrupt row count")
            self.nbytes = len(buf)
            self._dir: Dict[str, Dict[str, Any]] = {}
            for entry in header.get("columns", ()):
                if not isinstance(entry, dict) or "name" not in entry:
                    raise ColumnarError(f"{self.path}: corrupt column directory")
                self._dir[entry["name"]] = entry
            needed = {"key", "trace", *METRIC_FIELDS}
            if not needed <= set(self._dir):
                raise ColumnarError(
                    f"{self.path}: column directory is missing "
                    f"{sorted(needed - set(self._dir))}"
                )
            for name, entry in self._dir.items():
                self._check_entry(name, entry)
            self._decoded: Dict[str, np.ndarray] = {}
            self._keys: Optional[List[str]] = None
        except ColumnarError:
            self.close()
            raise
        except (TypeError, ValueError, KeyError, OverflowError, RecursionError) as exc:
            # Well-formed JSON with ill-typed fields (a string row count, an
            # unhashable column name or kind).
            self.close()
            raise ColumnarError(f"{self.path}: corrupt columnar header: {exc!r}") from None

    # -------------------------------------------------------------- #
    # validation
    # -------------------------------------------------------------- #
    def _check_entry(self, name: str, entry: Dict[str, Any]) -> None:
        kind = entry.get("kind")
        sizes = entry.get("blocks")
        offsets = entry.get("offsets")
        expected = {
            "int64": [self.rows * 8],
            "opt_int64": [self.rows * 8, self.rows],
        }.get(kind)
        if kind == "str":
            if (not isinstance(sizes, list) or len(sizes) != 2
                    or sizes[0] != (self.rows + 1) * 8):
                raise ColumnarError(f"{self.path}: corrupt str column {name!r}")
        elif expected is not None:
            if sizes != expected:
                raise ColumnarError(f"{self.path}: corrupt {kind} column {name!r}")
        else:
            raise ColumnarError(f"{self.path}: unknown column kind {kind!r}")
        if (not isinstance(offsets, list) or len(offsets) != len(sizes)
                or any(not isinstance(o, int) or o < 0 or o + s > self.nbytes
                       for o, s in zip(offsets, sizes))):
            raise ColumnarError(
                f"{self.path}: column {name!r} points outside the file")

    # -------------------------------------------------------------- #
    # raw block access
    # -------------------------------------------------------------- #
    def _entry(self, name: str) -> Dict[str, Any]:
        entry = self._dir.get(name)
        if entry is None:
            raise KeyError(f"{self.path}: no column {name!r}")
        return entry

    def _i64(self, offset: int) -> np.ndarray:
        return np.frombuffer(self._mm, dtype=_I64, count=self.rows, offset=offset)

    def _str_parts(self, name: str) -> tuple:
        entry = self._entry(name)
        off_offset, blob_offset = entry["offsets"]
        offsets = np.frombuffer(self._mm, dtype=_I64, count=self.rows + 1,
                                offset=off_offset)
        blob_len = entry["blocks"][1]
        if offsets[0] != 0 or offsets[-1] != blob_len or np.any(np.diff(offsets) < 0):
            raise ColumnarError(f"{self.path}: corrupt offsets for column {name!r}")
        return offsets, blob_offset, blob_len

    def _str_value(self, name: str, i: int) -> str:
        offsets, blob_offset, _ = self._str_parts(name)
        start, end = int(offsets[i]), int(offsets[i + 1])
        try:
            return bytes(self._mm[blob_offset + start:blob_offset + end]).decode("utf-8")
        except UnicodeDecodeError:
            raise ColumnarError(f"{self.path}: column {name!r} is not UTF-8") from None

    def _str_column(self, name: str) -> np.ndarray:
        cached = self._decoded.get(name)
        if cached is None:
            offsets, blob_offset, blob_len = self._str_parts(name)
            blob = bytes(self._mm[blob_offset:blob_offset + blob_len])
            bounds = offsets.tolist()
            try:
                cached = np.array(
                    [blob[bounds[i]:bounds[i + 1]].decode("utf-8")
                     for i in range(self.rows)],
                    dtype=np.str_,
                ) if self.rows else np.array([], dtype=np.str_)
            except UnicodeDecodeError:
                raise ColumnarError(f"{self.path}: column {name!r} is not UTF-8") from None
            self._decoded[name] = cached
        return cached

    # -------------------------------------------------------------- #
    # the column-source protocol (ResultSet) + doc reconstruction
    # -------------------------------------------------------------- #
    @property
    def length(self) -> int:
        return self.rows

    def get_column(self, name: str) -> np.ndarray:
        """The raw typed column: int64 view for (optional-)int fields,
        decoded unicode array for string fields."""
        entry = self._entry(name)
        if entry["kind"] == "str":
            return self._str_column(name)
        return self._i64(entry["offsets"][0])

    def get_mask(self, name: str) -> np.ndarray:
        """The validity mask of an ``opt_int64`` column, as booleans."""
        entry = self._entry(name)
        if entry["kind"] != "opt_int64":
            raise KeyError(f"column {name!r} has no validity mask")
        return np.frombuffer(self._mm, dtype=_U8, count=self.rows,
                             offset=entry["offsets"][1]).astype(bool)

    def keys_list(self) -> List[str]:
        """Every row key, in row order (decoded once, then cached)."""
        if self._keys is None:
            self._keys = self._str_column("key").tolist()
        return self._keys

    def key_at(self, i: int) -> str:
        if self._keys is not None:
            return self._keys[i]
        return self._str_value("key", i)

    def doc(self, i: int) -> Dict[str, Any]:
        """Reconstruct row ``i`` as its full store document (canonical form)."""
        if not 0 <= i < self.rows:
            raise ValueError(f"{self.path}: row {i} not in a {self.rows}-row segment")
        row: Dict[str, Any] = {}
        for f in METRIC_FIELDS:
            entry = self._dir[f]
            if entry["kind"] == "str":
                row[f] = self._str_value(f, i)
            elif entry["kind"] == "int64":
                row[f] = int(self._i64(entry["offsets"][0])[i])
            else:
                valid = self._mm[entry["offsets"][1] + i]
                row[f] = int(self._i64(entry["offsets"][0])[i]) if valid else None
        doc: Dict[str, Any] = {"key": self.key_at(i), "schema": SCHEMA_VERSION,
                               "row": row}
        trace_text = self._str_value("trace", i)
        if trace_text != _NO_TRACE:
            doc["trace"] = json.loads(trace_text)
        return doc

    def iter_docs(self):
        """Yield every row's store document, in row order."""
        for i in range(self.rows):
            yield self.doc(i)

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None

    def __enter__(self) -> "ColumnarSegment":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarSegment({str(self.path)!r}, rows={self.rows})"
