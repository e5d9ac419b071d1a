"""The content-addressed on-disk result store behind resumable sweeps.

Layout of a store directory::

    DIR/
      store.json           # format marker + schema version (documentation)
      segments/<x>.jsonl   # appended rows, sharded by the key's first hex digit
      segments/<x>.idx     # disposable sidecar offset index (see store.index)
      segments/<x>.colseg  # optional binary columnar segment (see store.columnar)

A store holds at most 16 shards (see ``_shard_of``).  Stores written when
rows were sharded by the key's first byte (``segments/<xy>.jsonl``, up to 256
shards) are read, resumed and compacted as they are: every reader goes by the
segment file's stem, and new rows land in the one-character shards beside
the old files.

Each segment line is one completed grid row::

    {"key": "<sha256>", "schema": N, "row": {...RunMetrics fields...},
     "trace": {...}?}

Lines whose ``schema`` is not the current :data:`~repro.store.keys.SCHEMA_VERSION`
(including lines missing the field entirely) are retired on load — their keys
could never match again anyway — so a schema bump cleanly retires old rows
instead of mixing generations in ``rows()``.

Rows are *appended* (one unbuffered line write per completed cell), so a sweep
killed at cell 9,000/10,000 keeps its first 9,000 rows; a truncated final line
from a hard kill is skipped on load.  Keys are content-addressed
(:mod:`repro.store.keys`): re-running a grid against the same store skips
every cell whose key is already present, which is what makes
``run_grid(..., store=...)`` incremental and ``repro sweep --resume`` exact.

Three scaling properties distinguish this implementation from a naive
scan-everything store:

* **Indexed opens** — opening a store loads each segment's sidecar offset
  index (key → byte span of the winning line) instead of JSON-parsing every
  row; segments that grew since their index was written are tail-scanned from
  the first uncovered byte only.  ``describe()["scanned_lines"]`` reports how
  many JSONL lines the open actually parsed (0 = fully indexed).
* **Lazy reads** — only key → span maps are resident. ``get``/``get_trace``
  seek-and-parse one line; ``rows()``/``iter_items()``/``iter_docs()`` stream
  from disk on demand.  A span that fails to parse (e.g. the segment was
  compacted by another process) triggers one self-healing reload before the
  read is retried.
* **Multi-writer safety** — appends go through ``O_APPEND`` file descriptors
  under a per-segment advisory ``fcntl.flock``, so concurrent processes can
  share one store without interleaving partial lines; each writer refreshes
  the sidecar index under the same lock on :meth:`ResultStore.close`.
* **Columnar analytics** — ``compact(format="columnar")`` rewrites each
  shard's winners into a binary column-block segment (``<x>.colseg``,
  :mod:`repro.store.columnar`) that opens by ``mmap`` — key lookups stay
  O(1), ``rows()`` becomes a *lazy* ResultSet that reads only the column
  blocks a query touches, and appends keep landing in the shard's JSONL
  file, whose rows win over columnar rows of the same key on load.  Reads
  dispatch per segment by file magic, so mixed stores just work.

The optional ``trace`` attachment carries a summary/none-level
:class:`~repro.radio.trace.ExecutionTrace` as its aggregate fields (the form
the vectorized backend produces via ``ExecutionTrace.from_aggregates``);
:meth:`ResultStore.get_trace` rebuilds a trace that compares equal to the
original.  The trace served for a key always belongs to the same line as the
row served by ``get`` (the last valid line for that key).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Set, Union

import numpy as np

from ..analysis.metrics import RunMetrics
from ..radio.trace import ExecutionTrace
from .columnar import (
    COLUMNAR_MAGIC,
    COLUMNAR_SUFFIX,
    ColumnarError,
    ColumnarSegment,
    read_file_magic,
)
from .index import SegmentIndex, load_segment_index, write_segment_index
from .keys import SCHEMA_VERSION
from .resultset import ResultSet, _EagerSource, _GatherSource, _row_dict_to_metrics

__all__ = ["ResultStore", "StoreError"]

_FORMAT = "repro-result-store"
_META_NAME = "store.json"
_SEGMENTS_DIR = "segments"

# Keys must be shard-prefix safe (they name segment files) and sidecar safe
# (they are serialized on one comma-joined line).  Content-addressed sha256
# hex keys trivially qualify; anything else is rejected at put() and treated
# as junk when encountered in a hand-edited segment.
_KEY_RE = re.compile(r"[A-Za-z0-9_-]+")


def _shard_of(key: str) -> str:
    """The shard a new row for ``key`` is appended to: its first character.

    A hex key picks one of 16 segments.  Every segment costs a file create on
    its first put and a sidecar rewrite (lock, temp file, ``fsync``, rename)
    on each close, and a cold grid touches most of the shards there are, so
    fewer shards make cold sweeps cheaper.  Stores written under the earlier
    two-character rule (``segments/<key[:2]>.jsonl``) stay readable: loading,
    compaction and the sidecars go by file stem, never by this rule.
    """
    return key[:1]


try:
    import fcntl

    def _lock_exclusive(fd: int) -> None:
        fcntl.flock(fd, fcntl.LOCK_EX)

    def _unlock(fd: int) -> None:
        fcntl.flock(fd, fcntl.LOCK_UN)

except ImportError:  # pragma: no cover - non-POSIX fallback, single-writer only
    def _lock_exclusive(fd: int) -> None:
        pass

    def _unlock(fd: int) -> None:
        pass


class StoreError(RuntimeError):
    """A result-store directory is missing, malformed or of a foreign format."""


def locked_segment_fd(path: Path, *, create: bool = False) -> int:
    """Open ``path`` and take its exclusive advisory lock, surviving renames.

    After acquiring the lock the descriptor is re-checked against the path: a
    concurrent compaction may have replaced the file between open and lock, in
    which case the lock protects a dead inode and must be retaken on the new
    one.  The caller owns the returned fd (unlock + close).
    """
    flags = os.O_RDWR | (os.O_CREAT if create else 0)
    fd = os.open(path, flags, 0o644)
    while True:
        _lock_exclusive(fd)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            stat = None
        here = os.fstat(fd)
        if stat is not None and (stat.st_ino, stat.st_dev) == (here.st_ino, here.st_dev):
            return fd
        _unlock(fd)
        os.close(fd)
        fd = os.open(path, flags, 0o644)


class ResultStore:
    """Append-only content-addressed store of completed grid rows.

    Open with ``ResultStore(path)`` (creates the directory when missing) or
    ``ResultStore.open(path, require_existing=True)`` (the ``--resume``
    contract: resuming a sweep that never started is reported as an error
    instead of silently starting cold).  ``rebuild_index=True`` ignores the
    sidecar ``.idx`` files and re-parses every segment line (a diagnostic /
    benchmarking knob; the indexes are refreshed on :meth:`close`).
    Instances are context managers; :meth:`close` writes the sidecar indexes
    and releases the append descriptors (reading remains possible).
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        create: bool = True,
        rebuild_index: bool = False,
    ) -> None:
        self.root = Path(root)
        # Parallel arrays, one slot per distinct key in first-appended order;
        # _slot maps key -> slot.  A slot stores the byte span of the key's
        # *winning* (last valid) line, so duplicate lines resolve to the same
        # row/trace pair everywhere.
        self._slot: Dict[str, int] = {}
        self._keys: List[str] = []
        self._offs: List[int] = []
        self._lens: List[int] = []
        self._shard_at: List[str] = []
        # Per-shard bookkeeping for sidecar maintenance.
        self._covered: Dict[str, int] = {}       # segment bytes our view accounts for
        self._seg_skipped: Dict[str, int] = {}
        self._seg_stale: Dict[str, int] = {}
        self._dirty: Set[str] = set()            # shards whose sidecar is stale
        self._repaired: Set[str] = set()         # shards tail-repaired this session
        self._append_fds: Dict[str, int] = {}
        self._readers: Dict[str, IO[bytes]] = {}
        # Open columnar segments by shard.  A slot living in one of these has
        # _lens[slot] == -1 and _offs[slot] == its row index in the segment.
        self._columnar: Dict[str, ColumnarSegment] = {}
        # Bumped by every self-healing reload, so a read can tell that the
        # view changed under it.
        self._generation = 0
        self.skipped_lines = 0
        self.stale_lines = 0
        self.scanned_lines = 0
        self.quarantined_segments = 0
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(
                f"{self.root} is not a directory; a result store needs a "
                f"directory path"
            )
        meta_path = self.root / _META_NAME
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store metadata {meta_path}: {exc}") from exc
            if meta.get("format") != _FORMAT:
                raise StoreError(
                    f"{self.root} is not a repro result store "
                    f"(format={meta.get('format')!r})"
                )
            self.schema_version = int(meta.get("schema_version", 0))
        elif self.root.exists() and any(self.root.iterdir()):
            raise StoreError(
                f"{self.root} exists, is not empty and has no {_META_NAME}; "
                f"refusing to treat it as a result store"
            )
        elif not create:
            raise StoreError(
                f"no result store at {self.root}; run once without --resume "
                f"(or create the store first) to start a sweep cold"
            )
        else:
            (self.root / _SEGMENTS_DIR).mkdir(parents=True, exist_ok=True)
            self.schema_version = SCHEMA_VERSION
            meta_path.write_text(
                json.dumps({"format": _FORMAT, "schema_version": SCHEMA_VERSION},
                           indent=2) + "\n"
            )
        self._load(rebuild_index=rebuild_index)

    @classmethod
    def open(
        cls,
        root: Union[str, os.PathLike],
        *,
        require_existing: bool = False,
        rebuild_index: bool = False,
    ) -> "ResultStore":
        """Open (or, unless ``require_existing``, create) the store at ``root``."""
        return cls(root, create=not require_existing, rebuild_index=rebuild_index)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def _segment_path(self, shard: str) -> Path:
        return self.root / _SEGMENTS_DIR / f"{shard}.jsonl"

    def _load(self, *, rebuild_index: bool) -> None:
        segments = self.root / _SEGMENTS_DIR
        try:
            with os.scandir(segments) as scan:
                # scandir keeps per-segment fixed costs low: open time is
                # dominated by per-file overhead once the sidecars do the
                # heavy lifting, and a store in the two-character layout
                # can hold up to 256 segments.
                # Sorting (shard, kind) loads a shard's columnar segment
                # before its JSONL file, so JSONL rows — always the newer
                # generation — win via _record's last-wins rule.
                found = []
                for entry in scan:
                    if not entry.is_file():
                        continue
                    if entry.name.endswith(".jsonl"):
                        found.append((entry.name[:-len(".jsonl")], 1,
                                      entry.path, entry.stat().st_size))
                    elif entry.name.endswith(COLUMNAR_SUFFIX):
                        found.append((entry.name[:-len(COLUMNAR_SUFFIX)], 0,
                                      entry.path, entry.stat().st_size))
                found.sort()
        except OSError:
            return
        for shard, _kind, path, size in found:
            # Dispatch by magic, not extension: the payload decides how a
            # segment is read.
            if read_file_magic(path) == COLUMNAR_MAGIC:
                self._load_columnar(shard, path, rebuild=rebuild_index)
                continue
            index = None
            if not rebuild_index:
                index = load_segment_index(path, segment_bytes=size,
                                           schema=SCHEMA_VERSION)
            if index is not None:
                if shard in self._columnar:
                    # Mixed shard: sidecar keys may collide with columnar
                    # keys, so register via last-wins instead of bulk-extend.
                    for key, off, length in zip(index.keys, index.offsets,
                                                index.lengths):
                        self._record(key, shard, off, length)
                else:
                    base = len(self._keys)
                    self._slot.update(zip(index.keys, range(base, base + len(index.keys))))
                    self._keys.extend(index.keys)
                    self._offs.extend(index.offsets)
                    self._lens.extend(index.lengths)
                    self._shard_at.extend([shard] * len(index.keys))
                self._seg_skipped[shard] = index.skipped
                self._seg_stale[shard] = index.stale
                self.skipped_lines += index.skipped
                self.stale_lines += index.stale
                if index.segment_bytes < size:
                    # The segment grew after its sidecar was written (another
                    # writer, or a crash before close): parse only the tail.
                    self._scan_segment(shard, path, index.segment_bytes)
                    self._dirty.add(shard)
            else:
                self._scan_segment(shard, path, 0)
                self._dirty.add(shard)
            self._covered[shard] = size
        if len(self._slot) != len(self._keys):
            # A (forged/corrupt) sidecar smuggled duplicate keys past the
            # fast path above; ground truth is on disk, so rebuild from it.
            self._reset_memory()
            self._load(rebuild_index=True)

    def _load_columnar(self, shard: str, path: str, *, rebuild: bool) -> None:
        """Open ``path`` as a columnar segment and register its keys.

        A segment that fails validation (torn tail from a killed rewrite,
        foreign schema, size mismatch, a key column that does not decode) is
        *quarantined*: counted, never read, left on disk for ``compact()`` to
        drop — the columnar analogue of a truncated JSONL line.
        """
        try:
            segment = ColumnarSegment(path)
            keys = segment.keys_list()
        except (OSError, ColumnarError):
            self.quarantined_segments += 1
            return
        self._columnar[shard] = segment
        if rebuild:
            for row, key in enumerate(keys):
                self._record(key, shard, row, -1)
        else:
            base = len(self._keys)
            self._slot.update(zip(keys, range(base, base + len(keys))))
            self._keys.extend(keys)
            self._offs.extend(range(len(keys)))
            self._lens.extend([-1] * len(keys))
            self._shard_at.extend([shard] * len(keys))

    def _scan_segment(self, shard: str, path: Union[str, os.PathLike], start: int) -> None:
        """Parse segment lines in ``[start, EOF)``, recording winning spans."""
        with open(path, "rb") as handle:
            if start:
                handle.seek(start)
            offset = start
            for raw in handle:
                line_offset, length = offset, len(raw)
                offset += length
                self.scanned_lines += 1
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    doc = json.loads(stripped)
                    key, row = doc["key"], doc["row"]
                except (ValueError, KeyError, TypeError):
                    # A hard kill can truncate the final line of a segment;
                    # the row it described was never reported complete, so
                    # skipping it is exactly right.
                    self._count_skipped(shard)
                    continue
                if row is None or not isinstance(key, str) or not _KEY_RE.fullmatch(key):
                    self._count_skipped(shard)
                    continue
                if doc.get("schema", 0) != SCHEMA_VERSION:
                    # A row from before a schema bump — or from before rows
                    # were versioned at all (no "schema" field): its key can
                    # never match again, and surfacing it through rows() /
                    # `repro results` would mix row generations.
                    self._count_stale(shard)
                    continue
                self._record(key, shard, line_offset, length)

    def _record(self, key: str, shard: str, offset: int, length: int) -> None:
        slot = self._slot.get(key)
        if slot is None:
            self._slot[key] = len(self._keys)
            self._keys.append(key)
            self._offs.append(offset)
            self._lens.append(length)
            self._shard_at.append(shard)
        else:
            # Duplicate line for a known key: the last valid line wins, for
            # the row and its trace attachment alike.
            self._offs[slot] = offset
            self._lens[slot] = length
            self._shard_at[slot] = shard

    def _count_skipped(self, shard: str) -> None:
        self._seg_skipped[shard] = self._seg_skipped.get(shard, 0) + 1
        self.skipped_lines += 1

    def _count_stale(self, shard: str) -> None:
        self._seg_stale[shard] = self._seg_stale.get(shard, 0) + 1
        self.stale_lines += 1

    def _reset_memory(self) -> None:
        self._slot.clear()
        self._keys.clear()
        self._offs.clear()
        self._lens.clear()
        self._shard_at.clear()
        self._covered.clear()
        self._seg_skipped.clear()
        self._seg_stale.clear()
        self._dirty.clear()
        self.skipped_lines = 0
        self.stale_lines = 0
        self.scanned_lines = 0
        self.quarantined_segments = 0
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        # Dropped, not closed: a lazy ResultSet or a column view may still
        # read these maps, and each is unmapped once its last user is gone.
        self._columnar.clear()

    def _reload(self) -> None:
        """Re-derive the in-memory view from the JSONL ground truth."""
        self._generation += 1
        self._reset_memory()
        self._load(rebuild_index=True)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        return key in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    def keys(self) -> List[str]:
        """All stored keys, in first-appended order."""
        return list(self._keys)

    def _reader(self, shard: str) -> IO[bytes]:
        handle = self._readers.get(shard)
        if handle is None:
            handle = open(self._segment_path(shard), "rb")
            self._readers[shard] = handle
        return handle

    def _read_span(self, slot: int, key: str) -> Dict[str, Any]:
        if self._lens[slot] == -1:
            segment = self._columnar.get(self._shard_at[slot])
            if segment is None:
                raise ValueError(f"missing columnar segment for key {key}")
            doc = segment.doc(self._offs[slot])
            if doc.get("key") != key:
                raise ValueError(f"stale columnar row for key {key}")
            return doc
        handle = self._reader(self._shard_at[slot])
        handle.seek(self._offs[slot])
        doc = json.loads(handle.read(self._lens[slot]))
        if not isinstance(doc, dict) or doc.get("key") != key:
            raise ValueError(f"stale span for key {key}")
        return doc

    def _load_doc(self, key: str) -> Optional[Dict[str, Any]]:
        """The full stored document for ``key`` (its winning line), or None.

        Spans can go stale when another process rewrites a segment (e.g.
        ``repro store compact`` against a store we hold open); the first
        failed read reloads the view from disk and retries once.
        """
        slot = self._slot.get(key)
        if slot is None:
            return None
        try:
            return self._read_span(slot, key)
        except (OSError, ValueError):
            self._reload()
            slot = self._slot.get(key)
            if slot is None:
                return None
            try:
                return self._read_span(slot, key)
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"unreadable row for key {key} in {self.root}: {exc}"
                ) from exc

    def get(self, key: str) -> Optional[RunMetrics]:
        """The stored row for ``key``, or ``None`` when absent (one O(1) seek)."""
        doc = self._load_doc(key)
        return None if doc is None else _row_dict_to_metrics(doc["row"])

    def get_trace(self, key: str) -> Optional[ExecutionTrace]:
        """The trace attached to the *winning* line of ``key``, or ``None``.

        Reading the trace from the same line that supplies the row guarantees
        ``get``/``get_trace`` can never serve a row/trace pair from two
        different generations of a duplicated key.
        """
        doc = self._load_doc(key)
        if doc is None or doc.get("trace") is None:
            return None
        return ExecutionTrace.from_aggregates_doc(doc["trace"])

    def iter_docs(self) -> Iterator[Dict[str, Any]]:
        """Stream full stored documents in first-appended order, lazily."""
        for key in list(self._keys):
            doc = self._load_doc(key)
            if doc is not None:
                yield doc

    def rows(self) -> ResultSet:
        """Every stored row as a columnar ResultSet, in first-appended order.

        Against a JSONL-only store the rows are streamed from disk into the
        columnar buffers — the JSON documents are never all resident at once.
        When columnar segments are present the returned set is *lazy*: a
        gather source maps each row to (segment, local row) and a column is
        only read — straight from the segments' mmapped blocks — when a query
        touches it, so aggregating one column of a million-row store loads
        bytes proportional to that column.

        A stale span met on the way reloads the view, as in :meth:`get`; the
        set is then read once more from the healed view, so it never misses
        a key the reload found or mixes two generations of the store.
        """
        generation = self._generation
        rows = self._read_rows()
        if self._generation != generation:
            rows = self._read_rows()
        return rows

    def _read_rows(self) -> ResultSet:
        if not self._columnar:
            return ResultSet.from_dicts(doc["row"] for doc in self.iter_docs())
        sources: List[Any] = []
        source_of_shard: Dict[str, int] = {}
        source_ids: List[int] = []
        local_rows: List[int] = []
        jsonl_rows: List[RunMetrics] = []
        for key in list(self._keys):
            slot = self._slot.get(key)
            if slot is None:  # pragma: no cover - keys/_slot kept in sync
                continue
            if self._lens[slot] == -1:
                shard = self._shard_at[slot]
                sid = source_of_shard.get(shard)
                if sid is None:
                    sid = source_of_shard[shard] = len(sources)
                    sources.append(self._columnar[shard])
                source_ids.append(sid)
                local_rows.append(self._offs[slot])
            else:
                doc = self._load_doc(key)
                if doc is None:
                    continue
                source_ids.append(-1)
                local_rows.append(len(jsonl_rows))
                jsonl_rows.append(_row_dict_to_metrics(doc["row"]))
        ids = np.asarray(source_ids, dtype=np.intp)
        if jsonl_rows:
            ids[ids == -1] = len(sources)
            sources.append(_EagerSource(jsonl_rows))
        return ResultSet._from_source(_GatherSource(
            sources, ids, np.asarray(local_rows, dtype=np.intp)))

    def iter_items(self) -> Iterator[tuple]:
        """Iterate ``(key, RunMetrics)`` pairs in first-appended order, lazily."""
        for doc in self.iter_docs():
            yield doc["key"], _row_dict_to_metrics(doc["row"])

    def describe(self) -> Dict[str, Any]:
        """Summary facts: row count, segment count, schema version, path.

        ``scanned_lines`` is the number of JSONL lines the open had to parse;
        0 means every segment was served entirely by its sidecar index.
        ``formats`` breaks segment and byte counts down per storage format
        (classified by file magic, like reads); ``segments`` stays the total.
        ``quarantined_segments`` counts columnar segments that failed
        validation on load (torn tail, foreign schema) and were set aside.
        """
        segments = self.root / _SEGMENTS_DIR
        formats = {
            "jsonl": {"segments": 0, "bytes": 0},
            "columnar": {"segments": 0, "bytes": 0},
        }
        if segments.is_dir():
            for path in segments.iterdir():
                if not path.is_file() or not (
                    path.name.endswith(".jsonl")
                    or path.name.endswith(COLUMNAR_SUFFIX)
                ):
                    continue
                try:
                    size = path.stat().st_size
                except OSError:  # pragma: no cover - racing deletion
                    continue
                kind = ("columnar" if read_file_magic(path) == COLUMNAR_MAGIC
                        else "jsonl")
                formats[kind]["segments"] += 1
                formats[kind]["bytes"] += size
        return {
            "path": str(self.root),
            "rows": len(self._slot),
            "segments": formats["jsonl"]["segments"] + formats["columnar"]["segments"],
            "formats": formats,
            "schema_version": self.schema_version,
            "skipped_lines": self.skipped_lines,
            "stale_lines": self.stale_lines,
            "scanned_lines": self.scanned_lines,
            "quarantined_segments": self.quarantined_segments,
        }

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def _append_fd(self, shard: str) -> int:
        fd = self._append_fds.get(shard)
        if fd is None:
            path = self._segment_path(shard)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._append_fds[shard] = fd
        return fd

    def _locked_append_fd(self, shard: str) -> int:
        """The shard's O_APPEND descriptor with its exclusive lock held.

        Like :func:`locked_segment_fd`, the inode is re-checked after locking
        so a writer never appends to a segment file that a concurrent
        compaction already replaced (those bytes would be silently lost with
        the old inode).
        """
        path = self._segment_path(shard)
        fd = self._append_fd(shard)
        while True:
            _lock_exclusive(fd)
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                stat = None
            here = os.fstat(fd)
            if stat is not None and (stat.st_ino, stat.st_dev) == (here.st_ino, here.st_dev):
                return fd
            _unlock(fd)
            os.close(fd)
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._append_fds[shard] = fd
            # Whatever we believed about this segment predates the rewrite.
            self._covered[shard] = 0
            reader = self._readers.pop(shard, None)
            if reader is not None:
                reader.close()

    def _append_line(self, shard: str, data: bytes) -> int:
        """Append ``data`` under the segment lock; returns its byte offset."""
        fd = self._locked_append_fd(shard)
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if shard not in self._repaired:
                # A hard kill mid-write can leave a truncated final line.
                # Appending straight after it would glue the next (good) row
                # onto the junk, turning one unparseable line into two lost
                # rows — the good row would be shadowed forever.  Terminate
                # the partial line so every new row starts on its own line.
                if end > 0 and os.pread(fd, 1, end - 1) != b"\n":
                    os.write(fd, b"\n")
                    end += 1
                self._repaired.add(shard)
            os.write(fd, data)
        finally:
            _unlock(fd)
        covered = self._covered.get(shard, 0)
        if end in (covered, covered + 1):  # +1 absorbs our own repair newline
            self._covered[shard] = end + len(data)
        # else: a concurrent writer appended bytes we have not scanned;
        # close() tail-scans [covered, EOF) under the lock before writing
        # the sidecar, so coverage claims stay truthful.
        self._dirty.add(shard)
        return end

    def put(
        self,
        key: str,
        row: RunMetrics,
        *,
        trace: Optional[ExecutionTrace] = None,
    ) -> bool:
        """Append one completed row (idempotent; returns False on duplicates).

        The line hits the segment in a single unbuffered ``write`` under the
        segment lock: a row that has been yielded to the caller is on disk,
        which is the durability contract resume relies on, and concurrent
        writers in other processes can never interleave partial lines.
        A ``trace`` attachment must be a summary/none-level trace (the store
        persists its aggregate fields; see ``ExecutionTrace.to_aggregates``).
        """
        if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
            raise StoreError(
                f"invalid store key {key!r}: keys must be non-empty strings "
                f"over [A-Za-z0-9_-]"
            )
        if key in self._slot:
            return False
        doc: Dict[str, Any] = {"key": key, "schema": SCHEMA_VERSION,
                               "row": row.as_dict()}
        if trace is not None:
            doc["trace"] = trace.to_aggregates()
        data = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
        shard = _shard_of(key)
        offset = self._append_line(shard, data)
        self._record(key, shard, offset, len(data))
        return True

    def _write_indexes(self) -> None:
        """Refresh the sidecar index of every dirty shard (best-effort).

        Runs under each segment's lock; if concurrent writers appended bytes
        beyond our coverage, the uncovered tail is scanned first so the
        sidecar never claims to cover lines it did not account for.  The
        last closer wins with a fully-covering index.
        """
        # One pass over the slots lists every dirty shard's JSONL slots.
        # Columnar slots (_lens == -1) live outside the JSONL file and must
        # never leak into its sidecar spans.
        slots_of: Dict[str, List[int]] = {shard: [] for shard in self._dirty}
        for slot, (shard, length) in enumerate(zip(self._shard_at, self._lens)):
            if length >= 0 and shard in slots_of:
                slots_of[shard].append(slot)
        for shard in sorted(self._dirty):
            path = self._segment_path(shard)
            try:
                fd = locked_segment_fd(path)
            except OSError:
                continue
            try:
                size = os.fstat(fd).st_size
                covered = self._covered.get(shard, 0)
                if covered < size:
                    self._scan_segment(shard, path, covered)
                    self._covered[shard] = size
                    slots_of[shard] = [s for s, sh in enumerate(self._shard_at)
                                       if sh == shard and self._lens[s] >= 0]
                # A tail scan of another shard may have taken a slot over
                # (one key in two segment files); it is no longer ours.
                slots = [s for s in slots_of[shard] if self._shard_at[s] == shard]
                write_segment_index(path, SegmentIndex(
                    segment_bytes=size,
                    schema=SCHEMA_VERSION,
                    skipped=self._seg_skipped.get(shard, 0),
                    stale=self._seg_stale.get(shard, 0),
                    keys=[self._keys[s] for s in slots],
                    offsets=[self._offs[s] for s in slots],
                    lengths=[self._lens[s] for s in slots],
                ))
            except OSError:
                continue
            finally:
                _unlock(fd)
                os.close(fd)
        self._dirty.clear()

    def compact(self, *, format: str = "jsonl") -> Dict[str, Any]:
        """Compact every segment in place and reload; returns the stats dict.

        See :func:`repro.store.compact.compact_store` — duplicate keys,
        retired-schema lines and junk (torn-tail) lines are dropped, segments
        are rewritten atomically, and sidecar indexes are refreshed.
        ``format="columnar"`` rewrites each shard's winners into a binary
        columnar segment (appends continue to land in JSONL beside it);
        ``format="jsonl"`` expands any columnar segments back to plain JSONL.
        The in-memory view is reloaded from the compacted segments, so the
        store stays fully usable (reads and writes) afterwards.
        """
        from .compact import compact_store

        stats = compact_store(self.root, format=format)
        self._reset_memory()
        self._load(rebuild_index=False)
        return stats

    def close(self) -> None:
        """Write sidecar indexes and release descriptors (reading still works)."""
        try:
            self._write_indexes()
        finally:
            for fd in self._append_fds.values():
                os.close(fd)
            self._append_fds.clear()
            for handle in self._readers.values():
                handle.close()
            self._readers.clear()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r}, rows={len(self._slot)})"
