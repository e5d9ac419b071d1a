"""The NumPy round kernels: every compiled protocol, any number of instances.

One round of the paper's radio model — "a listener hears a message iff exactly
one neighbour transmits" — is a sparse matrix–vector product of the adjacency
matrix with the 0/1 transmit vector.  This module compiles the three labeled
protocols (B, B_ack, B_arb), the round-robin / TDMA baselines, the
centralized-schedule baseline and the collision-detection bit-signalling
baseline into NumPy array kernels, and every kernel advances a whole *batch*
of :class:`~repro.backends.base.SimulationTask` objects per round:

* the batch's CSR adjacency blocks are stacked into one **block-diagonal**
  structure (a batch of one runs on its graph's own CSR arrays).  Blocks
  share no edges, so one channel resolution per round serves every
  instance.  The round's transmitters' concatenated neighbour slices are its
  targets; each round chooses how to count them, as direction-optimizing
  BFS (Beamer, Asanović and Patterson, SC 2012) chooses its step: a
  ``bincount`` over all stacked nodes (each target's entry of a scatter of
  the transmitter ids names the unique sender of a count-1 listener), or,
  when the targets are few against a large channel, a sort of just the
  targets, so a round costs O(targets) instead of O(n);
* protocol state lives in arrays indexed by *stacked* node id, and the
  transitions ("informed two rounds ago", "heard *stay* last round")
  mirror the object protocols branch for branch, in the same priority
  order, so outcomes are **bit-for-bit identical** to the
  :class:`~repro.backends.reference.ReferenceBackend` (asserted by
  ``tests/test_backend_equivalence.py`` and
  ``tests/test_batched_equivalence.py``);
* the labeled protocols and the slotted baselines are **event-driven**.
  By Lemma 2.8 a B node acts only in the two rounds after it learns µ or
  right after it hears *stay*; B_ack adds the round after an ack, and B_arb
  runs B_ack per phase plus the coordinator's and the source's timers.  So
  each round's end builds the next round's transmitters from id lists (the
  nodes informed in the last two rounds, the *stay*- and ack-hearers, the
  due timers), and the ack relay is one ``searchsorted`` into the sorted
  keys of earlier µ-transmissions.  The slotted kernel reads a round's slot
  holders off a slot → nodes table built once per batch.  When no live node
  can act in the next round, the loop jumps to the earliest round one can
  (the next relay, timer or informed slot holder) or to the earliest live
  budget, which retires a stalled instance exactly where its solo run would
  end; the rounds jumped over are silent everywhere.  Only the genuinely
  sparse events — the B_arb coordinators' ack handling, payload decoding —
  stay in Python, bounded by the handful of nodes they touch per round;
* all instances start at round 1 together.  An instance that meets its stop
  rule or spends its budget retires: it is masked out of every later round,
  so its trace ends exactly where a solo run's would.  Stop-rule and
  completion checks run only in rounds where the state they test changed,
  the activity masks exist only once some instance has retired, and a batch
  of one keeps its per-instance totals as plain ints, so a batch of one pays
  no per-instance bookkeeping;
* at the ``"summary"`` / ``"none"`` trace levels a round costs O(1) kernel
  calls of recording: whole-run aggregates accumulate in arrays and each
  trace is materialised once, at the end, via
  :meth:`ExecutionTrace.from_aggregates`.  At ``"full"`` every live instance
  gets its :class:`~repro.radio.trace.RoundRecord` per round, its slice of
  the round's sorted id arrays cut at the block offsets, and an empty record
  for each round jumped over.

One engine runs these kernels at every instance size:
:class:`VectorizedBackend` (``"vectorized"``).  Its
:meth:`~VectorizedBackend.run_batch` stacks its tasks into one kernel loop,
and ``run_task`` is a batch of one.  Tasks the kernels do not cover
(fault/clock models other than the paper's defaults) run on the reference
engine, and each result's ``backend`` tag names the engine that ran it, so
the backend is always safe to pass.  Batches must be
*homogeneous* in protocol and trace level; mixing either raises
:class:`~repro.backends.base.BackendError`.

Determinism needs no per-instance RNG plumbing: the compiled protocols are
deterministic, and the only randomized channel semantics (fault models, which
memoise per-(round, node) coin flips) are exactly the tasks the kernels do
not cover — those run per task with their own model objects, keeping every
instance's random stream independent of how the batch was composed.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..baselines.base import parse_slot_label
from ..baselines.collision_detection import (
    LENGTH_HEADER_BITS,
    SLOT_LENGTH,
    decode_payload_bits,
    encode_payload_bits,
)
from ..core.labels import LabelArray
from ..graphs.graph import stack_csr
from ..radio.clock import SynchronizedClocks
from ..radio.collision import NoCollisionDetection, WithCollisionDetection
from ..radio.engine import SimulationResult
from ..radio.faults import NoFaults
from ..radio.messages import (
    Message,
    ack_message,
    initialize_message,
    ready_message,
    source_message,
    stay_message,
)
from ..radio.trace import TRACE_FULL, ExecutionTrace, RoundRecord
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask
from .reference import ReferenceBackend

__all__ = [
    "VectorizedBackend",
    "run_broadcast_batch",
    "run_acknowledged_batch",
    "run_arbitrary_batch",
    "run_slotted_batch",
    "run_centralized_batch",
    "run_collision_detection_batch",
]

# Transmission kind codes used by the kernels (0 = listen).
_K_INIT = 1
_K_READY = 2
_K_SOURCE = 3
_K_STAY = 4
_K_ACK = 5
_KIND_NAMES = {
    _K_INIT: "initialize",
    _K_READY: "ready",
    _K_SOURCE: "source",
    _K_STAY: "stay",
    _K_ACK: "ack",
}

#: B_arb ack payload codes below the integer ones: the instance's payload
#: µ, and "nothing learned yet" (the coordinator's learned payload only).
_SRC_PAY = -1
_NO_PAY = -2

#: Sentinel for "never" in round-number arrays (any valid round is >= 1, and
#: the rules compare against r-2 >= -1, so -5 can never match).
_NEVER = -5

_EMPTY = np.empty(0, dtype=np.int64)

#: "No event": the round a kernel passes when no live node can ever act.
_INF = float("inf")


# --------------------------------------------------------------------------- #
# label parsing and bit accounting
# --------------------------------------------------------------------------- #
def _array_codes(task: SimulationTask) -> Tuple[np.ndarray, int]:
    """The codes and width of a task's :class:`~repro.core.labels.LabelArray`."""
    return task.labels.codes[:task.graph.n], task.labels.width


def _stack_codes(parts: Sequence[Tuple[np.ndarray, int]]) -> Tuple[np.ndarray, Any]:
    """Per-task ``(codes, width)`` pairs as one stacked codes array and the
    label width of each stacked node, a scalar when the tasks share one."""
    codes = parts[0][0] if len(parts) == 1 else np.concatenate([c for c, _ in parts])
    widths = [w for _, w in parts]
    if min(widths) == max(widths):
        return codes, np.uint64(widths[0])
    return codes, np.repeat(np.array(widths, dtype=np.uint64), [c.size for c, _ in parts])


def _parse_bit_labels(labels, n: int) -> np.ndarray:
    """``x1 x2 [x3]`` label strings as 3-bit codes ``4·x1 + 2·x2 + x3``.

    The input adapter for labels a caller built as strings; the task has
    already rejected any label that is not a bit string of at most three
    bits.
    """
    # Fixed-width text keeps each label's first three characters, NUL-padded
    # (never "1"), so bit i of node v is one code-point comparison.
    chars = np.array([labels[v] for v in range(n)], dtype="U3").view(np.uint32)
    bits = chars.reshape(n, 3) == ord("1")
    return bits @ np.array([4, 2, 1], dtype=np.uint64)


def _parse_slot_labels(tasks: Sequence[SimulationTask]) -> Tuple[np.ndarray, np.ndarray]:
    """The stacked ``(slots, periods)`` of ``bits(slot) ++ bits(period-1)`` labels.

    The slotted schemes label each instance with a
    :class:`~repro.core.labels.LabelArray` of an even width ``2h``: the
    batch's codes are one stacked array, and a code's slot and period - 1
    are its high and low ``h`` bits.  Labels a caller built as strings are
    read as one byte array of codes whenever they share a width.  Otherwise
    each task is read on its own, and a task with irregular labels (odd or
    mixed widths, other characters, more than 64 characters) node by node
    with :func:`parse_slot_label`, which raises the reference engine's error
    for the first bad label.
    """
    if all(isinstance(task.labels, LabelArray) and task.labels.width % 2 == 0
           for task in tasks):
        return _split_slot_codes(*_stack_codes([_array_codes(task) for task in tasks]))
    parsed = _parse_fixed_width(tasks)
    if parsed is not None:
        return _split_slot_codes(*parsed)
    if len(tasks) > 1:
        parts = [_parse_slot_labels([task]) for task in tasks]
        return (np.concatenate([slots for slots, _ in parts]),
                np.concatenate([periods for _, periods in parts]))
    labels, n = tasks[0].labels, tasks[0].graph.n
    slots = np.zeros(n, dtype=np.int64)
    periods = np.ones(n, dtype=np.int64)
    for v in range(n):
        slots[v], periods[v] = parse_slot_label(labels[v])
    return slots, periods


def _split_slot_codes(codes: np.ndarray, widths: Any) -> Tuple[np.ndarray, np.ndarray]:
    """``(slots, periods)`` of slotted labels as codes of even widths."""
    half = widths >> np.uint64(1)
    low = (np.uint64(1) << half) - np.uint64(1)
    return (codes >> half).astype(np.int64), (codes & low).astype(np.int64) + 1


def _parse_fixed_width(tasks: Sequence[SimulationTask]) -> Optional[Tuple[np.ndarray, Any]]:
    """The stacked codes and the width of label strings that are all
    ``"0"``/``"1"`` strings of one even width of at most 64, or ``None``."""
    try:
        width = len(tasks[0].labels[0])
        text = "\n".join(chain(chain.from_iterable(
            map(task.labels.__getitem__, range(task.graph.n)) for task in tasks
        ), [""])).encode("ascii")  # one newline after every label
    except (TypeError, UnicodeEncodeError):
        return None
    n = sum(task.graph.n for task in tasks)
    if not 0 < width <= 64 or width % 2 or len(text) != n * (width + 1):
        return None
    rows = np.frombuffer(text, dtype=np.uint8).reshape(n, width + 1)
    # Each label right-aligned in a 64-bit row: "0" and "1" become 0 and 1,
    # any other character at least 2 ("/" wraps round to 255).  With no
    # newline among a row's first ``width`` bytes, the n newlines all end
    # rows, so every label has exactly ``width`` characters.
    bits = np.zeros((n, 64), dtype=np.uint8)
    np.subtract(rows[:, :width], 0x30, out=bits[:, 64 - width:])
    if bits.max() > 1:
        return None
    return np.packbits(bits).view(">u8"), np.uint64(width)


def _stamp_bits(stamps: np.ndarray) -> np.ndarray:
    """``max(1, ceil(log2(stamp + 2)))`` per stamp — the paper's stamp cost."""
    # ceil(log2(s + 2)) == bit_length(s + 1) for s >= 0; exact in float64 for
    # every round stamp a simulation can produce.
    return np.floor(np.log2(stamps.astype(np.float64) + 1.0)).astype(np.int64) + 1


def _stamp_span(lay: "_BatchLayout") -> int:
    """One more than any stamp the batch can carry.

    Every µ, *stay*, *initialize* and *ready* message sent in round ``t``
    carries stamp ``t`` (the originators stamp their round; each rule adds
    exactly the rounds elapsed since the stamp it copies), and an ack carries
    an earlier such stamp, so no stamp exceeds the largest budget.
    """
    return int(lay.max_rounds.max()) + 1


def _int_payload_bits(value: int) -> int:
    """Bits charged for an integer payload (``max(1, ceil(log2(|v| + 2)))``)."""
    return max(1, (abs(int(value)) + 1).bit_length())


# --------------------------------------------------------------------------- #
# the channel
# --------------------------------------------------------------------------- #
#: The two crossover values of the per-round channel choice, measured on a
#: 2-core x86 box with NumPy 2.4 by timing both branches on the recorded
#: rounds of λ, λ_ack and TDMA runs (grids of 4096 to 504,100 nodes, a
#: 2·10⁴-node G(n, p), a 65,536-node hypercube).  The target sort costs a
#: fixed 20–30 µs: it lost every round at 4096 nodes and broke even near
#: 10⁴ (so every stacked window of up to 4096 nodes stays on ``bincount``).
#: From 2·10⁴ nodes it won while the targets numbered fewer than about
#: n / 55 to n / 24 depending on the graph (n / 40 to n / 27 on grids) and
#: lost by up to 4× above that.
_SPARSE_MIN_NODES = 20_000
_SPARSE_FACTOR = 32


class _Channel:
    """CSR adjacency plus the per-round collision-resolution kernel."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.degrees = indptr[1:] - indptr[:-1]
        # A round writes each target's transmitting neighbour here; a
        # listener that hears has exactly one, so its entry names its sender.
        self.writer = np.empty(n, dtype=np.int64)

    def resolve(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one round of the radio channel for the *sorted* ``tx_ids``.

        Returns ``(tx_ids, hears_ids, senders, collision_ids)`` where
        ``senders[i]`` is the unique transmitting neighbour heard by
        ``hears_ids[i]`` and ``collision_ids`` are the listeners with two or
        more transmitting neighbours, both sorted.
        """
        if tx_ids.size == 0:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        deg = self.degrees[tx_ids]
        ends = np.cumsum(deg)
        total = int(ends[-1])
        if total == 0:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        # Transmitter i's neighbour slice starts at indptr[i]; in the
        # concatenation it starts at the exclusive prefix sum of the degrees.
        base = np.repeat(self.indptr[tx_ids] + deg - ends, deg)
        targets = self.indices[base + np.arange(total, dtype=np.int64)]
        if self.n >= _SPARSE_MIN_NODES and total * _SPARSE_FACTOR < self.n:
            return (tx_ids, *self._resolve_sparse(tx_ids, ends, targets))
        # ``bincount`` returns the platform's intp dtype; force 64-bit so
        # receive counts (and everything derived from them) can never wrap on
        # 32-bit platforms even for n >= 10^6 high-degree instances.
        counts = np.bincount(targets, minlength=self.n).astype(np.int64, copy=False)
        counts[tx_ids] = 0  # transmitters hear nothing in their own round
        hears_ids = (counts == 1).nonzero()[0]
        collision_ids = (counts >= 2).nonzero()[0]
        if hears_ids.size:
            self.writer[targets] = np.repeat(tx_ids, deg)
            senders = self.writer[hears_ids]
        else:
            senders = _EMPTY
        return tx_ids, hears_ids, senders, collision_ids

    @staticmethod
    def _resolve_sparse(
        tx_ids: np.ndarray, ends: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The counts of :meth:`resolve` from a sort of the targets alone."""
        order = targets.argsort(kind="stable")
        ordered = targets[order]
        m = ordered.size
        # head[i]: slot i starts a run of equal targets; the sentinel closes
        # the last run, so a run of length one is a head followed by a head.
        head = np.ones(m + 1, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:m])
        starts = head[:m].nonzero()[0]
        uniq = ordered[starts]
        single = head[starts + 1]
        pos = tx_ids.searchsorted(uniq)
        np.minimum(pos, tx_ids.size - 1, out=pos)
        listens = tx_ids[pos] != uniq  # transmitters hear nothing
        one = single & listens
        hears_ids = uniq[one]
        collision_ids = uniq[listens & ~single]
        if not hears_ids.size:
            return _EMPTY, _EMPTY, collision_ids
        # A count-1 target's only slot lies in its sender's slice.
        senders = tx_ids[ends.searchsorted(order[starts[one]], side="right")]
        return hears_ids, senders, collision_ids


# --------------------------------------------------------------------------- #
# block-diagonal stacking and per-instance bookkeeping
# --------------------------------------------------------------------------- #
def _require_one(values: Set[Any], what: str) -> None:
    if len(values) > 1:
        raise BackendError(
            f"cannot batch tasks with mixed {what} {sorted(values)}; "
            f"group tasks by {what[:-1]} before batching"
        )


class _BatchLayout:
    """Stacked CSR blocks of a batch plus the id arithmetic around them.

    Instance ``b``'s nodes occupy the contiguous stacked-id range
    ``[offsets[b], offsets[b+1])``; because blocks never share edges, any
    sorted array of stacked ids (transmitters, hearers, collisions, …) splits
    into per-instance slices with one ``searchsorted`` against ``offsets``.

    Per-instance accumulators (see :meth:`per_instance`) are length-B arrays,
    or plain ints in a batch of one, where :meth:`counts` is just ``size``.
    """

    def __init__(self, tasks: Sequence[SimulationTask]) -> None:
        self.tasks = list(tasks)
        self.B = B = len(self.tasks)
        self.ns = np.array([t.graph.n for t in self.tasks], dtype=np.int64)
        # A batch of one runs on its graph's own CSR arrays.
        self.offsets, self.indptr, self.indices = stack_csr([t.graph for t in self.tasks])
        self.total = int(self.offsets[-1])
        self.sources = self.offsets[:-1] + np.array(
            [t.source for t in self.tasks], dtype=np.int64
        )
        self.max_rounds = np.array([t.max_rounds for t in self.tasks], dtype=np.int64)
        #: Node counts in per-instance accumulator form.
        self.sizes = self.total if B == 1 else self.ns
        self.owner = np.repeat(np.arange(B, dtype=np.int64), self.ns)

    def channel(self) -> _Channel:
        return _Channel(self.indptr, self.indices, self.total)

    def per_instance(self):
        """A zeroed per-instance accumulator."""
        return 0 if self.B == 1 else np.zeros(self.B, dtype=np.int64)

    def at(self, acc, b: int) -> int:
        """Instance ``b``'s entry of a per-instance accumulator."""
        return int(acc) if self.B == 1 else int(acc[b])

    def counts(self, ids: np.ndarray, weights: Optional[np.ndarray] = None):
        """Per-instance element counts (or integer ``weights`` sums) of an
        array of stacked node ids, in accumulator form.

        Forced to ``int64`` so accumulators built from these never wrap on
        platforms where ``bincount`` returns 32-bit integers.
        """
        if self.B == 1:
            return ids.size if weights is None else int(weights.sum())
        return np.bincount(self.owner[ids], weights=weights, minlength=self.B).astype(
            np.int64, copy=False
        )

    def kind_counts(self, kinds: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``[kind code, instance]`` histogram of the transmissions ``ids``."""
        if self.B == 1:
            return np.bincount(kinds, minlength=_K_ACK + 1)[:, None]
        flat = kinds.astype(np.int64) * self.B + self.owner[ids]
        return np.bincount(flat, minlength=(_K_ACK + 1) * self.B).reshape(
            _K_ACK + 1, self.B
        )

    def split_points(self, ids: np.ndarray) -> np.ndarray:
        """Slice boundaries of a *sorted* stacked-id array at the block offsets."""
        return np.searchsorted(ids, self.offsets)


class _BatchRun:
    """Per-instance activity, stop and trace bookkeeping shared by all kernels.

    ``node_mask`` is ``None`` while every instance is live, and the stacked
    node view of ``active`` once one has retired (or never started, with a
    zero budget): kernels mask their transmitters with it only then.  With no
    full-level task in the batch (``fast``), kernels record whole-run
    aggregates into :class:`_SummaryAggregates` instead of per-round records.
    """

    def __init__(self, lay: _BatchLayout) -> None:
        levels = {t.trace_level for t in lay.tasks}
        _require_one(levels, "trace levels")
        self.lay = lay
        self.fast = TRACE_FULL not in levels
        self.traces = (
            None
            if self.fast
            else [ExecutionTrace(t.graph.n, t.source) for t in lay.tasks]
        )
        self.active = lay.max_rounds >= 1
        self.live = int(np.count_nonzero(self.active))
        self.node_mask = None if self.live == lay.B else self.active[lay.owner]
        self.next_budget = min(lay.max_rounds[self.active].tolist(), default=0)
        self.stop_round = np.zeros(lay.B, dtype=np.int64)
        self.stop_reason = ["budget"] * lay.B

    def complete(self, r: int, done, completion: List[Optional[int]],
                 stop_mask: np.ndarray) -> None:
        """Note that ``done`` (per instance) holds after round ``r``: record
        first completion rounds and retire the instances whose stop rule is
        exactly that condition."""
        if self.lay.B == 1:
            if not done:
                return
            done = self.active
        else:
            done = done & self.active
        for b in np.flatnonzero(done):
            if completion[b] is None:
                completion[b] = r
        self.stop(r, done & stop_mask)

    def stop(self, r: int, met: np.ndarray) -> None:
        """Retire the live instances in ``met``: their stop rule held in round ``r``."""
        met = met & self.active
        if met.any():
            for b in np.flatnonzero(met):
                self.stop_reason[b] = "condition"
            self._retire(r, met)

    def end_round(self, r: int) -> None:
        """Close round ``r``: retire the instances whose budget it spent."""
        if r >= self.next_budget:
            self._retire(r, self.active & (self.lay.max_rounds <= r))

    def _retire(self, r: int, which: np.ndarray) -> None:
        self.stop_round[which] = r
        self.active = self.active & ~which
        self.live = int(np.count_nonzero(self.active))
        if self.live:
            self.node_mask = self.active[self.lay.owner]
            self.next_budget = min(self.lay.max_rounds[self.active].tolist())

    def live_ids(self, ids: np.ndarray) -> np.ndarray:
        """The stacked ``ids`` that belong to live instances."""
        return ids if self.node_mask is None else ids[self.node_mask[ids]]

    def advance(self, r: int, event: float) -> int:
        """The round to run after round ``r``: the earliest ``event`` round
        in which some live node can act, or the earliest live budget, which
        retires an instance no event will ever wake.  The rounds jumped over
        are silent everywhere; a full trace records them as empty rounds."""
        t = int(min(event, self.next_budget))
        if self.traces is not None and t > r + 1:
            for b in np.flatnonzero(self.active):
                trace = self.traces[b]
                for k in range(r + 1, t):
                    trace.append(RoundRecord(k, {}, {}, frozenset()))
        return t

    def record_full(
        self,
        r: int,
        channel_out: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        message_of: Callable[[int, int], Message],
    ) -> None:
        """Append round ``r``'s :class:`RoundRecord` to every live instance;
        ``message_of(u, b)`` is the message stacked transmitter ``u`` of
        instance ``b`` sent."""
        lay = self.lay
        tx_ids, hears_ids, senders, collision_ids = channel_out
        tx_pts = lay.split_points(tx_ids)
        rx_pts = lay.split_points(hears_ids)
        col_pts = lay.split_points(collision_ids)
        for b in np.flatnonzero(self.active):
            off = int(lay.offsets[b])
            transmissions = {
                int(u) - off: message_of(int(u), b)
                for u in tx_ids[tx_pts[b] : tx_pts[b + 1]]
            }
            receptions = {
                int(v) - off: transmissions[int(u) - off]
                for v, u in zip(
                    hears_ids[rx_pts[b] : rx_pts[b + 1]],
                    senders[rx_pts[b] : rx_pts[b + 1]],
                )
            }
            collisions = collision_ids[col_pts[b] : col_pts[b + 1]] - off
            self.traces[b].append(
                RoundRecord(
                    round_number=r,
                    transmissions=transmissions,
                    receptions=receptions,
                    collisions=frozenset(collisions.tolist()),
                )
            )

    def results(
        self,
        derived: List[Dict[str, Any]],
        traces: Optional[List[Any]] = None,
    ) -> List[BackendResult]:
        if traces is None:
            traces = self.traces
        return [
            BackendResult(
                simulation=SimulationResult(
                    trace=traces[b],
                    nodes=[],
                    stop_round=int(self.stop_round[b]),
                    stop_reason=self.stop_reason[b],
                ),
                derived=derived[b],
            )
            for b in range(self.lay.B)
        ]


def _first_rounds(rounds: np.ndarray, ids: Optional[np.ndarray] = None) -> Dict[int, int]:
    """``{node: round}`` for the nonzero entries of ``rounds`` (or at ``ids``)."""
    if ids is None:
        ids = rounds.nonzero()[0]
    return dict(zip(ids.tolist(), rounds[ids].tolist()))


class _SummaryAggregates:
    """Whole-run per-instance aggregates for the fast (summary/none) path.

    Totals are per-instance accumulators updated once per round; per-node
    first-informed / first-ack / last-ack rounds live in stacked arrays
    (0 = never; real rounds start at 1), exactly the state the incremental
    trace recorder would have built.  The ack arrays exist only for the
    protocols that send acks.
    """

    def __init__(self, lay: _BatchLayout, *, acks: bool = False) -> None:
        self.lay = lay
        self.tx = lay.per_instance()
        self.rx = lay.per_instance()
        self.col = lay.per_instance()
        self.fixed = lay.per_instance()
        self.first_informed = np.zeros(lay.total, dtype=np.int64)
        self.ack_first = np.zeros(lay.total, dtype=np.int64) if acks else None
        self.ack_last = np.zeros(lay.total, dtype=np.int64) if acks else None

    def add_channel(self, tx_ids, hears_ids, collision_ids) -> None:
        lay = self.lay
        self.tx += lay.counts(tx_ids)
        self.rx += lay.counts(hears_ids)
        self.col += lay.counts(collision_ids)

    def mark_informed(self, ids: np.ndarray, r: int) -> None:
        if ids.size:
            first = self.first_informed
            first[ids[first[ids] == 0]] = r

    def mark_acks(self, ids: np.ndarray, r: int) -> None:
        if ids.size:
            first = self.ack_first
            first[ids[first[ids] == 0]] = r
            self.ack_last[ids] = r

    def trace_for(
        self,
        b: int,
        run: _BatchRun,
        *,
        kind_hist: Dict[str, int],
        fixed_bits: int,
        payload_messages: int,
    ) -> ExecutionTrace:
        lay = self.lay
        task = lay.tasks[b]
        lo, hi = int(lay.offsets[b]), int(lay.offsets[b + 1])
        informed_first = ack_first = ack_last = None
        if task.trace_level != "none":
            informed_first = _first_rounds(self.first_informed[lo:hi])
            if self.ack_first is not None:
                acked = self.ack_first[lo:hi].nonzero()[0]
                ack_first = _first_rounds(self.ack_first[lo:hi], acked)
                ack_last = _first_rounds(self.ack_last[lo:hi], acked)
        return ExecutionTrace.from_aggregates(
            task.graph.n,
            task.source,
            level=task.trace_level,
            num_rounds=int(run.stop_round[b]),
            total_transmissions=lay.at(self.tx, b),
            total_receptions=lay.at(self.rx, b),
            total_collisions=lay.at(self.col, b),
            kind_hist=kind_hist,
            fixed_bits=fixed_bits,
            payload_messages=payload_messages,
            informed_first=informed_first,
            ack_first=ack_first,
            ack_last=ack_last,
        )


def _stack_bit_labels(lay: _BatchLayout) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked nodes' ``x1``, ``x2`` and ``x3`` bits as boolean arrays.

    A label of width ``w`` is a ``w``-bit code whose top bit is ``x1``; its
    missing bits read as 0, so the code shifted left by ``3 - w`` is its
    3-bit code ``4·x1 + 2·x2 + x3``.  Labels a caller built as strings are
    read by :func:`_parse_bit_labels` (3-bit codes already).
    """
    codes, widths = _stack_codes([
        _array_codes(task) if isinstance(task.labels, LabelArray)
        else (_parse_bit_labels(task.labels, task.graph.n), 3)
        for task in lay.tasks
    ])
    codes = codes << (np.uint64(3) - widths)
    return (codes & 4) != 0, (codes & 2) != 0, (codes & 1) != 0


def _stop_rule_mask(lay: _BatchLayout, rule: str) -> np.ndarray:
    return np.array([t.stop_rule == rule for t in lay.tasks], dtype=bool)


_NO_KEY = np.iinfo(np.int64).max


class _SentKeys:
    """Integer keys of the µ-transmissions so far, for the ack-relay rule.

    A node relays an ack stamped ``k`` iff it transmitted µ stamped ``k``
    (per phase, in B_arb): one ``searchsorted`` of a round's ack-hearer keys
    into this sorted array.  Rounds log their transmissions as raw columns;
    ``key_of`` turns the logged columns into keys (dropping rows that keep
    none) only when a lookup needs them.
    """

    def __init__(self, key_of: Callable[..., np.ndarray]) -> None:
        self.key_of = key_of
        self.keys = np.array([_NO_KEY], dtype=np.int64)  # the sentinel ends every search
        self.fresh: List[Tuple[np.ndarray, ...]] = []

    def add(self, *columns: np.ndarray) -> None:
        if columns[0].size:
            self.fresh.append(columns)

    def next_key(self, queries: np.ndarray) -> np.ndarray:
        """The smallest stored key at or above each query."""
        if self.fresh:
            columns = [np.concatenate(c) for c in zip(*self.fresh)]
            self.keys = np.sort(np.concatenate((self.keys, self.key_of(*columns))))
            self.fresh = []
        return self.keys[self.keys.searchsorted(queries)]


# --------------------------------------------------------------------------- #
# Algorithm B — plain broadcast
# --------------------------------------------------------------------------- #
def run_broadcast_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, _ = _stack_bit_labels(lay)
    stop_all = _stop_rule_mask(lay, "all_informed")

    informed = np.zeros(lay.total, dtype=bool)
    informed[lay.sources] = True
    informed_count = lay.per_instance() + 1
    # The last round each node transmitted µ: the stay rule's "sent µ two
    # rounds ago", and the message kind of this round's transmitters.
    src_round = np.full(lay.total, _NEVER, dtype=np.int64)
    completion: List[Optional[int]] = [None] * lay.B
    agg = _SummaryAggregates(lay) if run.fast else None
    src_tx_total = lay.per_instance()
    if not run.fast:
        messages = [(source_message(t.payload), stay_message()) for t in lay.tasks]

    # Lemma 2.8: a node acts only in the two rounds after it learns µ, or
    # right after it hears "stay", so each round's end knows the next
    # round's senders of µ and of "stay", and the µ relays of the round
    # after (``relay_later``).  Round 1 is the sources'.
    src_ids, stay_ids, relay_later = run.live_ids(lay.sources), _EMPTY, _EMPTY
    r = 1
    while run.live:
        src_round[src_ids] = r
        out = channel.resolve(np.sort(np.concatenate((src_ids, stay_ids))))
        tx_ids, hears_ids, senders, collision_ids = out

        # Deliver.
        mu_hearers = new_ids = stay_hearers = _EMPTY
        if hears_ids.size:
            heard_mu = src_round[senders] == r
            stay_hearers = hears_ids[~heard_mu]
            mu_hearers = hears_ids[heard_mu]
            new_ids = mu_hearers[~informed[mu_hearers]]
            informed[new_ids] = True
            informed_count += lay.counts(new_ids)

        # Record.
        if run.fast:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            src_tx_total += lay.counts(src_ids)
            agg.mark_informed(mu_hearers, r)
        else:
            run.record_full(
                r, out,
                lambda u, b: messages[b][0] if src_round[u] == r else messages[b][1],
            )

        live = run.live
        if new_ids.size or r == 1:
            run.complete(r, informed_count == lay.sizes, completion, stop_all)
        run.end_round(r)
        if not run.live:
            break
        if run.live != live:
            # Retired instances' nodes never hear again: drop them from the
            # lists once, in the round they retire.
            new_ids, stay_hearers, relay_later = map(
                run.live_ids, (new_ids, stay_hearers, relay_later))

        # Decide round r + 1 (Algorithm 1, branch for branch): a node
        # informed at r - 1 relays µ if x1; one informed at r sends "stay"
        # if x2; a node that sent µ at r - 1 and heard "stay" at r sends µ
        # again.  Those informed at r relay µ at r + 2 if x1.
        src_ids = relay_later
        if stay_hearers.size:
            src_ids = np.concatenate((
                relay_later, stay_hearers[src_round[stay_hearers] == r - 1]))
        stay_ids = new_ids[x2[new_ids]]
        relay_later = new_ids[x1[new_ids]]
        t = run.advance(r, r + 1 if src_ids.size or stay_ids.size
                        else r + 2 if relay_later.size else _INF)
        if t == r + 2:
            src_ids, relay_later = relay_later, _EMPTY
        r = t

    derived = [{"completion_round": completion[b]} for b in range(lay.B)]
    if not run.fast:
        return run.results(derived)
    traces = []
    for b in range(lay.B):
        n_src = lay.at(src_tx_total, b)
        n_stay = lay.at(agg.tx, b) - n_src
        traces.append(agg.trace_for(
            b, run, kind_hist={"source": n_src, "stay": n_stay},
            fixed_bits=2 * n_stay, payload_messages=n_src,
        ))
    return run.results(derived, traces)


# --------------------------------------------------------------------------- #
# Algorithm B_ack — acknowledged broadcast
# --------------------------------------------------------------------------- #
def run_acknowledged_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, x3 = _stack_bit_labels(lay)
    stop_ack = _stop_rule_mask(lay, "acknowledged")
    stop_all = _stop_rule_mask(lay, "all_informed")
    total = lay.total
    is_src = np.zeros(total, dtype=bool)
    is_src[lay.sources] = True
    payloads = [t.payload for t in lay.tasks]
    span = _stamp_span(lay)
    stamp_bits = _stamp_bits(np.arange(span))

    informed = np.zeros(total, dtype=bool)
    informed[lay.sources] = True
    informed_count = lay.per_instance() + 1
    informed_stamp = np.zeros(total, dtype=np.int64)
    src_round = np.full(total, _NEVER, dtype=np.int64)  # the last round each node sent µ
    # Each node's last message, written at a round's senders and read only
    # at that round's senders.
    tx_kind = np.zeros(total, dtype=np.int8)
    tx_stamp = np.zeros(total, dtype=np.int64)
    # ``node * span + stamp`` of every µ a non-source node sent: the paper's
    # transmitRounds, which the source never keeps.
    sent = _SentKeys(lambda ids, stamps: (ids * span + stamps)[~is_src[ids]])

    first_ack: List[Optional[int]] = [None] * lay.B
    acked = np.zeros(lay.B, dtype=bool)
    completion: List[Optional[int]] = [None] * lay.B
    agg = _SummaryAggregates(lay, acks=True) if run.fast else None
    n_src, n_stay = lay.per_instance(), lay.per_instance()

    def message_of(u: int, b: int) -> Message:
        kind, stamp = tx_kind[u], int(tx_stamp[u])
        if kind == _K_SOURCE:
            return source_message(payloads[b], round_stamp=stamp)
        if kind == _K_STAY:
            return stay_message(round_stamp=stamp)
        return ack_message(stamp)

    # Every branch of Algorithm 2 fires on an event of the last two rounds,
    # so each round's end knows the next round's senders of µ (with their
    # stamps), of "stay" and of acks, and the µ relays of the round after
    # (``relay_later``).  Round 1 is the sources' (lines 4-5: µ stamped 1).
    mu_ids = run.live_ids(lay.sources)
    mu_stamps = np.ones(mu_ids.size, dtype=np.int64)
    stay_ids = ack_ids = relay_later = _EMPTY
    r = 1
    while run.live:
        tx_kind[mu_ids] = _K_SOURCE
        tx_stamp[mu_ids] = mu_stamps
        src_round[mu_ids] = r
        sent.add(mu_ids, mu_stamps)
        if stay_ids.size:
            tx_kind[stay_ids] = _K_STAY
            tx_stamp[stay_ids] = informed_stamp[stay_ids] + 1
        if ack_ids.size:
            tx_kind[ack_ids] = _K_ACK
            tx_stamp[ack_ids] = informed_stamp[ack_ids]
        out = channel.resolve(np.sort(np.concatenate((mu_ids, stay_ids, ack_ids))))
        tx_ids, hears_ids, senders, collision_ids = out

        # Deliver.
        mu_hearers = new_ids = stay_hearers = stay_heard = _EMPTY
        ack_hearers = ack_heard = _EMPTY
        newly_acked = False
        if hears_ids.size:
            heard_kind = tx_kind[senders]
            heard_stamp = tx_stamp[senders]
            mu_sel = heard_kind == _K_SOURCE
            mu_hearers = hears_ids[mu_sel]
            new_sel = mu_sel & ~informed[hears_ids]
            new_ids = hears_ids[new_sel]
            informed[new_ids] = True
            informed_stamp[new_ids] = heard_stamp[new_sel]
            informed_count += lay.counts(new_ids)
            stay_sel = heard_kind == _K_STAY
            stay_hearers = hears_ids[stay_sel]
            stay_heard = heard_stamp[stay_sel]
            ack_sel = heard_kind == _K_ACK
            ack_hearers = hears_ids[ack_sel]
            if ack_hearers.size:
                ack_heard = heard_stamp[ack_sel]
                for v in ack_hearers[is_src[ack_hearers]].tolist():
                    b = int(lay.owner[v])
                    if first_ack[b] is None:
                        first_ack[b] = r
                        acked[b] = newly_acked = True

        # Record.
        if run.fast:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            if tx_ids.size:
                n_src += lay.counts(mu_ids)
                n_stay += lay.counts(stay_ids)
                agg.fixed += lay.counts(tx_ids, stamp_bits[tx_stamp[tx_ids]])
            agg.mark_informed(mu_hearers, r)
            agg.mark_acks(ack_hearers, r)
        else:
            run.record_full(r, out, message_of)

        live = run.live
        if new_ids.size or r == 1:
            run.complete(r, informed_count == lay.sizes, completion, stop_all)
        if newly_acked:
            run.stop(r, acked & stop_ack)
        run.end_round(r)
        if not run.live:
            break
        if run.live != live:
            # Retired instances' nodes never hear again: drop them from the
            # lists once, in the round they retire.
            keep = run.node_mask
            new_ids, relay_later = new_ids[keep[new_ids]], relay_later[keep[relay_later]]
            heard = keep[stay_hearers]
            stay_hearers, stay_heard = stay_hearers[heard], stay_heard[heard]
            heard = keep[ack_hearers]
            ack_hearers, ack_heard = ack_hearers[heard], ack_heard[heard]

        # Decide round r + 1 (Algorithm 2, branch for branch; each node
        # fits at most one branch).  Lines 12-16: a node informed at r - 1
        # relays µ if x1, stamped two past its informing stamp.  Lines
        # 17-22: one informed at r starts the ack if x3, else sends "stay" if
        # x2.  Lines 23-27: a node that sent µ at r - 1 and heard "stay" at r
        # sends µ again.  Lines 28-31: a node that heard (ack, k) at r relays
        # it if it sent µ stamped k.  Those informed at r relay µ at r + 2.
        mu_ids, mu_stamps = relay_later, informed_stamp[relay_later] + 2
        if stay_hearers.size:
            retx = src_round[stay_hearers] == r - 1
            mu_ids = np.concatenate((mu_ids, stay_hearers[retx]))
            mu_stamps = np.concatenate((mu_stamps, stay_heard[retx] + 1))
        starts = x3[new_ids]
        stay_ids = new_ids[~starts & x2[new_ids]]
        ack_ids = new_ids[starts]
        if ack_hearers.size:
            keys = ack_hearers * span + ack_heard
            ack_ids = np.concatenate((ack_ids, ack_hearers[sent.next_key(keys) == keys]))
        relay_later = new_ids[x1[new_ids]]
        t = run.advance(r, r + 1 if mu_ids.size or stay_ids.size or ack_ids.size
                        else r + 2 if relay_later.size else _INF)
        if t == r + 2:
            mu_ids, mu_stamps = relay_later, informed_stamp[relay_later] + 2
            relay_later = _EMPTY
        r = t

    derived = [
        {"completion_round": completion[b], "acknowledgement_round": first_ack[b]}
        for b in range(lay.B)
    ]
    if not run.fast:
        return run.results(derived)
    traces = []
    for b in range(lay.B):
        src_b, stay_b = lay.at(n_src, b), lay.at(n_stay, b)
        n_ack = lay.at(agg.tx, b) - src_b - stay_b
        traces.append(agg.trace_for(
            b, run, kind_hist={"source": src_b, "stay": stay_b, "ack": n_ack},
            fixed_bits=lay.at(agg.fixed, b) + 2 * (stay_b + n_ack),
            payload_messages=src_b,
        ))
    return run.results(derived, traces)


# --------------------------------------------------------------------------- #
# Algorithm B_arb — arbitrary-source broadcast
# --------------------------------------------------------------------------- #
def run_arbitrary_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """B_arb: three B_ack phases from the coordinator, plus timers.

    Each phase is an acknowledged broadcast, so a node acts on the events a
    B_ack node acts on, per phase, or when a timer falls due: the
    coordinator's phase-2 and phase-3 starts and the actual source's phase-2
    ack.  Timers are per-instance rows of ``sched`` (``-1`` = not scheduled;
    real rounds start at 1).  The object protocol returns from the first
    rule that fires, in its order (coordinator, source timer, then per phase
    "informed two rounds ago" and "informed one round ago", then *stay*,
    then acks), and unlike B_ack a node may fit several rules at once, so a
    round's candidate groups are merged in that order, first rule wins.  An
    ack's payload is a code: a non-negative integer is itself (the phase-1
    timestamp T), ``_SRC_PAY`` is the instance's payload µ.
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    x1, x2, x3 = _stack_bit_labels(lay)
    stop_arb = _stop_rule_mask(lay, "arb_complete")
    B, total = lay.B, lay.total
    span = _stamp_span(lay)
    stamp_bits = _stamp_bits(np.arange(span))

    coords_local = [int(task.extras["coordinator"]) for task in lay.tasks]
    coords = lay.offsets[:-1] + np.array(coords_local, dtype=np.int64)
    srcs = lay.sources
    coord_is_src = coords == srcs
    is_coord = np.zeros(total, dtype=bool)
    is_coord[coords] = True
    payloads = [t.payload for t in lay.tasks]
    # An ack carrying µ is charged µ's width if µ is an integer, and counts
    # as a payload message otherwise.
    pay_bits = np.array([_int_payload_bits(p) if isinstance(p, int) else 0
                         for p in payloads], dtype=np.int64)
    pay_msg = np.array([not isinstance(p, int) for p in payloads], dtype=bool)

    def payload_of(code: int, b: int) -> Any:
        return payloads[b] if code == _SRC_PAY else int(code)

    # Per-phase stacked state: 0 = initialize, 1 = ready, 2 = source.
    # First-receipt rounds, 0 at the coordinator: it originates every phase
    # and ignores overheard copies.
    ph_inf = np.full((3, total), _NEVER, dtype=np.int64)
    ph_inf[:, coords] = 0
    ph_stamp = np.zeros((3, total), dtype=np.int64)
    t_v = np.full(total, -1, dtype=np.int64)
    t_v[coords] = 0
    T_arr = np.full(total, -1, dtype=np.int64)
    known = np.zeros(total, dtype=bool)
    completion_known = np.zeros(total, dtype=np.int64)
    # Each node's last message and the round it went out: written at a
    # round's senders; the stay rule reads them at stay-hearers, who listened.
    tx_kind = np.zeros(total, dtype=np.int8)
    tx_stamp = np.zeros(total, dtype=np.int64)
    ack_code = np.zeros(total, dtype=np.int64)
    sent_round = np.full(total, _NEVER, dtype=np.int64)
    # ``(node * span + stamp) * 3 + phase`` of every phase message a
    # non-coordinator sent: the per-phase transmitRounds.
    sent = _SentKeys(lambda ids, stamps, kinds: ((ids * span + stamps) * 3 + kinds - _K_INIT)[
        (kinds <= _K_SOURCE) & ~is_coord[ids]])

    # Coordinator / actual-source scheduling state, one slot per instance.
    # Rows of ``sched``: the coordinator's READY and SOURCE starts and the
    # actual source's phase-2 ack.  T_c_val is only meaningful where
    # T_c_has (0 is a legal T value).
    sched = np.full((3, B), -1, dtype=np.int64)
    T_c_val = np.zeros(B, dtype=np.int64)
    T_c_has = np.zeros(B, dtype=bool)
    ready_sent = np.full(B, -1, dtype=np.int64)
    learned = np.where(coord_is_src, _SRC_PAY, _NO_PAY)
    coord_ack_first: List[Optional[int]] = [None] * B
    coord_ack_last: List[Optional[int]] = [None] * B

    def next_timer(r: int) -> float:
        pending = sched[:, run.active]
        pending = pending[pending > r]
        return int(pending.min()) if pending.size else _INF

    agg = _SummaryAggregates(lay, acks=True) if run.fast else None
    kind_tx = np.zeros((_K_ACK + 1, B), dtype=np.int64)
    ack_fixed_extra = lay.per_instance()
    ack_payload_msgs = lay.per_instance()

    def message_of(u: int, b: int) -> Message:
        kind, stamp = tx_kind[u], int(tx_stamp[u])
        if kind == _K_INIT:
            return initialize_message(round_stamp=stamp)
        if kind == _K_READY:
            return ready_message(int(T_c_val[b]), round_stamp=stamp)
        if kind == _K_SOURCE:
            return source_message(payload_of(learned[b], b), round_stamp=stamp)
        if kind == _K_STAY:
            return stay_message(round_stamp=stamp)
        return ack_message(stamp, payload=payload_of(ack_code[u], b))

    # ``due``: the next round's candidate groups ``(ids, kind, stamps,
    # ack codes)`` in rule order (kind ``None`` resends the node's last
    # kind); ``later``: per phase, the µ relays of the round after.
    due: List[Tuple[Any, ...]] = []
    later = [_EMPTY] * 3
    timer = _INF
    r = 1
    while run.live:
        # Coordinator phase starts, then the source's ack timer (the object
        # protocol's first branches; every instance's clock starts at round
        # 1, so a coordinator's stamp is just r).
        starts: List[Tuple[Any, ...]] = []
        known_changed = False
        if r == 1:
            starts.append((run.live_ids(coords), _K_INIT, 1, None))
        elif r == timer:
            m_ready = run.active & (sched[0] == r) & T_c_has
            if m_ready.any():
                ready_sent[m_ready] = r
                m_rs = m_ready & coord_is_src
                sched[1][m_rs] = r + T_c_val[m_rs] + 1
                starts.append((coords[m_ready], _K_READY, r, None))
            m_src = run.active & ~m_ready & (sched[1] == r) & (learned != _NO_PAY)
            if m_src.any():
                ids = coords[m_src]
                known[ids] = True
                known_changed = True
                completion_known[ids] = r + T_c_val[m_src] - 1
                starts.append((ids, _K_SOURCE, r, None))
            m_sa = run.active & (sched[2] == r)
            if m_sa.any():
                ids = srcs[m_sa]
                starts.append((ids, _K_ACK, ph_stamp[1][ids], _SRC_PAY))
            timer = next_timer(r)

        # Scatter the groups last rule first, so a node's first rule writes
        # last and wins.
        groups = [g for g in starts + due if g[0].size]
        has_ack = False
        for ids, kind, stamps, codes in reversed(groups):
            if kind is not None:
                tx_kind[ids] = kind
            tx_stamp[ids] = stamps
            if codes is not None:
                ack_code[ids] = codes
                has_ack = True
        tx_ids = _EMPTY
        if len(groups) == 1:
            tx_ids = groups[0][0]
        elif groups:
            tx_ids = np.sort(np.concatenate([g[0] for g in groups]))
            repeat = tx_ids[1:] == tx_ids[:-1]
            if repeat.any():
                tx_ids = tx_ids[np.concatenate(([True], ~repeat))]
        if groups:
            sent_round[tx_ids] = r
            kinds = tx_kind[tx_ids]
            sent.add(tx_ids, tx_stamp[tx_ids], kinds)
        out = channel.resolve(tx_ids)
        tx_ids, hears_ids, senders, collision_ids = out

        # Deliver.
        new = [_EMPTY] * 3
        mu_hearers = stay_hearers = stay_heard = _EMPTY
        ack_hearers = ack_heard = ack_codes = _EMPTY
        if hears_ids.size:
            heard_kind = tx_kind[senders]
            heard_stamp = tx_stamp[senders]
            present = np.bincount(heard_kind, minlength=_K_ACK + 1)
            for k in range(3):  # first receipt of a phase's broadcast payload
                if not present[_K_INIT + k]:
                    continue
                sel = heard_kind == _K_INIT + k
                vs = hears_ids[sel]
                sts = heard_stamp[sel]
                keep = ph_inf[k][vs] == _NEVER
                vs, sts = vs[keep], sts[keep]
                if vs.size == 0:
                    continue
                new[k] = vs
                ph_inf[k][vs] = r
                ph_stamp[k][vs] = sts
                if k == 0:
                    t_v[vs] = sts
                elif k == 1:
                    ov = lay.owner[vs]
                    T_arr[vs] = np.where(T_c_has[ov], T_c_val[ov], 0)
                    for v in vs[vs == srcs[ov]].tolist():
                        b = int(lay.owner[v])
                        sched[2][b] = r + int(T_arr[v]) + 1
                        timer = min(timer, int(sched[2][b]))
                else:
                    ready_t = (T_arr[vs] >= 0) & (t_v[vs] >= 0)
                    done = vs[ready_t]
                    if done.size:
                        known[done] = True
                        known_changed = True
                        completion_known[done] = r + T_arr[done] - t_v[done]
            if present[_K_SOURCE]:
                mu_hearers = hears_ids[heard_kind == _K_SOURCE]
            if present[_K_STAY]:
                stay_sel = heard_kind == _K_STAY
                stay_hearers = hears_ids[stay_sel]
                stay_heard = heard_stamp[stay_sel]
            if present[_K_ACK]:
                ack_sel = heard_kind == _K_ACK
                ack_hearers = hears_ids[ack_sel]
                ack_heard = heard_stamp[ack_sel]
                ack_codes = ack_code[senders[ack_sel]]
                at_coord = is_coord[ack_hearers]
                for v, code in zip(ack_hearers[at_coord].tolist(),
                                   ack_codes[at_coord].tolist()):
                    b = int(lay.owner[v])
                    coord_ack_last[b] = r
                    if coord_ack_first[b] is None:
                        coord_ack_first[b] = r
                    if not T_c_has[b]:
                        T_c_val[b] = int(payload_of(code, b))
                        T_c_has[b] = True
                        sched[0][b] = r + T_c_val[b] + 1
                        timer = min(timer, int(sched[0][b]))
                    elif (
                        ready_sent[b] != -1
                        and r > ready_sent[b]
                        and sched[1][b] == -1
                    ):
                        learned[b] = code
                        sched[1][b] = r + T_c_val[b] + 1
                        timer = min(timer, int(sched[1][b]))

        # Record.
        if run.fast:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            if tx_ids.size:
                kind_tx += lay.kind_counts(kinds, tx_ids)
                agg.fixed += lay.counts(tx_ids, stamp_bits[tx_stamp[tx_ids]])
                if has_ack:
                    acks = tx_ids[kinds == _K_ACK]
                    codes = ack_code[acks]
                    mine = codes == _SRC_PAY
                    owner = lay.owner[acks]
                    ack_fixed_extra += lay.counts(
                        acks, np.where(mine, pay_bits[owner], stamp_bits[codes]))
                    ack_payload_msgs += lay.counts(acks[mine & pay_msg[owner]])
            agg.mark_informed(mu_hearers, r)
            agg.mark_acks(ack_hearers, r)
        else:
            run.record_full(r, out, message_of)

        live = run.live
        if known_changed:
            all_known = lay.counts(np.flatnonzero(known)) == lay.sizes
            run.stop(r, stop_arb & all_known)
        run.end_round(r)
        if not run.live:
            break
        if run.live != live:
            # Retired instances' nodes never hear again: drop them from the
            # lists once, in the round they retire.
            timer = next_timer(r)
            keep = run.node_mask
            new = [ids[keep[ids]] for ids in new]
            later = [ids[keep[ids]] for ids in later]
            heard = keep[stay_hearers]
            stay_hearers, stay_heard = stay_hearers[heard], stay_heard[heard]
            heard = keep[ack_hearers]
            ack_hearers, ack_heard, ack_codes = (
                ack_hearers[heard], ack_heard[heard], ack_codes[heard])

        # Decide round r + 1's candidates, in rule order per phase: a node
        # informed at r - 1 relays the phase's message if x1; one informed
        # at r starts the phase-1 ack if x3 (appending T = its stamp), else
        # sends "stay" if x2.  Then a node that heard "stay" at r after
        # sending a phase message at r - 1 resends it, and a non-coordinator
        # that heard (ack, k) at r relays it if it sent a phase message
        # stamped k, with its informing stamp in that message's phase.
        due = []
        for k in range(3):
            relays, fresh = later[k], new[k]
            if relays.size:
                due.append((relays, _K_INIT + k, ph_stamp[k][relays] + 2, None))
            if not fresh.size:
                later[k] = _EMPTY
                continue
            later[k] = fresh[x1[fresh]]
            if k == 0:
                z = fresh[x3[fresh]]
                if z.size:
                    due.append((z, _K_ACK, ph_stamp[0][z], ph_stamp[0][z]))
                    fresh = fresh[~x3[fresh]]
            stays = fresh[x2[fresh]]
            if stays.size:
                due.append((stays, _K_STAY, ph_stamp[k][stays] + 1, None))
        if stay_hearers.size:
            resend = (sent_round[stay_hearers] == r - 1) & (
                tx_kind[stay_hearers] <= _K_SOURCE)
            if resend.any():
                due.append((stay_hearers[resend], None, stay_heard[resend] + 1, None))
        if ack_hearers.size:
            base = (ack_hearers * span + ack_heard) * 3
            found = sent.next_key(base)
            hit = (found < base + 3) & ~is_coord[ack_hearers]
            if hit.any():
                ids = ack_hearers[hit]
                due.append((ids, _K_ACK, ph_stamp[found[hit] - base[hit], ids],
                            ack_codes[hit]))
        waiting = any(ids.size for ids in later)
        t = run.advance(r, r + 1 if due or timer == r + 1
                        else min(r + 2 if waiting else _INF, timer))
        if t == r + 2 and waiting:
            due = [(ids, _K_INIT + k, ph_stamp[k][ids] + 2, None)
                   for k, ids in enumerate(later) if ids.size]
            later = [_EMPTY] * 3
        r = t

    # Derived outcomes, computed as the reference backend's _arbitrary does.
    derived: List[Dict[str, Any]] = []
    for b in range(B):
        lo, hi = int(lay.offsets[b]), int(lay.offsets[b + 1])
        c_local = coords_local[b]
        src_local = int(srcs[b]) - lo
        others = np.ones(hi - lo, dtype=bool)
        others[[src_local, c_local]] = False
        receipts = ph_inf[2][lo:hi][others]
        completion: Optional[int] = None
        if not (receipts == _NEVER).any() and (
            learned[b] != _NO_PAY or c_local == src_local
        ):
            candidates = receipts.tolist()
            if c_local != src_local and coord_ack_last[b] is not None:
                candidates.append(coord_ack_last[b])
            completion = max(candidates) if candidates else 1
        common: Optional[int] = None
        if bool(known[lo:hi].all()) and hi > lo:
            # min == max, not np.unique: its first call imports numpy.ma.
            values = completion_known[lo:hi]
            if values.min() == values.max():
                common = int(values[0])
        derived.append(
            {
                "completion_round": completion,
                "acknowledgement_round": coord_ack_first[b],
                "common_completion_round": common,
            }
        )

    if not run.fast:
        return run.results(derived)
    traces = []
    for b in range(B):
        counts = {
            name: int(kind_tx[code, b])
            for code, name in _KIND_NAMES.items()
            if kind_tx[code, b]
        }
        n_src = counts.get("source", 0)
        n_ready = counts.get("ready", 0)
        non_source = lay.at(agg.tx, b) - n_src
        fixed = lay.at(agg.fixed, b) + 2 * non_source + lay.at(ack_fixed_extra, b)
        if n_ready:
            # T is fixed from the moment the first READY exists, so the
            # whole-run payload-bit total is one multiply.
            fixed += n_ready * _int_payload_bits(int(T_c_val[b]))
        traces.append(agg.trace_for(
            b, run, kind_hist=counts, fixed_bits=fixed,
            payload_messages=n_src + lay.at(ack_payload_msgs, b),
        ))
    return run.results(derived, traces)


# --------------------------------------------------------------------------- #
# Source-flood baselines: round-robin / TDMA slots and centralized schedules
# --------------------------------------------------------------------------- #
class _SlotTable:
    """The stacked nodes by slot: a node of slot ``s`` and period ``p`` is
    scheduled in every round ``r ≡ s (mod p)``.

    Nodes are grouped by period (under the schemes' own labels, one group
    per instance size for round-robin and per colour count for TDMA) and
    sorted by ``s mod p`` within a group, so a round's slot holders are one
    slice per group: one node per instance for round-robin, one colour class
    per instance for TDMA.
    """

    def __init__(self, slots: np.ndarray, periods: np.ndarray) -> None:
        residues = slots % periods
        order = np.lexsort((residues, periods))
        ordered = periods[order]
        cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
        self.groups = [
            (int(ordered[lo]), order[lo:hi], residues[order[lo:hi]])
            for lo, hi in zip([0] + cuts, cuts + [order.size])
        ]

    def holders(self, r: int, active: np.ndarray) -> np.ndarray:
        """The sorted stacked ids scheduled in round ``r``."""
        parts = []
        for period, ids, residues in self.groups:
            lo, hi = residues.searchsorted((r % period, r % period + 1))
            if hi > lo:
                parts.append(ids[lo:hi])
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts)) if parts else _EMPTY

    def next_round(self, t: int, live: np.ndarray) -> float:
        """The first round from ``t`` on that schedules a node of ``live``."""
        best = _INF
        for period, ids, residues in self.groups:
            sel = live[ids]
            if sel.any():
                best = min(best, t + int(((residues[sel] - t) % period).min()))
        return best


def _run_flood_batch(tasks, make_rule) -> List[BackendResult]:
    """Shared loop for baselines that only ever retransmit µ.

    ``make_rule(lay)`` compiles the batch's transmit rule into two callables:
    ``holders(r, active)``, the sorted stacked ids scheduled to transmit in
    round ``r`` (``active`` is the per-instance live mask), and
    ``next_round(t, live)``, the first round from ``t`` on that schedules a
    node of the stacked mask ``live`` (or ``t`` itself when the rule cannot
    tell).  A node transmits in its scheduled rounds once informed, so after
    a round whose successor schedules no informed live node the loop jumps
    to the next round that does.  Everything else — channel resolution,
    first-receipt bookkeeping, trace recording, the ``all_informed`` stop
    rule — is shared by the slotted and scheduled baselines.
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    holders, next_round = make_rule(lay)
    stop_all = _stop_rule_mask(lay, "all_informed")

    informed = np.zeros(lay.total, dtype=bool)
    informed[lay.sources] = True
    informed_count = lay.per_instance() + 1
    completion: List[Optional[int]] = [None] * lay.B
    agg = _SummaryAggregates(lay) if run.fast else None
    if not run.fast:
        messages = [source_message(t.payload) for t in lay.tasks]

    def transmitters(r: int) -> np.ndarray:
        ids = holders(r, run.active)
        return run.live_ids(ids[informed[ids]])

    r, tx = 1, transmitters(1)
    while run.live:
        out = channel.resolve(tx)
        tx_ids, hears_ids, senders, collision_ids = out
        new_ids = _EMPTY
        if hears_ids.size:
            new_ids = hears_ids[~informed[hears_ids]]
            informed[new_ids] = True
            informed_count += lay.counts(new_ids)

        if run.fast:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.mark_informed(hears_ids, r)
        else:
            run.record_full(r, out, lambda u, b: messages[b])

        if new_ids.size or r == 1:
            run.complete(r, informed_count == lay.sizes, completion, stop_all)
        run.end_round(r)
        if not run.live:
            break
        tx = transmitters(r + 1)
        if tx.size:
            r += 1
            continue
        live = informed if run.node_mask is None else informed & run.node_mask
        r = run.advance(r, next_round(r + 2, live))
        tx = transmitters(r)

    derived = [{"completion_round": completion[b]} for b in range(lay.B)]
    if not run.fast:
        return run.results(derived)
    traces = []
    for b in range(lay.B):
        n_tx = lay.at(agg.tx, b)
        traces.append(agg.trace_for(
            b, run, kind_hist={"source": n_tx}, fixed_bits=0, payload_messages=n_tx,
        ))
    return run.results(derived, traces)


def run_slotted_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Round-robin / G²-colouring TDMA: an informed node of slot s transmits at r ≡ s."""

    def make(lay: _BatchLayout):
        table = _SlotTable(*_parse_slot_labels(lay.tasks))
        return table.holders, table.next_round

    return _run_flood_batch(tasks, make)


def run_centralized_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Centralized schedules: round ``r``'s precomputed transmitter set, once informed.

    Each schedule arrives as data in ``task.extras["schedule"]`` (one
    node-id list per round), the data the reference engine's
    :class:`~repro.baselines.centralized.ScheduledNode` objects are built
    from: a node transmits in its scheduled rounds provided it knows µ.
    """

    def make(lay: _BatchLayout):
        schedules = [
            [
                np.asarray(round_ids, dtype=np.int64) + lay.offsets[b]
                for round_ids in task.extras["schedule"]
            ]
            for b, task in enumerate(lay.tasks)
        ]

        def holders(r: int, active: np.ndarray) -> np.ndarray:
            mask = np.zeros(lay.total, dtype=bool)
            for b in np.flatnonzero(active):
                schedule = schedules[b]
                if r <= len(schedule):
                    mask[schedule[r - 1]] = True
            return mask.nonzero()[0]

        return holders, lambda t, live: t

    return _run_flood_batch(tasks, make)


# --------------------------------------------------------------------------- #
# Collision-detection bit signalling — the OR-channel relay as array kernels
# --------------------------------------------------------------------------- #
def run_collision_detection_batch(tasks: Sequence[SimulationTask]) -> List[BackendResult]:
    """Anonymous bit-signalling broadcast.

    Mirrors :class:`~repro.baselines.collision_detection.BitSignalNode` branch
    for branch: the source emits symbol ``k`` in round ``3k + 1``; a node's
    first perceived energy (a message, or a collision under the detection
    channel) fixes its slot alignment; from then on it appends one symbol per
    slot (energy = 1, silence = 0) and relays symbol ``k`` one round after
    its listening round.  Payload decoding — the only non-array step — runs
    once per node, when its stream first spans the length header plus the
    advertised data bits.
    """
    lay = _BatchLayout(tasks)
    run = _BatchRun(lay)
    channel = lay.channel()
    stop_decoded = _stop_rule_mask(lay, "all_decoded")
    payload_strs = [str(t.payload) for t in lay.tasks]
    detection = np.array(
        [getattr(t.collision_model, "provides_detection", False) for t in lay.tasks],
        dtype=bool,
    )
    det_node = detection[lay.owner]
    is_src = np.zeros(lay.total, dtype=bool)
    is_src[lay.sources] = True

    # Source symbol streams: [preamble 1] + header + data, one per instance.
    streams = [
        np.array([1] + encode_payload_bits(p), dtype=np.int8) for p in payload_strs
    ]
    sym_len = np.array([s.size for s in streams], dtype=np.int64)
    s_max = int(sym_len.max())
    sym_arr = np.zeros((lay.B, s_max), dtype=np.int8)
    for b, stream in enumerate(streams):
        sym_arr[b, : stream.size] = stream

    # Received symbol streams.  A corrupted header can advertise more data
    # bits than the true stream carries, but a node can never append more
    # than one symbol per slot, so the budget bounds the stream length.
    cap = int(lay.max_rounds.max()) // SLOT_LENGTH + 2
    recv = np.zeros((lay.total, cap), dtype=np.int8)
    recv_len = np.zeros(lay.total, dtype=np.int64)
    start_r = np.full(lay.total, -1, dtype=np.int64)
    matches = np.zeros(lay.total, dtype=bool)
    matches[lay.sources] = True  # the source holds µ verbatim
    attempted = np.zeros(lay.total, dtype=bool)
    need_len = np.full(lay.total, -1, dtype=np.int64)
    decoded_count = np.ones(lay.B, dtype=np.int64)
    pow_header = (1 << np.arange(LENGTH_HEADER_BITS - 1, -1, -1)).astype(np.int64)
    agg = _SummaryAggregates(lay) if run.fast else None
    message = source_message("1")

    r = 0
    while run.live:
        r += 1
        tx_mask = np.zeros(lay.total, dtype=bool)

        # Sources: all slots are globally aligned (every instance starts at
        # round 1), so one (k, offset) pair covers every source.
        k_src, off_src = divmod(r - 1, SLOT_LENGTH)
        if off_src == 0 and k_src < s_max:
            emit = run.active & (k_src < sym_len) & (sym_arr[:, k_src] == 1)
            tx_mask[lay.sources[emit]] = True
        # Relays: echo symbol k one round after the listening round for it.
        started_ids = np.flatnonzero(start_r >= 0)
        if started_ids.size:
            delta = r - start_r[started_ids]
            k = delta // SLOT_LENGTH
            relay = (delta % SLOT_LENGTH == 1) & (k < recv_len[started_ids])
            rel_ids = started_ids[relay]
            if rel_ids.size:
                bits = recv[rel_ids, k[relay]]
                tx_mask[rel_ids[bits == 1]] = True
        listeners = ~is_src & ~tx_mask
        if run.node_mask is not None:
            tx_mask &= run.node_mask
            listeners &= run.node_mask

        out = channel.resolve(tx_mask.nonzero()[0])
        tx_ids, hears_ids, senders, collision_ids = out

        # Perceived energy: a heard message always; a collision only under
        # the detection channel.
        energy = np.zeros(lay.total, dtype=bool)
        energy[hears_ids] = True
        if collision_ids.size:
            energy[collision_ids[det_node[collision_ids]]] = True

        new_start = listeners & energy & (start_r < 0)
        ns_ids = np.flatnonzero(new_start)
        if ns_ids.size:
            start_r[ns_ids] = r
            recv[ns_ids, 0] = 1
            recv_len[ns_ids] = 1

        decoded_now = False
        appenders = np.flatnonzero(listeners & (start_r >= 0) & ~new_start)
        if appenders.size:
            delta = r - start_r[appenders]
            k = delta // SLOT_LENGTH
            sel = (delta % SLOT_LENGTH == 0) & (k == recv_len[appenders])
            aids = appenders[sel]
            if aids.size:
                recv[aids, k[sel]] = energy[aids].astype(np.int8)
                recv_len[aids] += 1
                data_bits = recv_len[aids] - 1  # the preamble is not data
                hdr_ids = aids[
                    (need_len[aids] < 0) & (data_bits >= LENGTH_HEADER_BITS)
                ]
                if hdr_ids.size:
                    need_len[hdr_ids] = LENGTH_HEADER_BITS + (
                        recv[hdr_ids, 1 : 1 + LENGTH_HEADER_BITS].astype(np.int64)
                        @ pow_header
                    )
                complete = aids[
                    ~attempted[aids]
                    & (need_len[aids] >= 0)
                    & (data_bits >= need_len[aids])
                ]
                for v in complete.tolist():
                    attempted[v] = True  # decode is a pure function of the
                    # now-fixed stream prefix: one attempt settles it forever
                    text = decode_payload_bits(recv[v, 1 : recv_len[v]].tolist())
                    if text is not None:
                        decoded_now = True
                        b = int(lay.owner[v])
                        decoded_count[b] += 1
                        matches[v] = text == payload_strs[b]

        if run.fast:
            agg.add_channel(tx_ids, hears_ids, collision_ids)
            agg.mark_informed(hears_ids, r)
        else:
            run.record_full(r, out, lambda u, b: message)

        if decoded_now or r == 1:
            run.stop(r, stop_decoded & (decoded_count == lay.ns))
        run.end_round(r)

    derived = [
        {"decoded_correctly": bool(matches[lay.offsets[b]:lay.offsets[b + 1]].all())}
        for b in range(lay.B)
    ]
    if not run.fast:
        return run.results(derived)
    traces = []
    for b in range(lay.B):
        n_tx = lay.at(agg.tx, b)
        traces.append(agg.trace_for(
            b, run, kind_hist={"source": n_tx}, fixed_bits=0, payload_messages=n_tx,
        ))
    return run.results(derived, traces)


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
_BATCH_KERNELS = {
    "broadcast": run_broadcast_batch,
    "acknowledged": run_acknowledged_batch,
    "arbitrary": run_arbitrary_batch,
    "round_robin": run_slotted_batch,
    "coloring_tdma": run_slotted_batch,
    "centralized": run_centralized_batch,
    "collision_detection": run_collision_detection_batch,
}


class VectorizedBackend(SimulationBackend):
    """The NumPy kernels, stacking every :meth:`run_batch` into one kernel loop."""

    name = "vectorized"

    def __init__(self) -> None:
        self._fallback = ReferenceBackend()

    def supports(self, task: SimulationTask) -> bool:
        """True if a kernel covers ``task`` under default channel models."""
        if task.protocol not in _BATCH_KERNELS:
            return False
        if task.source is None or task.graph.n == 0:
            return False
        if task.collision_model is not None and type(task.collision_model) is not NoCollisionDetection:
            # The bit-signalling kernel natively implements the detection
            # channel (energy = message or collision); everything else is
            # compiled for the paper's default model only.
            if not (
                task.protocol == "collision_detection"
                and type(task.collision_model) is WithCollisionDetection
            ):
                return False
        if task.fault_model is not None and type(task.fault_model) is not NoFaults:
            return False
        if task.clock_model is not None and type(task.clock_model) is not SynchronizedClocks:
            return False
        return True

    def run_task(self, task: SimulationTask) -> BackendResult:
        """Run ``task`` as a batch of one (or on the reference engine)."""
        return self.run_batch([task])[0]

    def run_batch(self, tasks: Sequence[SimulationTask]) -> List[BackendResult]:
        """Execute a homogeneous batch, stacked where possible.

        All tasks must share one protocol and one trace level (mixing either
        is a grouping bug in the caller and raises).  Tasks outside the
        kernels' envelope — non-default fault/clock/collision models — run
        per task on the reference engine, so results are always exactly what
        per-task execution would have produced (and each result's
        ``backend`` tag names the engine that actually ran it).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        _require_one({t.protocol for t in tasks}, "protocols")
        _require_one({t.trace_level for t in tasks}, "trace levels")
        stacked = [i for i, t in enumerate(tasks) if self.supports(t)]
        results: List[Optional[BackendResult]] = [None] * len(tasks)
        if stacked:
            kernel = _BATCH_KERNELS[tasks[0].protocol]
            for i, out in zip(stacked, kernel([tasks[i] for i in stacked])):
                out.backend = self.name
                results[i] = out
        for i, task in enumerate(tasks):
            if results[i] is None:
                results[i] = self._fallback.run_task(task)
        return results
