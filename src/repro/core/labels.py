"""Label representation for the paper's constant-length labeling schemes.

A label is a short binary string assigned to each node by the labeling scheme
(which knows the whole graph); the universal algorithms read only these bits.

* Scheme λ (Section 2.2) uses two bits ``x1 x2``.
* Scheme λ_ack (Section 3.1) appends a third bit ``x3`` marking the special
  node ``z`` that initiates the acknowledgement.
* Scheme λ_arb (Section 4.1) reuses the λ_ack bits and reserves the string
  ``111`` for the coordinator node ``r`` (λ_ack provably never emits it —
  Fact 3.1).

:class:`Label` is a tiny immutable value object that parses/serialises these
strings and exposes the individual bits by the paper's names.
:class:`LabelArray` is a whole labeling whose labels share one width: a
read-only ``Mapping[int, str]`` that stores each node's label as an integer
code (the label's bits read as a binary number) and formats a label string
only when one is read.  Every labeler whose labels share a width returns
one, and the array kernels, the task checks and the label summaries read
its codes, so a sweep builds no per-node label strings.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Iterator

import numpy as np

__all__ = [
    "Label",
    "LabelArray",
    "label_length",
    "scheme_length",
    "distinct_labels",
    "distinct_label_count",
]


@dataclass(frozen=True)
class Label:
    """An ``x1 x2 [x3]`` bit label.

    Attributes
    ----------
    x1:
        "join the dominating set two rounds after being informed" bit.
    x2:
        "send a *stay* message one round after being informed" bit.
    x3:
        "initiate the acknowledgement" bit (only used by λ_ack / λ_arb).
    width:
        Number of bits the label is serialised with (2 or 3).
    """

    x1: int = 0
    x2: int = 0
    x3: int = 0
    width: int = 2

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3"):
            bit = getattr(self, name)
            if bit not in (0, 1):
                raise ValueError(f"label bit {name} must be 0 or 1, got {bit!r}")
        if self.width not in (1, 2, 3):
            raise ValueError(f"label width must be 1, 2 or 3, got {self.width}")
        if self.width < 3 and self.x3:
            raise ValueError("x3 can only be set on width-3 labels")
        if self.width < 2 and self.x2:
            raise ValueError("x2 can only be set on labels of width >= 2")

    # ------------------------------------------------------------------ #
    # parsing / formatting
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, text: str) -> "Label":
        """Parse a label string such as ``"10"`` or ``"001"``.

        Missing trailing bits default to 0; the width is taken from the string
        length, so ``"10"`` is a 2-bit label and ``"100"`` a 3-bit one.
        """
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"label string must be a non-empty bit string, got {text!r}")
        if len(text) > 3:
            raise ValueError(f"labels in this reproduction are at most 3 bits, got {text!r}")
        bits = [int(c) for c in text] + [0, 0]
        return cls(x1=bits[0], x2=bits[1], x3=bits[2], width=len(text))

    def to_string(self) -> str:
        """Serialise to the bit string of the declared width."""
        bits = [self.x1, self.x2, self.x3][: self.width]
        return "".join(str(b) for b in bits)

    def widened(self, width: int) -> "Label":
        """Return the same bits serialised at a (possibly larger) width."""
        if width < self.width:
            raise ValueError(f"cannot narrow a width-{self.width} label to {width}")
        return Label(x1=self.x1, x2=self.x2, x3=self.x3, width=width)

    def with_bits(self, *, x1: int | None = None, x2: int | None = None,
                  x3: int | None = None) -> "Label":
        """Return a copy with the given bits replaced."""
        return Label(
            x1=self.x1 if x1 is None else x1,
            x2=self.x2 if x2 is None else x2,
            x3=self.x3 if x3 is None else x3,
            width=self.width,
        )

    def __str__(self) -> str:
        return self.to_string()


class LabelArray(Mapping):
    """Nodes ``0..n-1``'s labels as ``uint64`` codes of one shared width.

    Node ``v``'s label is the ``width``-bit binary string of ``codes[v]``:
    with width 3, code 6 is ``"110"``.  Reads behave as those of a dict
    from node to label string (``[]``, ``in``, ``get``, ``len``, ``items()``,
    iteration in node order, ``==`` against any mapping), and a string is
    formatted only when it is read.  Two arrays compare by width and codes.
    Codes are ``uint64`` because a round-robin label at the graph size cap
    takes two 32-bit fields.

    The codes are validated once, here: ``1 <= width <= 64`` and every code
    non-negative and below ``2**width``.  The instance and its ``codes``
    array are read-only; the array is a copy of ``codes``.
    """

    __slots__ = ("codes", "width", "_spec")

    codes: np.ndarray
    width: int

    def __init__(self, codes: Any, width: int) -> None:
        width = operator.index(width)
        if not 1 <= width <= 64:
            raise ValueError(f"label width must be between 1 and 64 bits, got {width}")
        given = np.asarray(codes)
        if given.ndim != 1:
            raise ValueError(f"label codes must be one-dimensional, got shape {given.shape}")
        if given.size and given.dtype.kind not in "biu":
            raise TypeError(f"label codes must be integers, got dtype {given.dtype}")
        if given.dtype.kind == "i" and given.size and given.min() < 0:
            v = int((given < 0).argmax())
            raise ValueError(f"label code {int(given[v])} of node {v} is negative")
        stored = given.astype(np.uint64)
        if width < 64 and stored.size and int(stored.max()) >> width:
            v = int((stored >> np.uint64(width)).argmax())
            raise ValueError(
                f"label code {int(stored[v])} of node {v} does not fit in {width} bits"
            )
        stored.flags.writeable = False
        set_ = object.__setattr__
        set_(self, "codes", stored)
        set_(self, "width", width)
        set_(self, "_spec", f"0{width}b")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LabelArray is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LabelArray is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (LabelArray, (self.codes, self.width))

    def _node(self, key: Any) -> int:
        """The node a dict keyed by ``0..n-1`` would find under ``key``, or -1."""
        try:
            v = operator.index(key)
        except TypeError:
            # A dict finds node v under any key equal to v and hashing as v
            # does (1.0, Fraction(1)), and raises TypeError for unhashable keys.
            hash(key)
            try:
                v = int(key)
            except (TypeError, ValueError, OverflowError):
                return -1
            if v != key or hash(v) != hash(key):
                return -1
        return v if 0 <= v < self.codes.size else -1

    def __getitem__(self, key: Any) -> str:
        v = self._node(key)
        if v < 0:
            raise KeyError(key)
        return format(int(self.codes[v]), self._spec)

    def __contains__(self, key: Any) -> bool:
        return self._node(key) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.codes.size))

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelArray):
            return self.width == other.width and bool(np.array_equal(self.codes, other.codes))
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    def __repr__(self) -> str:
        return f"LabelArray(n={self.codes.size}, width={self.width})"


def label_length(label: str) -> int:
    """Length in bits of a single label string."""
    return len(label)


def scheme_length(labels: Mapping[int, str]) -> int:
    """Length of a labeling scheme: the maximum label length it assigns (paper §1.1)."""
    if isinstance(labels, LabelArray):
        return labels.width if len(labels) else 0
    return max(map(len, labels.values()), default=0)


def distinct_labels(labels: Mapping[int, str]) -> Dict[str, int]:
    """Histogram of distinct label strings used by a scheme."""
    if isinstance(labels, LabelArray):
        return {format(code, labels._spec): count
                for code, count in Counter(labels.codes.tolist()).items()}
    return dict(Counter(labels.values()))


def distinct_label_count(labels: Mapping[int, str]) -> int:
    """Number of distinct label strings used by a scheme."""
    if isinstance(labels, LabelArray):
        if not len(labels):
            return 0
        # Sort-and-compare, not np.unique: its first call imports numpy.ma.
        ordered = np.sort(labels.codes)
        return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1
    return len(set(labels.values()))
