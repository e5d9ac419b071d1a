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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

__all__ = ["Label", "label_length", "scheme_length", "distinct_labels"]


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


def label_length(label: str) -> int:
    """Length in bits of a single label string."""
    return len(label)


def scheme_length(labels: Mapping[int, str]) -> int:
    """Length of a labeling scheme: the maximum label length it assigns (paper §1.1)."""
    return max(map(len, labels.values()), default=0)


def distinct_labels(labels: Mapping[int, str]) -> Dict[str, int]:
    """Histogram of distinct label strings used by a scheme."""
    return dict(Counter(labels.values()))
