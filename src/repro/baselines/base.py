"""Common infrastructure for the baseline broadcast schemes.

The paper's introduction positions the 2-bit result against the classical
alternatives:

* with **distinct ``O(log n)``-bit labels**, round-robin broadcast always works;
* with a **proper colouring of G²** (``O(log Δ)``-bit labels), a TDMA schedule
  avoids all collisions;
* with **collision detection**, broadcast is trivially feasible even with no
  labels at all (bit signalling through silence vs. noise);
* with **complete topology knowledge**, a centralised schedule can be
  precomputed (unbounded advice).

Each baseline in this package provides its labels and its node class.  Its
registered scheme in :mod:`repro.api.schemes` builds the task from them and
derives the unified :class:`~repro.core.outcome.Outcome` with the metrics the
benchmark tables compare: label length, completion round, number of
transmissions and collisions.  This module holds their shared bit helpers.
"""

from __future__ import annotations

__all__ = ["bits_needed", "int_to_bits"]


def int_to_bits(value: int, width: int) -> str:
    """Fixed-width big-endian binary encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def bits_needed(count: int) -> int:
    """Number of bits needed to encode values ``0 .. count-1`` (at least 1)."""
    if count <= 1:
        return 1
    return (count - 1).bit_length()
