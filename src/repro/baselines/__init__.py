"""Baseline broadcast schemes the paper's introduction compares against.

This package holds each baseline's labels, node class and helpers; the
registered schemes in :mod:`repro.api.schemes` run them, e.g.
``get_scheme("round_robin").run(graph, source)``.
"""

from .base import SlottedNode, bits_needed, int_to_bits
from .centralized import ScheduledNode, compute_centralized_schedule, transmit_rounds
from .collision_detection import (
    BitSignalNode,
    LENGTH_HEADER_BITS,
    SLOT_LENGTH,
    decode_payload_bits,
    encode_payload_bits,
)
from .coloring_tdma import coloring_tdma_labels
from .round_robin import round_robin_labels

__all__ = [
    "BitSignalNode",
    "LENGTH_HEADER_BITS",
    "SLOT_LENGTH",
    "ScheduledNode",
    "SlottedNode",
    "bits_needed",
    "coloring_tdma_labels",
    "compute_centralized_schedule",
    "decode_payload_bits",
    "encode_payload_bits",
    "int_to_bits",
    "round_robin_labels",
    "transmit_rounds",
]
