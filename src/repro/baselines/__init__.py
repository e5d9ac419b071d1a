"""Baseline broadcast schemes the paper's introduction compares against."""

from .base import bits_needed, int_to_bits
from .centralized import (
    ScheduledNode,
    compute_centralized_schedule,
    run_centralized_schedule,
)
from .collision_detection import (
    BitSignalNode,
    LENGTH_HEADER_BITS,
    SLOT_LENGTH,
    decode_payload_bits,
    encode_payload_bits,
    run_collision_detection_broadcast,
)
from .coloring_tdma import ColoringTdmaNode, coloring_tdma_labels, run_coloring_tdma
from .round_robin import RoundRobinNode, round_robin_labels, run_round_robin

__all__ = [
    "BitSignalNode",
    "ColoringTdmaNode",
    "LENGTH_HEADER_BITS",
    "RoundRobinNode",
    "SLOT_LENGTH",
    "ScheduledNode",
    "bits_needed",
    "coloring_tdma_labels",
    "compute_centralized_schedule",
    "decode_payload_bits",
    "encode_payload_bits",
    "int_to_bits",
    "round_robin_labels",
    "run_centralized_schedule",
    "run_collision_detection_broadcast",
    "run_coloring_tdma",
    "run_round_robin",
]
