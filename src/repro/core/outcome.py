"""The unified experiment outcome record.

The paper's schemes and the comparison baselines report through one record,
so no consumer — metrics, reports, sweeps — has to know which kind of scheme
it is holding.  :class:`Outcome` carries the superset of fields, where
scheme-specific members (``labeling``, ``bound_broadcast``,
``acknowledgement_round``) are simply ``None`` when the scheme has nothing to
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..radio.engine import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .labeling import Labeling

__all__ = ["Outcome"]


@dataclass
class Outcome:
    """Result of one end-to-end scheme execution — paper scheme or baseline.

    Attributes
    ----------
    scheme:
        Registry name of the scheme that produced this outcome
        (``"lambda"``, ``"round_robin"``, …).
    simulation:
        The raw simulator result (trace + final node objects; node objects
        are empty for array backends, which have no per-node state to
        return).
    completion_round:
        Round in which the last node first heard µ (``None`` if broadcast
        did not complete within the round budget).
    labeling:
        The :class:`~repro.core.labeling.Labeling` instance for the paper's
        schemes; ``None`` for baselines, whose label metadata lives in
        :attr:`label_bits` / :attr:`distinct_labels`.
    label_bits:
        Length of the labeling scheme (max label length over nodes), in bits.
    distinct_labels:
        Number of distinct labels the scheme assigned.
    acknowledgement_round:
        Round in which the source / coordinator first heard an ack
        (acknowledged variants only).
    common_completion_round:
        For B_arb: the common round in which all nodes know broadcast is done.
    bound_broadcast:
        The paper's broadcast bound ``2n − 3`` (Theorem 2.9); ``None`` for
        baselines, which the paper proves no comparable bound for.
    bound_acknowledgement:
        The paper's acknowledgement bound ``t + n − 2`` (Theorem 3.9);
        ``None`` where inapplicable.
    extras:
        Scheme-specific details (coordinator id, number of colours, schedule
        length, …).
    """

    scheme: str
    simulation: SimulationResult
    completion_round: Optional[int]
    labeling: Optional["Labeling"] = None
    label_bits: int = 0
    distinct_labels: int = 1
    acknowledgement_round: Optional[int] = None
    common_completion_round: Optional[int] = None
    bound_broadcast: Optional[int] = None
    bound_acknowledgement: Optional[int] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # shared accessors
    # ------------------------------------------------------------------ #
    @property
    def trace(self):
        """The execution trace."""
        return self.simulation.trace

    @property
    def completed(self) -> bool:
        """True iff every node heard µ."""
        return self.completion_round is not None

    @property
    def total_transmissions(self) -> int:
        """Total transmissions over the whole execution."""
        return self.trace.total_transmissions()

    @property
    def total_collisions(self) -> int:
        """Total (node, round) collision events over the whole execution."""
        return self.trace.total_collisions()

    def summary_row(self) -> Dict[str, Any]:
        """Flat dict used by the report tables."""
        return {
            "scheme": self.scheme,
            "label_bits": self.label_bits,
            "distinct_labels": self.distinct_labels,
            "rounds": self.completion_round,
            "transmissions": self.total_transmissions,
            "collisions": self.total_collisions,
        }
