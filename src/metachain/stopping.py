"""Stop criteria shared by the two sweep algorithms.

A criterion is a small immutable value; the algorithms interrogate it at
well-defined points of their loops.  Custom predicates receive the current
fully-expanded T-graph and the last threshold exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .chain import parse_rational

__all__ = ["StopCriterion"]

_KINDS = (
    "bucket-empty",
    "bucket-size-one",
    "exponent-threshold",
    "class-covering",
    "custom",
)


@dataclass(frozen=True)
class StopCriterion:
    kind: str = "bucket-empty"
    threshold: Optional[Fraction] = None
    targets: Optional[tuple[frozenset, frozenset]] = None
    predicate: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown stop criterion kind {self.kind!r}")
        if self.kind == "exponent-threshold" and not isinstance(self.threshold, Fraction):
            raise ValueError("exponent-threshold requires a Fraction threshold")
        if self.kind == "class-covering" and (
            self.targets is None or len(self.targets) != 2
        ):
            raise ValueError("class-covering requires two target state sets")
        if self.kind == "custom" and not callable(self.predicate):
            raise ValueError("custom criterion requires a callable predicate")

    @staticmethod
    def bucket_empty() -> "StopCriterion":
        return StopCriterion("bucket-empty")

    @staticmethod
    def bucket_size_one() -> "StopCriterion":
        return StopCriterion("bucket-size-one")

    @staticmethod
    def exponent_threshold(value) -> "StopCriterion":
        return StopCriterion("exponent-threshold", threshold=parse_rational(value))

    @staticmethod
    def class_covering(targets_a, targets_b) -> "StopCriterion":
        """Fire once one closed class holds a state from each target set."""
        return StopCriterion(
            "class-covering",
            targets=(frozenset(targets_a), frozenset(targets_b)),
        )

    @staticmethod
    def custom(predicate: Callable) -> "StopCriterion":
        """predicate(tgraph, exponent) -> bool, checked after every step."""
        return StopCriterion("custom", predicate=predicate)
