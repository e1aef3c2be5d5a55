"""Experiment report container and registry plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["ExperimentReport", "ExperimentRegistry"]


@dataclass
class ExperimentReport:
    """The regenerated artifact for one paper table or figure.

    ``text`` is the printable reproduction of the table/series (what
    ``python -m repro.experiments run <id>`` prints); ``data`` holds the
    raw numbers the tests check; ``paper_claim`` states what the paper
    reports, printed beside the reproduction for comparison.
    """

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)
    paper_claim: str = ""

    def __str__(self) -> str:
        parts = [self.text]
        if self.paper_claim:
            parts.append(f"[paper] {self.paper_claim}")
        return "\n".join(parts)


class ExperimentRegistry:
    """Registry of experiment id -> callable producing a report."""

    def __init__(self) -> None:
        self._experiments: dict[str, Callable[..., ExperimentReport]] = {}

    def register(self, experiment_id: str):
        def decorator(function: Callable[..., ExperimentReport]):
            if experiment_id in self._experiments:
                raise ValueError(f"experiment {experiment_id!r} already registered")
            self._experiments[experiment_id] = function
            return function

        return decorator

    def run(self, experiment_id: str, **kwargs) -> ExperimentReport:
        try:
            function = self._experiments[experiment_id]
        except KeyError:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; "
                f"available: {', '.join(sorted(self._experiments))}"
            ) from None
        return function(**kwargs)

    def ids(self) -> list[str]:
        return sorted(self._experiments)
