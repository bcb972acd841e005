"""Experiment records: paper value versus measured value.

Every benchmark produces :class:`ExperimentRecord` entries; an
:class:`ExperimentReport` renders them in the same "paper vs. measured" form
that ``EXPERIMENTS.md`` documents, so regenerating the numbers and updating
the documentation stay in lock-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.tables import render_counters, render_table


@dataclass(frozen=True)
class ExperimentRecord:
    """One compared quantity.

    Attributes:
        experiment: identifier (e.g. ``"Figure 10"``).
        quantity: what is being compared (e.g. ``"bridged ttcp throughput"``).
        paper_value: the value reported in the paper (as text, units included).
        measured_value: the value this reproduction measured.
        comment: free-form note (e.g. why the absolute numbers differ).
    """

    experiment: str
    quantity: str
    paper_value: str
    measured_value: str
    comment: str = ""


@dataclass
class ExperimentReport:
    """A collection of records with a plain-text rendering."""

    title: str
    records: List[ExperimentRecord] = field(default_factory=list)

    def add(
        self,
        experiment: str,
        quantity: str,
        paper_value: str,
        measured_value: str,
        comment: str = "",
    ) -> ExperimentRecord:
        """Append a record and return it."""
        record = ExperimentRecord(
            experiment=experiment,
            quantity=quantity,
            paper_value=paper_value,
            measured_value=measured_value,
            comment=comment,
        )
        self.records.append(record)
        return record

    def render(self) -> str:
        """Render the report as an aligned table."""
        headers = ["experiment", "quantity", "paper", "measured", "comment"]
        rows = [
            [r.experiment, r.quantity, r.paper_value, r.measured_value, r.comment]
            for r in self.records
        ]
        return render_table(headers, rows, title=self.title)

    def find(self, experiment: str, quantity: Optional[str] = None) -> List[ExperimentRecord]:
        """Records matching an experiment id (and optionally a quantity)."""
        matches = [record for record in self.records if record.experiment == experiment]
        if quantity is not None:
            matches = [record for record in matches if record.quantity == quantity]
        return matches


def trace_summary(trace, title: str = "Trace activity") -> str:
    """Render an experiment's trace activity from the hub's live counters.

    Args:
        trace: a :class:`~repro.sim.trace.TraceRecorder`.
        title: table title.

    The summary costs O(categories), not O(records): it reads the hub's
    live :class:`~repro.sim.trace.CountingSink`, so it works unchanged
    with a bounded :class:`~repro.sim.trace.RingBufferSink` that has
    evicted most of the records.
    """
    return render_counters(trace.counters.snapshot(), title=title)
