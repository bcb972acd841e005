"""The fault & dynamics subsystem: scripted link/port failures, loss models.

Active Bridging's central claims are about a network *reacting to change* —
spanning-tree reconvergence after a link failure, live protocol transitions —
and this package is what lets every scenario in the catalog fail, flap and
degrade mid-run, deterministically:

* :class:`~repro.faults.spec.FaultSpec` — one scheduled fault as pure data
  (the ``faults=`` axis of :class:`~repro.scenario.spec.ScenarioSpec`);
* :class:`~repro.faults.timeline.FaultTimeline` — resolves specs against a
  live network and schedules them through the simulator control path, so a
  timeline is canonically identical on the single engine and the sharded
  fabric;
* :class:`~repro.faults.models.FrameLossModel` — seeded per-segment frame
  loss / corruption, consulted by the LAN layer once per serviced frame.

The convergence measurements live in
:mod:`repro.measurement.convergence` (:class:`ConvergenceProbe`).
"""

from repro.faults.models import FrameLossModel, derive_seed
from repro.faults.spec import (
    FAULT_KINDS,
    FaultError,
    FaultSpec,
    NODE_KINDS,
    PORT_KINDS,
    SEGMENT_KINDS,
)
from repro.faults.timeline import FaultTimeline

__all__ = [
    "FAULT_KINDS",
    "SEGMENT_KINDS",
    "PORT_KINDS",
    "NODE_KINDS",
    "FaultError",
    "FaultSpec",
    "FaultTimeline",
    "FrameLossModel",
    "derive_seed",
]
