"""Convergence measurement around scripted faults.

The paper's central dynamic claim is that an actively-bridged network
*reacts* to change: after a link failure the spanning tree detects the loss
(max-age expiry), unblocks the redundant port, and walks it through
listening → learning → forwarding.  :class:`ConvergenceProbe` measures that
episode externally — from trace counters and records, never by reaching into
a switchlet — exactly the way the paper instruments its bridges with ping
and tcpdump rather than internal hooks:

* **detection time** — first spanning-tree port transition after the fault
  (the tree reacting at all);
* **reconvergence time** — last port transition after the fault (the tree
  settled; for an 802.1D failover this is the blocked port reaching
  ``forwarding``, 2 × forward-delay after detection);
* **frames lost during the outage** — ``segment.drop`` records (link-down
  and loss-model drops) via the O(1) live counters, plus downed-NIC drop
  deltas read from interface statistics.

Every figure is total for zero-delivery windows: a probe over an outage in
which *nothing* was delivered, nothing transitioned, or the fault never
fired reports zeros/``None`` rather than raising — the same robustness
contract the ping/ttcp rate windows follow.

Works identically on the single engine and the sharded fabric (record
scans go through the trace's defined order; counter reads are
mode-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import CounterWindow


@dataclass
class ConvergenceReport:
    """The outcome of one convergence episode.

    Attributes:
        fault_time: when the watched fault fired (simulated seconds).
        detection_s: seconds from the fault to the first spanning-tree port
            transition (``None`` if no bridge reacted inside the window).
        reconvergence_s: seconds from the fault to the last observed port
            transition (``None`` if no bridge reacted).
        transitions: port-state transitions observed after the fault.
        frames_lost: frames dropped by failed/lossy segments during the
            window (``segment.drop`` records).
        nic_frames_dropped: additional frames dropped by administratively
            downed NICs during the window.
        forwarding_restored_at: absolute time of the last transition *into*
            the forwarding state after the fault, if any — the moment the
            data path is whole again.
    """

    fault_time: float
    detection_s: Optional[float] = None
    reconvergence_s: Optional[float] = None
    transitions: int = 0
    frames_lost: int = 0
    nic_frames_dropped: int = 0
    forwarding_restored_at: Optional[float] = None

    def summary(self) -> Dict[str, object]:
        """A flat dict for tables and BENCH entries."""
        return {
            "fault_time": self.fault_time,
            "detection_s": self.detection_s,
            "reconvergence_s": self.reconvergence_s,
            "transitions": self.transitions,
            "frames_lost": self.frames_lost,
            "nic_frames_dropped": self.nic_frames_dropped,
        }


class ConvergenceProbe:
    """Watch trace counters across a fault and report the convergence episode.

    Args:
        sim: the simulator (single engine or fabric facade).
        network: optional :class:`~repro.lan.topology.Network`; when given,
            per-NIC drop counters are snapshotted so the report can separate
            downed-port drops from segment-level drops.
        fault_time: when the watched fault fires (defaults to the probe's
            start time; :meth:`observe_fault` can set it later, e.g. from
            ``run.faults.events[0].at``).

    Usage::

        probe = ConvergenceProbe(run.sim, network=run.network,
                                 fault_time=fail_at)
        probe.start()
        run.sim.run_until(fail_at + settle)
        report = probe.report()
    """

    #: Trace category counted as segment-level frame loss.
    DROP_CATEGORY = "segment.drop"

    #: Trace category holding spanning-tree port transitions.
    LOG_CATEGORY = "switchlet.log"

    def __init__(self, sim, network=None, fault_time: Optional[float] = None) -> None:
        self.sim = sim
        self.network = network
        self.fault_time = fault_time
        self._window: Optional[CounterWindow] = None
        self._nic_drops_at_start: Dict[str, int] = {}
        self._started_at: Optional[float] = None

    def start(self) -> None:
        """Open the measurement window (snapshot counters; O(1) per read)."""
        self._window = CounterWindow(self.sim.trace)
        self._started_at = self.sim.now
        if self.fault_time is None:
            self.fault_time = self._started_at
        self._nic_drops_at_start = self._nic_drops()

    def observe_fault(self, at: float) -> None:
        """Declare (or correct) the fault instant the report is relative to."""
        self.fault_time = at

    def _nic_drops(self) -> Dict[str, int]:
        drops: Dict[str, int] = {}
        if self.network is None:
            return drops
        for host in self.network.hosts.values():
            drops[host.nic.name] = host.nic.frames_dropped
        for station in self.network.stations.values():
            for nic in getattr(station, "interfaces", {}).values():
                drops[nic.name] = nic.frames_dropped
        return drops

    def _transitions(self) -> List[Tuple[float, str, str]]:
        """(time, bridge, message) of every port transition after the fault."""
        records = self.sim.trace.filter(
            category=self.LOG_CATEGORY, since=self.fault_time
        )
        out = []
        for record in records:
            message = record.detail.get("message", "")
            if "->" in message and "port" in message:
                out.append((record.time, record.source, message))
        return out

    def report(self) -> ConvergenceReport:
        """Close the window and summarize the episode (total for empty windows)."""
        if self._window is None or self.fault_time is None:
            raise RuntimeError("ConvergenceProbe.report() called before start()")
        transitions = self._transitions()
        detection = reconvergence = None
        forwarding_at = None
        if transitions:
            times = [time for time, _, _ in transitions]
            detection = min(times) - self.fault_time
            reconvergence = max(times) - self.fault_time
            into_forwarding = [
                time for time, _, message in transitions
                if message.rstrip().endswith("forwarding")
            ]
            if into_forwarding:
                forwarding_at = max(into_forwarding)
        # Counter windows saturate at zero: the trace may legitimately be
        # cleared mid-experiment (benchmarks do), and a "negative" delta must
        # not masquerade as loss.
        frames_lost = max(0, self._window.count(category=self.DROP_CATEGORY))
        nic_drops = 0
        for name, now_dropped in self._nic_drops().items():
            nic_drops += max(
                0, now_dropped - self._nic_drops_at_start.get(name, 0)
            )
        return ConvergenceReport(
            fault_time=self.fault_time,
            detection_s=detection,
            reconvergence_s=reconvergence,
            transitions=len(transitions),
            frames_lost=frames_lost,
            nic_frames_dropped=nic_drops,
            forwarding_restored_at=forwarding_at,
        )
