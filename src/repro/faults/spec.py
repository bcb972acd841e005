"""Declarative fault specifications.

A :class:`FaultSpec` is one scheduled network-dynamics event — a link
failing, a port flapping, a loss model attaching to a segment — described as
pure data, exactly like the topology side of a
:class:`~repro.scenario.spec.ScenarioSpec`.  Specs are frozen dataclasses so
fault families can be generated with :func:`dataclasses.replace` and swept by
the scenario matrix expander (failure time, loss rate and degradation factors
are ordinary factory parameters).

The runtime counterpart is :class:`repro.faults.timeline.FaultTimeline`,
which resolves target names against a live network and schedules every event
through the simulator's *control path* — the facade under the sharded fabric
— so the same timeline is canonically identical on the single engine and
the sharded fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ReproError

#: Every fault kind the subsystem understands.
#:
#: * ``link-down`` / ``link-up`` — fail/restore a whole LAN segment (cable
#:   cut): nothing transmits, everything queued or sent meanwhile is lost.
#: * ``port-down`` / ``port-up`` — administratively fail one station NIC
#:   (``target`` device/host, ``port`` interface name; hosts may omit the
#:   port, meaning their single NIC).
#: * ``frame-loss`` / ``frame-corrupt`` — attach a seeded stochastic
#:   loss/corruption model to a segment (``rate`` / ``corrupt_rate``; a rate
#:   of zero for both detaches the model).
#: * ``degrade`` — scale a segment's bandwidth down and/or add propagation
#:   delay (``bandwidth_scale`` in (0, 1], ``extra_delay`` >= 0; the neutral
#:   values restore the segment to nominal).
#: * ``node-crash`` / ``node-restart`` — fail-silent crash of a whole
#:   station: every interface goes down (the node is partitioned from the
#:   network), then comes back.
FAULT_KINDS = (
    "link-down",
    "link-up",
    "port-down",
    "port-up",
    "frame-loss",
    "frame-corrupt",
    "degrade",
    "node-crash",
    "node-restart",
)

#: Kinds whose target must be a segment.
SEGMENT_KINDS = ("link-down", "link-up", "frame-loss", "frame-corrupt", "degrade")

#: Kinds whose target must be a station (device or host).
PORT_KINDS = ("port-down", "port-up")

#: Kinds that fail/restore a whole station.
NODE_KINDS = ("node-crash", "node-restart")


class FaultError(ReproError):
    """Invalid fault specification or timeline use."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault event, as pure data.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at: absolute simulated time (seconds) the event fires.
        target: name of the component the event applies to — a segment for
            the segment kinds, a device or host for the port/node kinds.
        port: interface name on the target device (``port-down``/``port-up``
            only; optional for hosts, whose single NIC is implied).
        rate: frame-loss probability for ``frame-loss``/``frame-corrupt``.
        corrupt_rate: corruption probability (``frame-corrupt`` sets this;
            a combined model may carry both rates — their sum is capped at 1).
        bandwidth_scale: ``degrade`` bandwidth multiplier in (0, 1].
        extra_delay: ``degrade`` additional propagation delay in seconds.
        seed: extra seed material for the loss model's random stream
            (combined with the timeline seed and the segment name).
    """

    kind: str
    at: float
    target: str
    port: Optional[str] = None
    rate: float = 0.0
    corrupt_rate: float = 0.0
    bandwidth_scale: float = 1.0
    extra_delay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 0:
            raise FaultError(f"fault {self.kind!r} scheduled at negative time {self.at}")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"fault loss rate {self.rate} outside [0, 1]")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise FaultError(f"fault corrupt rate {self.corrupt_rate} outside [0, 1]")
        if self.rate + self.corrupt_rate > 1.0:
            raise FaultError(
                f"loss rate {self.rate} + corrupt rate {self.corrupt_rate} exceeds 1"
            )
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise FaultError(
                f"degrade bandwidth_scale {self.bandwidth_scale} outside (0, 1]"
            )
        if self.extra_delay < 0:
            raise FaultError(f"degrade extra_delay {self.extra_delay} is negative")
        if self.port is not None and self.kind not in PORT_KINDS:
            raise FaultError(f"fault kind {self.kind!r} does not take a port")
        if self.kind == "frame-corrupt" and self.rate:
            raise FaultError(
                "frame-corrupt takes corrupt_rate, not rate (rate is the "
                "silent-loss probability; a combined model is spelled "
                "frame-loss with both rates)"
            )

    def describe(self) -> str:
        """A one-line human-readable form (timeline logs and examples)."""
        extra = ""
        if self.kind in PORT_KINDS and self.port:
            extra = f".{self.port}"
        elif self.kind in ("frame-loss", "frame-corrupt"):
            extra = f" rate={self.rate:g}/corrupt={self.corrupt_rate:g}"
        elif self.kind == "degrade":
            extra = (
                f" bandwidth x{self.bandwidth_scale:g}"
                f" +{self.extra_delay:g}s delay"
            )
        return f"t={self.at:g}s {self.kind} {self.target}{extra}"
