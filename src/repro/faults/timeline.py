"""The fault timeline: scheduled, seedable network-dynamics events.

A :class:`FaultTimeline` collects :class:`~repro.faults.spec.FaultSpec`
events (declaratively via the scenario layer, or imperatively through the
builder helpers below), resolves their target names against a live
:class:`~repro.lan.topology.Network`, and schedules every event through the
simulator's **control path**:

* on the single :class:`~repro.sim.engine.Simulator`, the plain event queue;
  because the timeline is installed before traffic starts, fault events
  carry lower sequence numbers than any same-instant traffic event, so a
  fault always precedes same-time traffic;
* on the sharded fabric, the control ring — fault events run at window
  barriers with every shard clock synchronized, *before* any shard event at
  the same or a later nanosecond, mirroring the single engine's tie-break
  exactly.

That shared control-path discipline is what makes one timeline canonically
identical on every engine configuration; the test suite proves it over the
``ring/failover`` and ``pair/lossy`` scenarios.

Install the timeline **before starting the traffic it is meant to disturb**
(the scenario compiler installs at compile time, before any event is
dispatched); installing mid-run next to already-scheduled same-nanosecond
traffic would make the single engine's tie-break depend on scheduling
order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.faults.models import FrameLossModel, derive_seed
from repro.faults.spec import (
    FAULT_KINDS,
    FaultError,
    FaultSpec,
    NODE_KINDS,
    PORT_KINDS,
    SEGMENT_KINDS,
)


def _station_or_host(network, name: str):
    """Resolve a station (device) or host by name, or raise FaultError."""
    station = network.stations.get(name)
    if station is not None:
        return station
    host = network.hosts.get(name)
    if host is not None:
        return host
    raise FaultError(
        f"fault target {name!r} is neither a device nor a host; "
        f"devices: {sorted(network.stations)}, hosts: {sorted(network.hosts)}"
    )


def _interfaces_of(station) -> list:
    """Every NIC of a station or host, in stable (port-name / single) order."""
    interfaces = getattr(station, "interfaces", None)
    if interfaces is not None:
        return [interfaces[name] for name in sorted(interfaces)]
    nic = getattr(station, "nic", None)
    if nic is not None:
        return [nic]
    raise FaultError(f"fault target {station!r} exposes no interfaces")


class FaultTimeline:
    """An ordered, seedable schedule of fault events for one experiment.

    Args:
        seed: base seed mixed into every loss model's private random stream
            (per segment, via :func:`~repro.faults.models.derive_seed`).

    Build the schedule with the fluent helpers (each returns ``self``)::

        timeline = (
            FaultTimeline(seed=7)
            .link_down(40.0, "seg1")
            .link_up(70.0, "seg1")
            .frame_loss(5.0, "lan1", rate=0.2)
        )
        timeline.install(network)

    or collect explicit :class:`FaultSpec` entries with :meth:`add`.  The
    scenario compiler drives exactly this installation for the
    ``faults=`` axis of :class:`~repro.scenario.spec.ScenarioSpec`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._events: List[FaultSpec] = []
        self._installed = False
        #: ``(at, description)`` log of events applied so far, in fire order.
        self.applied: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    @property
    def events(self) -> Tuple[FaultSpec, ...]:
        """The scheduled events, in ``(at, insertion order)``."""
        order = {id(event): index for index, event in enumerate(self._events)}
        return tuple(
            sorted(self._events, key=lambda event: (event.at, order[id(event)]))
        )

    def add(self, event: FaultSpec) -> "FaultTimeline":
        """Append one explicit fault event."""
        if not isinstance(event, FaultSpec):
            raise FaultError(f"expected a FaultSpec, got {event!r}")
        if self._installed:
            raise FaultError("cannot add events to an installed timeline")
        self._events.append(event)
        return self

    def extend(self, events) -> "FaultTimeline":
        """Append several fault events."""
        for event in events:
            self.add(event)
        return self

    def link_down(self, at: float, segment: str) -> "FaultTimeline":
        """Fail a whole segment at ``at`` (cable cut: every frame is lost)."""
        return self.add(FaultSpec("link-down", at, segment))

    def link_up(self, at: float, segment: str) -> "FaultTimeline":
        """Restore a failed segment at ``at``."""
        return self.add(FaultSpec("link-up", at, segment))

    def port_down(self, at: float, device: str, port: Optional[str] = None) -> "FaultTimeline":
        """Administratively fail one NIC (``port`` optional for hosts)."""
        return self.add(FaultSpec("port-down", at, device, port=port))

    def port_up(self, at: float, device: str, port: Optional[str] = None) -> "FaultTimeline":
        """Restore a failed NIC."""
        return self.add(FaultSpec("port-up", at, device, port=port))

    def frame_loss(
        self, at: float, segment: str, rate: float, corrupt_rate: float = 0.0,
        seed: int = 0,
    ) -> "FaultTimeline":
        """Attach a seeded loss/corruption model to a segment at ``at``."""
        return self.add(
            FaultSpec("frame-loss", at, segment, rate=rate,
                      corrupt_rate=corrupt_rate, seed=seed)
        )

    def frame_corrupt(
        self, at: float, segment: str, rate: float, seed: int = 0
    ) -> "FaultTimeline":
        """Attach a corruption-only model (bad-FCS frames, dropped by NICs)."""
        return self.add(
            FaultSpec("frame-corrupt", at, segment, corrupt_rate=rate, seed=seed)
        )

    def clear_loss(self, at: float, segment: str) -> "FaultTimeline":
        """Detach any loss/corruption model from a segment at ``at``."""
        return self.add(FaultSpec("frame-loss", at, segment, rate=0.0))

    def degrade(
        self, at: float, segment: str, bandwidth_scale: float = 1.0,
        extra_delay: float = 0.0,
    ) -> "FaultTimeline":
        """Degrade a segment's bandwidth/latency at ``at`` (neutral = restore)."""
        return self.add(
            FaultSpec("degrade", at, segment, bandwidth_scale=bandwidth_scale,
                      extra_delay=extra_delay)
        )

    def restore(self, at: float, segment: str) -> "FaultTimeline":
        """Restore a degraded segment to its nominal wire characteristics."""
        return self.add(FaultSpec("degrade", at, segment))

    def node_crash(self, at: float, node: str) -> "FaultTimeline":
        """Fail-silent crash: every interface of the station goes down."""
        return self.add(FaultSpec("node-crash", at, node))

    def node_restart(self, at: float, node: str) -> "FaultTimeline":
        """Bring a crashed station's interfaces back up."""
        return self.add(FaultSpec("node-restart", at, node))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, network, sim=None) -> "FaultTimeline":
        """Resolve every target and schedule the events on the control path.

        Args:
            network: the live :class:`~repro.lan.topology.Network` (or any
                object exposing ``segment()``, ``segments``, ``hosts``,
                ``stations`` and ``sim``).
            sim: scheduling facade override (defaults to ``network.sim`` —
                the fabric facade for sharded runs, which is what routes the
                events through shard 0 / the control ring).

        A timeline installs at most once; events are scheduled in
        ``(at, insertion order)`` so same-instant faults fire in declaration
        order under every engine mode.
        """
        if self._installed:
            raise FaultError("fault timeline is already installed")
        engine = sim if sim is not None else network.sim
        for event in self.events:
            apply_event = self._resolve(network, event)
            engine.schedule_at(event.at, apply_event, label=f"fault.{event.kind}")
        self._installed = True
        return self

    @property
    def installed(self) -> bool:
        """Whether :meth:`install` has run."""
        return self._installed

    def _note(self, event: FaultSpec) -> None:
        self.applied.append((event.at, event.describe()))

    def _resolve(self, network, event: FaultSpec) -> Callable[[], None]:
        """Bind one event to its live target and return its apply callback."""
        kind = event.kind
        if kind in SEGMENT_KINDS:
            if event.target not in network.segments:
                raise FaultError(
                    f"fault {event.describe()!r} targets unknown segment "
                    f"{event.target!r}; segments: {sorted(network.segments)}"
                )
            segment = network.segment(event.target)
            if kind == "link-down":
                def apply_event() -> None:
                    segment.set_link(False)
                    self._note(event)
            elif kind == "link-up":
                def apply_event() -> None:
                    segment.set_link(True)
                    self._note(event)
            elif kind == "degrade":
                def apply_event() -> None:
                    segment.set_degrade(
                        bandwidth_scale=event.bandwidth_scale,
                        extra_delay=event.extra_delay,
                    )
                    self._note(event)
            else:  # frame-loss / frame-corrupt
                def apply_event() -> None:
                    if event.rate or event.corrupt_rate:
                        model = FrameLossModel(
                            loss_rate=event.rate,
                            corrupt_rate=event.corrupt_rate,
                            seed=derive_seed(self.seed, segment.name, event.seed),
                        )
                    else:
                        model = None
                    segment.set_fault_model(model)
                    self._note(event)
            return apply_event
        if kind in PORT_KINDS:
            station = _station_or_host(network, event.target)
            interfaces = getattr(station, "interfaces", None)
            if interfaces is not None:
                if event.port is None:
                    raise FaultError(
                        f"fault {event.describe()!r} needs a port name; "
                        f"{event.target!r} has {sorted(interfaces)}"
                    )
                try:
                    nic = interfaces[event.port]
                except KeyError as exc:
                    raise FaultError(
                        f"fault {event.describe()!r} targets unknown port "
                        f"{event.port!r}; {event.target!r} has {sorted(interfaces)}"
                    ) from exc
            else:
                nic = station.nic
                # A host's single NIC is implied; a port name, if given at
                # all, must actually be that NIC (typos must not silently
                # "work" the way they would refuse to on a device).
                short = nic.name.split(".", 1)[-1]
                if event.port is not None and event.port not in (nic.name, short):
                    raise FaultError(
                        f"fault {event.describe()!r} targets port "
                        f"{event.port!r}, but host {event.target!r} has only "
                        f"{nic.name!r}"
                    )
            up = kind == "port-up"

            def apply_event() -> None:
                nic.set_up(up)
                self._note(event)

            return apply_event
        if kind in NODE_KINDS:
            station = _station_or_host(network, event.target)
            nics = _interfaces_of(station)
            up = kind == "node-restart"

            def apply_event() -> None:
                for nic in nics:
                    nic.set_up(up)
                self._note(event)

            return apply_event
        raise FaultError(f"unhandled fault kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduled/applied counts (diagnostics, examples, benchmarks)."""
        return {
            "scheduled": len(self._events),
            "applied": len(self.applied),
            "installed": self._installed,
        }

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultTimeline(seed={self.seed}, events={len(self._events)}, "
            f"applied={len(self.applied)})"
        )


__all__ = ["FaultTimeline", "FaultSpec", "FaultError", "FAULT_KINDS"]
