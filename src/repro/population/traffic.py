"""Synthetic traffic matrices over typed station fleets.

Four synthesis axes, all seeded and all driven from scenario parameters
(:data:`TRAFFIC_DEFAULTS` names every axis a catalog entry can sweep):

* ``request-response`` — workstations issue UDP requests to their
  assigned application server (servers likewise query their database,
  and a thinned stream of lookup clients queries the gateway); the
  serving station answers from its bound port and the client emits a
  ``svc.rtt`` trace record per completed exchange.  Those records *are*
  the latency instrument: they ship back from process workers with the
  trace streams, so p99 service latency is measurable on every backend.
* ``onoff-burst`` — a seeded subset of workstations run on/off sources:
  bursts of pooled raw frames at a fixed in-burst rate to a same-segment
  peer, separated by exponential off periods.
* ``pareto-flow`` — response sizes and burst lengths are drawn from
  seeded bounded Pareto streams (:func:`bounded_pareto`), giving the
  heavy-tailed flow-size mix real traffic has.
* ``diurnal`` — a deterministic load curve (:func:`diurnal_factor`)
  modulates every inter-arrival draw, sweeping offered load from trough
  to peak over the scenario's configured "day".

Determinism is load-bearing everywhere: every stochastic stream is a
private ``random.Random`` seeded from ``(traffic_seed, station, kind)``
— no draw order is shared between stations, so relaxed shard
interleaving cannot perturb a single sample — and every timer rides a
:class:`~repro.sim.wheel.TimerWheel` whose integer quantization is
engine-independent.  The population scenario tests assert the resulting
canonical traces bit-identical across single-engine, relaxed and
process runs.

Call :func:`install_traffic` on a compiled run **before**
``run.warm_up()``: the installer schedules a short *learning prelude*
inside the warm-up window (the gateway broadcasts once, then every
serving station sends one unicast past the core) so each bridge learns
every service MAC before measurement starts — first-packet floods would
otherwise cross the whole fleet, and on the process backend warm-up is
the only in-parent dispatch where that learned state can be built once
and inherited by every worker.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, List, Optional

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import BROADCAST
from repro.ethernet.pool import FramePool
from repro.population.roles import SERVICES, role_of
from repro.sim.clock import seconds_to_ns
from repro.sim.wheel import DEFAULT_TICK_NS, TimerWheel

#: The synthesis axes (docs coverage contract: each kind is documented in
#: ``docs/architecture.md`` exactly like the fault kinds).
TRAFFIC_KINDS = ("request-response", "onoff-burst", "pareto-flow", "diurnal")

#: Every traffic parameter a population catalog entry accepts, with its
#: default.  Scenario params (``spec.params``) override these, so traffic
#: axes sweep through the ordinary matrix machinery.
TRAFFIC_DEFAULTS: Dict[str, object] = {
    "duration": 1.0,  # seconds of offered traffic after ready_time
    "traffic_seed": 0,  # seeds every per-station stream
    "wheel_tick_ns": DEFAULT_TICK_NS,  # timer-wheel quantum
    "request_rate": 4.0,  # app requests/s per workstation (at peak load)
    "db_rate": 1.0,  # database queries/s per server
    "dns_rate": 0.25,  # gateway lookups/s per lookup client
    "dns_client_every": 4,  # every Nth workstation runs a lookup client
    "onoff_fraction": 0.25,  # fraction of workstations running burst sources
    "burst_rate": 400.0,  # frames/s inside a burst
    "burst_alpha": 1.4,  # Pareto shape for burst lengths (frames)
    "burst_xmin": 4,
    "burst_xmax": 64,
    "burst_frame_size": 256,  # payload bytes of burst filler frames
    "off_mean": 0.4,  # mean off-period seconds (at peak load)
    "flow_alpha": 1.3,  # Pareto shape for response flow sizes (bytes)
    "flow_xmin": 96,
    "flow_xmax": 1400,
    "diurnal_period": 2.0,  # seconds per simulated "day"
    "diurnal_trough": 0.3,  # load multiplier at the trough (peak = 1.0)
}

#: Request/response wire header: request id, requested response size.
_HEADER = struct.Struct(">II")

#: Prelude schedule inside the warm-up window (absolute seconds).
_ANNOUNCE_BROADCAST_AT = 0.010
_ANNOUNCE_START = 0.020
_ANNOUNCE_GAP = 2e-6


def bounded_pareto(rng: random.Random, alpha: float, xmin: float, xmax: float) -> float:
    """One sample from a Pareto(alpha, xmin) clamped to ``xmax``.

    Inverse-transform sampling: one uniform draw per sample, so a
    source's stream position depends only on its own sample count.
    """
    u = rng.random()
    value = xmin / (1.0 - u) ** (1.0 / alpha)
    return value if value < xmax else xmax


def diurnal_factor(elapsed: float, period: float, trough: float) -> float:
    """Deterministic diurnal load multiplier in ``[trough, 1.0]``.

    A raised cosine starting at the trough: load ramps up to the peak at
    mid-"day" and back down, repeating every ``period`` seconds.
    """
    phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * (elapsed / period)))
    return trough + (1.0 - trough) * phase


class _EngineLane:
    """Per-home-engine machinery: one wheel, one pool, one stats block."""

    __slots__ = ("sim", "wheel", "pool", "stats")

    def __init__(self, sim, tick_ns: int) -> None:
        self.sim = sim
        self.wheel = TimerWheel(sim, tick_ns)
        self.pool = FramePool()
        self.stats = {
            "requests_sent": 0,
            "responses_received": 0,
            "responses_sent": 0,
            "bursts_started": 0,
            "burst_frames": 0,
        }


class _RequestClient:
    """A request/response service client: seeded arrivals, RTT records."""

    __slots__ = (
        "host",
        "lane",
        "rng",
        "service",
        "server_ip",
        "source_port",
        "start_s",
        "stop_ns",
        "rate",
        "flow_alpha",
        "flow_xmin",
        "flow_xmax",
        "period",
        "trough",
        "pending",
        "next_id",
        "rtt_category",
    )

    def __init__(
        self,
        host,
        lane: _EngineLane,
        rng: random.Random,
        service,
        server,
        source_port: int,
        start_s: float,
        stop_ns: int,
        rate: float,
        params: Dict[str, object],
    ) -> None:
        self.host = host
        self.lane = lane
        self.rng = rng
        self.service = service
        self.server_ip = server.ip
        self.source_port = source_port
        self.start_s = start_s
        self.stop_ns = stop_ns
        self.rate = rate
        self.flow_alpha = float(params["flow_alpha"])
        self.flow_xmin = float(params["flow_xmin"])
        self.flow_xmax = float(params["flow_xmax"])
        self.period = float(params["diurnal_period"])
        self.trough = float(params["diurnal_trough"])
        self.pending: Dict[int, int] = {}
        self.next_id = 0
        self.rtt_category = "svc.rtt"
        host.bind_udp(source_port, self._on_response)

    def _factor(self) -> float:
        elapsed = self.lane.sim.clock.now - self.start_s
        if elapsed < 0.0:
            elapsed = 0.0
        return diurnal_factor(elapsed, self.period, self.trough)

    def arm(self) -> None:
        """Schedule the next request arrival from the seeded stream."""
        gap = self.rng.expovariate(self.rate) / self._factor()
        self.lane.wheel.schedule(gap, self._fire)

    def _fire(self) -> None:
        now_ns = self.lane.sim.clock.now_ns
        if now_ns >= self.stop_ns:
            return
        request_id = self.next_id
        self.next_id = request_id + 1
        flow_size = int(
            bounded_pareto(self.rng, self.flow_alpha, self.flow_xmin, self.flow_xmax)
        )
        header = _HEADER.pack(request_id & 0xFFFFFFFF, flow_size)
        pad = self.service.request_size - len(header)
        payload = header + self.lane.pool.filler(pad) if pad > 0 else header
        self.pending[request_id & 0xFFFFFFFF] = now_ns
        self.lane.stats["requests_sent"] += 1
        self.host.send_udp(
            self.server_ip, self.service.port, self.source_port, payload
        )
        self.arm()

    def _on_response(self, payload: bytes, _addr) -> None:
        if len(payload) < _HEADER.size:
            return
        request_id, flow_size = _HEADER.unpack_from(payload)
        sent_ns = self.pending.pop(request_id, None)
        if sent_ns is None:
            return
        sim = self.lane.sim
        rtt_ns = sim.clock.now_ns - sent_ns
        self.lane.stats["responses_received"] += 1
        sim.trace.emit(
            self.host.name,
            self.rtt_category,
            {"service": self.service.name, "rtt_ns": rtt_ns, "size": flow_size},
        )


class _Responder:
    """A serving station: answers requests with the size the client asked."""

    __slots__ = ("host", "lane", "service")

    def __init__(self, host, lane: _EngineLane, service) -> None:
        self.host = host
        self.lane = lane
        self.service = service
        host.bind_udp(service.port, self._on_request)

    def _on_request(self, payload: bytes, addr) -> None:
        if len(payload) < _HEADER.size:
            return
        request_id, flow_size = _HEADER.unpack_from(payload)
        header = _HEADER.pack(request_id, flow_size)
        pad = flow_size - len(header)
        response = header + self.lane.pool.filler(pad) if pad > 0 else header
        source_ip, source_port = addr
        self.lane.stats["responses_sent"] += 1
        self.host.send_udp(source_ip, source_port, self.service.port, response)


class _OnOffSource:
    """A bursty on/off raw-frame source aimed at a same-segment peer."""

    __slots__ = (
        "host",
        "lane",
        "rng",
        "frame",
        "start_s",
        "stop_ns",
        "gap_s",
        "burst_alpha",
        "burst_xmin",
        "burst_xmax",
        "off_mean",
        "period",
        "trough",
        "remaining",
    )

    def __init__(
        self,
        host,
        peer_mac,
        lane: _EngineLane,
        rng: random.Random,
        start_s: float,
        stop_ns: int,
        params: Dict[str, object],
    ) -> None:
        self.host = host
        self.lane = lane
        self.rng = rng
        self.start_s = start_s
        self.stop_ns = stop_ns
        self.gap_s = 1.0 / float(params["burst_rate"])
        self.burst_alpha = float(params["burst_alpha"])
        self.burst_xmin = float(params["burst_xmin"])
        self.burst_xmax = float(params["burst_xmax"])
        self.off_mean = float(params["off_mean"])
        self.period = float(params["diurnal_period"])
        self.trough = float(params["diurnal_trough"])
        self.remaining = 0
        self.frame = lane.pool.frame(
            peer_mac,
            host.mac,
            EtherType.MEASUREMENT,
            int(params["burst_frame_size"]),
        )

    def _factor(self) -> float:
        elapsed = self.lane.sim.clock.now - self.start_s
        if elapsed < 0.0:
            elapsed = 0.0
        return diurnal_factor(elapsed, self.period, self.trough)

    def arm(self) -> None:
        """Schedule the next burst after a seeded, load-modulated off period."""
        off = self.rng.expovariate(1.0 / self.off_mean) / self._factor()
        self.lane.wheel.schedule(off, self._start_burst)

    def _start_burst(self) -> None:
        if self.lane.sim.clock.now_ns >= self.stop_ns:
            return
        self.remaining = int(
            bounded_pareto(
                self.rng, self.burst_alpha, self.burst_xmin, self.burst_xmax
            )
        )
        self.lane.stats["bursts_started"] += 1
        self._send_next()

    def _send_next(self) -> None:
        if self.lane.sim.clock.now_ns >= self.stop_ns:
            return
        # Reuse the pooled frame: the pool hit is the recycling measure.
        self.frame = self.lane.pool.frame(
            self.frame.destination,
            self.frame.source,
            self.frame.ethertype,
            len(self.frame.payload),
        )
        self.host.send_raw_frame(self.frame)
        self.lane.stats["burst_frames"] += 1
        self.remaining -= 1
        if self.remaining > 0:
            self.lane.wheel.schedule(self.gap_s, self._send_next)
        else:
            self.arm()


class PopulationTraffic:
    """Handle on an installed traffic matrix: lanes, clients and horizons."""

    def __init__(
        self,
        run,
        params: Dict[str, object],
        lanes: Dict[int, _EngineLane],
        clients: List[_RequestClient],
        responders: List[_Responder],
        sources: List[_OnOffSource],
        start_s: float,
        stop_s: float,
    ) -> None:
        self.run = run
        self.params = params
        self.lanes = lanes
        self.clients = clients
        self.responders = responders
        self.sources = sources
        self.start_s = start_s
        self.stop_s = stop_s

    @property
    def horizon(self) -> float:
        """Simulated time by which in-flight exchanges have settled."""
        return self.stop_s + 0.05

    def pool_statistics(self) -> Dict[str, int]:
        """Aggregated frame-pool counters across lanes.

        Meaningful for in-process runs (the single engine, and the fabric
        on the ``"thread"`` backend);
        under ``backend="process"`` the workers' pools advance in their
        own address spaces and the parent's copy stays at its pre-fork
        values.
        """
        totals = {"hits": 0, "misses": 0, "fillers": 0, "frames": 0}
        for lane in self.lanes.values():
            for key, value in lane.pool.statistics().items():
                totals[key] += value
        return totals

    def wheel_statistics(self) -> Dict[str, int]:
        """Aggregated timer-wheel counters across lanes (in-process runs)."""
        totals = {"scheduled": 0, "quantized": 0}
        for lane in self.lanes.values():
            totals["scheduled"] += lane.wheel.scheduled
            totals["quantized"] += lane.wheel.quantized
        return totals

    def traffic_statistics(self) -> Dict[str, int]:
        """Aggregated per-lane traffic counters (in-process runs)."""
        totals: Dict[str, int] = {}
        for lane in self.lanes.values():
            for key, value in lane.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def service_rtts(self) -> List[int]:
        """Every completed exchange's RTT in nanoseconds, canonical order.

        Read from the ``svc.rtt`` trace records, so it works on every
        backend — including process runs, where the records ship back
        with the worker trace streams.
        """
        records = self.run.sim.trace.canonical_records(category="svc.rtt")
        return [record.detail["rtt_ns"] for record in records]


def merged_params(spec_params, overrides: Optional[Dict[str, object]] = None):
    """Traffic parameters: defaults <- scenario params <- explicit overrides."""
    merged = dict(TRAFFIC_DEFAULTS)
    for key, value in dict(spec_params or {}).items():
        if key in merged:
            merged[key] = value
    for key, value in dict(overrides or {}).items():
        if key not in TRAFFIC_DEFAULTS:
            raise ValueError(f"unknown traffic parameter {key!r}")
        merged[key] = value
    return merged


def install_traffic(run, **overrides) -> PopulationTraffic:
    """Install the scenario's traffic matrix onto a compiled population run.

    Must be called *before* ``run.warm_up()``: the learning prelude rides
    the warm-up window, and on the process backend the warm-up is the one
    in-parent dispatch where bridge tables and ARP state can be built
    once and inherited by every worker.

    Keyword overrides take precedence over the scenario's recorded
    params; both fall back to :data:`TRAFFIC_DEFAULTS`.
    """
    params = merged_params(getattr(run.spec, "params", {}), overrides)
    start_s = float(run.spec.ready_time)
    duration = float(params["duration"])
    stop_s = start_s + duration
    stop_ns = seconds_to_ns(stop_s)
    tick_ns = int(params["wheel_tick_ns"])
    seed = params["traffic_seed"]

    stations = [host for host in run.hosts if role_of(host.name) is not None]
    stations.sort(key=lambda host: host.name)
    by_role: Dict[str, List] = {}
    by_segment: Dict[str, List] = {}
    for host in stations:
        by_role.setdefault(role_of(host.name).name, []).append(host)
        by_segment.setdefault(host.nic.segment.name, []).append(host)

    servers = by_role.get("server", [])
    databases = by_role.get("database", [])
    gateways = by_role.get("gateway", [])
    workstations = by_role.get("workstation", [])
    if not servers or not gateways:
        raise ValueError(
            "population traffic needs at least one server and one gateway"
        )
    core_segment = gateways[0].nic.segment.name
    core_databases = [
        db for db in databases if db.nic.segment.name == core_segment
    ] or databases

    lanes: Dict[int, _EngineLane] = {}

    def lane_for(host) -> _EngineLane:
        key = id(host.sim)
        lane = lanes.get(key)
        if lane is None:
            lane = lanes[key] = _EngineLane(host.sim, tick_ns)
        return lane

    def station_rng(host, kind: str) -> random.Random:
        return random.Random(f"{seed}:{host.name}:{kind}")

    next_port: Dict[str, int] = {}

    def allocate_port(host) -> int:
        port = next_port.get(host.name, 20000)
        next_port[host.name] = port + 1
        return port

    def pair_arp(client, server) -> None:
        client.stack.add_static_arp(server.ip, server.mac)
        server.stack.add_static_arp(client.ip, client.mac)

    clients: List[_RequestClient] = []
    responders: List[_Responder] = []
    sources: List[_OnOffSource] = []

    # Serving stations bind their declared ports once each.
    for role_name, service_keys in (
        ("server", ("app",)),
        ("database", ("db",)),
        ("gateway", ("dns",)),
    ):
        for host in by_role.get(role_name, []):
            for key in service_keys:
                responders.append(_Responder(host, lane_for(host), SERVICES[key]))

    def add_client(host, service_key: str, server, rate: float) -> None:
        if server is None or rate <= 0.0:
            return
        pair_arp(host, server)
        client = _RequestClient(
            host,
            lane_for(host),
            station_rng(host, service_key),
            SERVICES[service_key],
            server,
            allocate_port(host),
            start_s,
            stop_ns,
            rate,
            params,
        )
        clients.append(client)

    # Workstations consume the application service from a same-segment
    # server (round-robin when a segment holds several).
    for segment, members in sorted(by_segment.items()):
        local_servers = [h for h in members if role_of(h.name).name == "server"]
        if not local_servers:
            local_servers = servers
        seats = [h for h in members if role_of(h.name).name == "workstation"]
        for index, seat in enumerate(seats):
            add_client(
                seat,
                "app",
                local_servers[index % len(local_servers)],
                float(params["request_rate"]),
            )

    # Servers consume the database service: rack-local database when one
    # exists, the core databases otherwise (round-robin).
    for index, server in enumerate(servers):
        segment = server.nic.segment.name
        local_dbs = [
            h
            for h in by_segment.get(segment, [])
            if role_of(h.name).name == "database"
        ]
        target_pool = local_dbs or core_databases
        add_client(
            server,
            "db",
            target_pool[index % len(target_pool)],
            float(params["db_rate"]),
        )

    # A thinned stream of lookup clients keeps the gateway busy without
    # flooding the shared core at population scale.
    every = max(1, int(params["dns_client_every"]))
    for index, seat in enumerate(workstations):
        if index % every == 0:
            add_client(
                seat, "dns", gateways[index % len(gateways)], float(params["dns_rate"])
            )

    # Bursty on/off sources: a seeded subset of workstations blasting a
    # same-segment peer with pooled raw frames.
    chooser = random.Random(f"{seed}:onoff")
    fraction = float(params["onoff_fraction"])
    for seat in workstations:
        take = chooser.random() < fraction
        if not take:
            continue
        members = by_segment[seat.nic.segment.name]
        if len(members) < 2:
            continue
        peer = members[(members.index(seat) + 1) % len(members)]
        sources.append(
            _OnOffSource(
                seat,
                peer.mac,
                lane_for(seat),
                station_rng(seat, "onoff"),
                start_s,
                stop_ns,
                params,
            )
        )

    # ------------------------------------------------------------------
    # Learning prelude (runs inside the warm-up window): gateway
    # broadcasts teach every bridge where the core is, then each serving
    # station sends one unicast past the core so its MAC is learned
    # fleet-wide — no first-packet floods once measurement starts.
    # ------------------------------------------------------------------
    gateway_mac = gateways[0].mac

    def announce(host, destination, at_s: float) -> None:
        frame = EthernetFrame(
            destination=destination,
            source=host.mac,
            ethertype=EtherType.MEASUREMENT,
            payload=b"population-announce",
        )
        host.sim.schedule_at_ns(
            seconds_to_ns(at_s),
            lambda: host.send_raw_frame(frame, charge_cost=False),
            label="population.announce",
        )

    for index, gateway in enumerate(gateways):
        announce(gateway, BROADCAST, _ANNOUNCE_BROADCAST_AT + index * _ANNOUNCE_GAP)
    announced = [
        host
        for host in stations
        if role_of(host.name).name in ("server", "database")
    ]
    for index, host in enumerate(announced):
        announce(host, gateway_mac, _ANNOUNCE_START + index * _ANNOUNCE_GAP)
    prelude_end = _ANNOUNCE_START + len(announced) * _ANNOUNCE_GAP
    if prelude_end >= start_s:
        raise ValueError(
            f"learning prelude ends at {prelude_end:.3f}s but traffic starts "
            f"at ready_time {start_s:.3f}s; raise the scenario's ready_time"
        )

    # Arm every seeded stream: first arrivals land after ready_time.
    for client in clients:
        lane = client.lane
        lane.sim.schedule_at_ns(
            seconds_to_ns(start_s), client.arm, label="population.start"
        )
    for source in sources:
        source.lane.sim.schedule_at_ns(
            seconds_to_ns(start_s), source.arm, label="population.start"
        )

    return PopulationTraffic(
        run, params, lanes, clients, responders, sources, start_s, stop_s
    )
