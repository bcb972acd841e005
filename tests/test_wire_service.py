"""The segment wire service: integer-ns arithmetic and lane equivalence.

Four layers are covered:

* the **arithmetic** — one single-engine segment against a reference kept
  here: the float-seconds busy chain the segment used before its wire
  service moved to integer nanoseconds;
* the **continuation** — on the single engine a frame on an idle wire costs
  one event, and a frame sent while the wire is busy arms its service at
  the end of the busy chain, where a fault at that instant still reaches it;
* the **lanes** — the relaxed inline and batched lanes give every NIC the
  receive instants of the single engine, also when a fault lands while
  batched frames are still in flight;
* the **report** — ``segment_busy_seconds`` reads the public
  :attr:`Segment.busy_until`.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.faults import FaultTimeline
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario
from repro.sim.engine import Simulator

# ---------------------------------------------------------------------------
# Integer-ns arithmetic against the float-seconds chain
# ---------------------------------------------------------------------------


def _float_chain(sends, bandwidth_bps, prop_ns):
    """Delivery instants (ns) of ``sends`` under the float-seconds busy chain.

    ``sends`` is a list of ``(time_ns, frame)``.  A frame sent to an idle
    wire is served at once; otherwise it waits for the service event at
    ``round(finish * 1e9)`` of the frame ahead.  Serving at ``now`` computes
    ``start = max(now, busy)`` and ``finish = start + wire_length * 8 /
    bandwidth`` in seconds and delivers at ``round((finish + prop) * 1e9)``.
    A send and a service event at the same instant: the send goes first (it
    was scheduled earlier).
    """
    prop = prop_ns / 1e9
    busy = 0.0
    service_ns = None
    queue = deque()
    delivered = []

    def serve(now_ns):
        nonlocal busy
        frame = queue.popleft()
        now = now_ns / 1e9
        start = now if now >= busy else busy
        finish = start + frame.wire_length * 8.0 / bandwidth_bps
        busy = finish
        delivered.append(round((finish + prop) * 1e9))
        return round(finish * 1e9)

    for time_ns, frame in sends:
        while service_ns is not None and service_ns < time_ns:
            service_ns = serve(service_ns) if queue else None
        queue.append(frame)
        if service_ns is None:
            service_ns = serve(time_ns)
    while queue:
        service_ns = serve(service_ns)
    return delivered


def _wire(bandwidth_bps=100_000_000, prop_ns=2_000):
    """One single-engine segment with a sender and a receiver.

    Returns ``(sim, segment, sender, received)``, where ``received`` fills
    with the receiver's receive instants in ns.
    """
    sim = Simulator(seed=1)
    segment = Segment(sim, "lan", bandwidth_bps=bandwidth_bps,
                      propagation_delay=prop_ns / 1e9)
    sender = NetworkInterface(sim, "a", MacAddress.from_string("02:00:00:00:00:01"))
    receiver = NetworkInterface(sim, "b", MacAddress.from_string("02:00:00:00:00:02"))
    sender.attach(segment)
    receiver.attach(segment)
    received = []
    receiver.set_handler(lambda nic, frame: received.append(sim.now_ns))
    return sim, segment, sender, received


def _segment_run(sends, bandwidth_bps, prop_ns):
    """Run ``sends`` on one single-engine segment.

    Returns the ``segment.deliver`` record times and the receiver's receive
    instants, both in ns.
    """
    sim, _segment, sender, received = _wire(bandwidth_bps, prop_ns)
    for time_ns, frame in sends:
        sim.schedule_at_ns(time_ns, lambda frame=frame: sender.send(frame))
    sim.run()
    records = sim.trace.filter(category="segment.deliver")
    return [round(record.time * 1e9) for record in records], received


def _frames(payloads):
    return [
        EthernetFrame(
            destination=MacAddress.from_string("02:00:00:00:00:02"),
            source=MacAddress.from_string("02:00:00:00:00:01"),
            ethertype=0x88B5,
            payload=b"\x00" * size,
        )
        for size in payloads
    ]


@settings(max_examples=60, deadline=None)
@given(
    bandwidth_bps=st.sampled_from([10_000_000, 100_000_000, 1_000_000_000]),
    prop_ns=st.integers(min_value=0, max_value=50_000),
    start_ns=st.integers(min_value=0, max_value=40_000_000_000),
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30_000),  # gap to the last send
            st.integers(min_value=46, max_value=1500),  # payload bytes
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_backlogs_match_the_float_chain(bandwidth_bps, prop_ns, start_ns, sends):
    """Queued and idle-wire frames alike land where the float chain put them."""
    times = []
    now = start_ns
    for gap, _ in sends:
        now += gap
        times.append(now)
    schedule = list(zip(times, _frames([size for _, size in sends])))
    expected = _float_chain(schedule, bandwidth_bps, prop_ns)
    records, received = _segment_run(schedule, bandwidth_bps, prop_ns)
    assert records == expected
    assert received == expected


@settings(max_examples=60, deadline=None)
@given(
    prop_ns=st.integers(min_value=0, max_value=50_000),
    start_ns=st.integers(min_value=0, max_value=40_000_000_000),
    payloads=st.lists(
        st.integers(min_value=46, max_value=1500), min_size=1, max_size=10
    ),
)
def test_isolated_frames_on_a_fractional_wire_match(prop_ns, start_ns, payloads):
    """At 67 Mb/s a frame's wire time is not a whole ns; unqueued, it still agrees.

    Each frame starts on an idle wire, so both chains add one rounded
    serialization time to an exact start.  (Back-to-back frames on such a
    wire may differ by under 0.5 ns per frame: the integer chain rounds
    every frame, the float chain only the sum.)
    """
    schedule = [
        (start_ns + index * 1_000_000, frame)
        for index, frame in enumerate(_frames(payloads))
    ]
    expected = _float_chain(schedule, 67_000_000, prop_ns)
    records, received = _segment_run(schedule, 67_000_000, prop_ns)
    assert records == expected
    assert received == expected


# ---------------------------------------------------------------------------
# The event lane's continuation on the single engine
# ---------------------------------------------------------------------------


def _wire_ns(frame, bandwidth_bps=100_000_000):
    return round(frame.wire_length * 8e9 / bandwidth_bps)


def test_a_lone_frame_costs_one_event():
    """A frame on an idle wire is served at once; its delivery is the one event.

    Nothing is queued behind it, so no service event follows its finish:
    the wire keeps only its busy chain.
    """
    sim, _segment, sender, received = _wire()
    (frame,) = _frames([100])
    sender.send(frame)
    sim.run()
    assert received == [_wire_ns(frame) + 2_000]
    assert sim.events_dispatched == 1


def _overlap(fault=None):
    """Frame A at 0, then B at half of A's wire time, with nothing queued.

    ``fault(segment)``, when given, runs at A's finish.  It is scheduled
    before the traffic, as a fault timeline is, so it fires before the
    service armed there for B.  Returns ``(sim, segment, frames, received)``.
    """
    sim, segment, sender, received = _wire()
    frames = _frames([200, 100])
    finish_ns = _wire_ns(frames[0])
    if fault is not None:
        sim.schedule_at_ns(finish_ns, lambda: fault(segment))
    for time_ns, frame in zip((0, finish_ns // 2), frames):
        sim.schedule_at_ns(time_ns, lambda frame=frame: sender.send(frame))
    sim.run()
    return sim, segment, frames, received


def test_a_frame_sent_behind_a_busy_wire_is_served_at_its_finish():
    """B finds the wire busy and no service pending: it arms one at A's finish."""
    sim, _segment, (first, second), received = _overlap()
    finish_ns = _wire_ns(first)
    assert received == [finish_ns + 2_000, finish_ns + _wire_ns(second) + 2_000]
    # Two sends, two deliveries and the one service armed for B.
    assert sim.events_dispatched == 5


def test_a_link_down_at_the_finish_drops_the_armed_frame():
    _sim, segment, (first, _second), received = _overlap(
        lambda segment: segment.set_link(False)
    )
    assert segment.frames_lost == 1
    assert received == [_wire_ns(first) + 2_000]


def test_a_degrade_at_the_finish_serves_the_armed_frame_on_the_slower_wire():
    _sim, _segment, (first, second), received = _overlap(
        lambda segment: segment.set_degrade(bandwidth_scale=0.5)
    )
    finish_ns = _wire_ns(first)
    assert received == [
        finish_ns + 2_000,
        finish_ns + _wire_ns(second, 50_000_000) + 2_000,
    ]


# ---------------------------------------------------------------------------
# Lane equivalence: per-NIC receive instants against the single engine
# ---------------------------------------------------------------------------

#: Deliveries each LAN of the lane harness sees before its handlers go quiet.
DELIVERIES = 60


def _lane_run(shards, declaration, fault=None, target=None, noop=False,
              fault_at=120e-6, rehandle_at=None):
    """The lane harness: echo stations on every LAN of a 3-bridge ring.

    Every bridge port is down, so each LAN is shard-local or a cut segment
    with only home stations up.  Each host answers a delivery with two
    200-byte frames on ``seg0`` and on the fault target, one elsewhere,
    until its LAN has seen :data:`DELIVERIES` deliveries.  One kick-off
    frame per LAN goes out at the ready time.  ``fault`` is a
    ``FaultTimeline`` method name and its keyword arguments, applied to
    ``target`` at ready + ``fault_at``.  With ``rehandle_at``, a facade
    event at that offset re-installs ``seg0h1``'s handler with no
    declaration, which takes ``seg0`` off the batched lane.  Returns every
    NIC's receive instants (ns).
    """
    run = run_scenario(
        "ring", params={"n_bridges": 3, "hosts_per_segment": 2},
        shards=shards,
    )
    if fault is not None:
        kind, arguments = fault
        timeline = FaultTimeline()
        getattr(timeline, kind)(run.ready_time + fault_at, target, **arguments)
        timeline.install(run.network)
    run.warm_up()
    for device in run.devices:
        for nic in device.interfaces.values():
            nic.set_up(False)
    if noop:
        run.sim.schedule_at(run.ready_time + 120e-6, lambda: None)
    received = {}
    for spec in run.spec.segments:
        seen = [0]
        burst = 2 if spec.name in ("seg0", target) else 1
        left = run.host(f"{spec.name}h1").nic
        right = run.host(f"{spec.name}h2").nic
        for nic, peer in ((left, right), (right, left)):
            frame = EthernetFrame(
                destination=peer.mac, source=nic.mac, ethertype=0x88B5,
                payload=b"\x00" * 200,
            )
            log = received.setdefault(nic.name, [])

            def handler(_nic, _frame, nic=nic, frame=frame, log=log, seen=seen,
                        burst=burst):
                log.append(nic.home_sim.now_ns)
                seen[0] += 1
                if seen[0] < DELIVERIES:
                    for _ in range(burst):
                        nic.send(frame)

            nic.set_handler(handler, **{declaration: True})
            if rehandle_at is not None and nic.name == "seg0h1.eth0":
                run.sim.schedule_at(
                    run.ready_time + rehandle_at,
                    lambda nic=nic, handler=handler: nic.set_handler(handler),
                )
        left.send(
            EthernetFrame(
                destination=right.mac, source=left.mac, ethertype=0x88B5,
                payload=b"\x00" * 200,
            )
        )
    run.sim.run_until(run.ready_time + 0.010)
    return received


@pytest.mark.parametrize("noop", [False, True], ids=["plain", "control-noop"])
def test_inline_lane_waits_for_every_same_instant_send(noop):
    """The inline pump starts after the sender's whole burst is queued.

    Regression for two relaxed-only orderings.  The pump used to start
    synchronously inside the first ``send()``, running the chain ahead
    before the handler queued its second frame.  And a pump resumed after
    a control barrier ran inline past a delivery it had parked, so replies
    to later deliveries queued first.  The facade no-op in the middle of the
    exchange forces that barrier.
    """
    single = _lane_run(1, "inline_safe", noop=noop)
    assert single["seg0h1.eth0"][1] == 31_000_061_120
    for shards in (2, 4):
        assert _lane_run(shards, "inline_safe", noop=noop) == single, shards


FAULTS = {
    "half-bandwidth": ("degrade", {"bandwidth_scale": 0.5}),
    "extra-delay": ("degrade", {"extra_delay": 1e-6}),
    "loss": ("frame_loss", {"rate": 0.3, "seed": 5}),
}


@pytest.mark.parametrize("target", ["seg0", "seg2"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faults_reach_frames_the_batched_lane_served_ahead(fault, target):
    """Degrade and loss-model changes re-serve frames the single engine still
    holds queued.

    ``seg0`` is shard-local at shards=2 (the deferred express lane) and
    ``seg2`` is a cut segment at shards 2 and 4 (the barrier drain).  Both
    serve queued frames before their classic service event; the frames
    whose service was still ahead at the fault must take the new bandwidth,
    delay or loss draw, exactly as on the single engine.
    """
    single = _lane_run(1, "segment_local", FAULTS[fault], target)
    for shards in (2, 4):
        relaxed = _lane_run(shards, "segment_local", FAULTS[fault], target)
        assert relaxed == single, shards


@pytest.mark.parametrize(
    "rehandle_at, fault_at, fault",
    [
        (80e-6, 81e-6, ("link_down", {})),
        (137e-6, 147e-6, ("degrade", {"bandwidth_scale": 0.5})),
    ],
    ids=["link-down", "degrade"],
)
def test_event_lane_queues_behind_batched_frames(rehandle_at, fault_at, fault):
    """A frame sent behind batched frames stays queued on the event lane.

    When ``seg0`` leaves the batched lane, frames it served ahead still
    hold the wire.  The next frame must wait in the transmit queue for the
    end of that busy chain, as on the single engine, so that a fault before
    then takes it back with them: a link-down drops it, a degrade serves it
    again on the slower wire.
    """
    single = _lane_run(1, "segment_local", fault, "seg0",
                       fault_at=fault_at, rehandle_at=rehandle_at)
    for shards in (2, 4):
        relaxed = _lane_run(shards, "segment_local", fault, "seg0",
                            fault_at=fault_at, rehandle_at=rehandle_at)
        assert relaxed == single, shards


def test_a_moved_service_event_fires_once():
    """Arming again moves the armed service event; the one it replaces is a no-op."""
    sim = Simulator(seed=1)
    segment = Segment(sim, "lan")
    served = []
    segment._service_next = lambda: served.append(sim.now_ns)
    segment._busy_ns = 2_000
    segment._arm()
    segment._busy_ns = 1_000
    segment._arm()
    sim.run()
    assert served == [1_000]


# ---------------------------------------------------------------------------
# The run report's wire busy chain
# ---------------------------------------------------------------------------


def test_busy_seconds_is_the_last_frames_finish():
    run = run_scenario("pair/direct")
    run.warm_up()
    left, right = run.hosts
    PingRunner(run.sim, left, right.ip, payload_size=64, count=1).run(
        start_time=run.sim.now
    )
    segment = run.segment("lan1")
    last = run.sim.trace.filter(category="segment.deliver", source="lan1")[-1]
    finish_ns = round(last.time * 1e9) - round(segment.propagation_delay * 1e9)
    assert segment.busy_until == finish_ns / 1e9
    busy = {
        labels["segment"]: value
        for labels, value in run.report().family("segment_busy_seconds")
    }
    assert busy["lan1"] == segment.busy_until
