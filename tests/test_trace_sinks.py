"""Tests for the trace hub, its one store, and the O(1) event queue.

Covers the instrumentation hot path: per-category gating, lazy detail
rendering (a shared renderer plus arguments, with a garbage-collector
budget per retained record), the ``trace_sinks`` argument (``None`` or one
store), the two stores (list and ring buffer; each, and the counters folded
from it, is checked against a reference deque of records on the single
engine and on fabric shards), live-counter windows, the event queue's live
counter and lazy compaction, and the determinism guarantee (same seed, same
trace) with the store swapped.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.c_repeater import BufferedRepeater
from repro.core.node import ActiveNode
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.measurement.ping import PingRunner
from repro.measurement.setups import build_bridged_pair
from repro.scenario import run_matrix, run_scenario
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.fabric import ShardedSimulator
from repro.switchlets import dumb_bridge_package
from repro.sim.trace import (
    CounterWindow,
    CountingSink,
    ListSink,
    RingBufferSink,
    TraceRecord,
    TraceRecorder,
)


def run_short_ping(trace_sinks=None, seed=11):
    """A short end-to-end ping through the active bridge (no spanning tree)."""
    setup = build_bridged_pair(
        seed=seed, include_spanning_tree=False, trace_sinks=trace_sinks
    )
    runner = PingRunner(
        setup.network.sim,
        setup.left,
        setup.right.ip,
        payload_size=64,
        count=4,
        interval=0.05,
    )
    result = runner.run(start_time=setup.ready_time)
    return setup, result


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------


class TestCategoryGating:
    def test_disabled_category_suppresses_sinks_and_listeners(self, sim):
        sim.trace.disable_category("noise")
        sim.trace.record("a", "noise")
        sim.trace.record("a", "signal")
        assert [record.category for record in sim.trace.store] == ["signal"]
        assert sim.trace.count(category="noise") == 0
        assert sim.trace.count(category="signal") == 1
        assert len(sim.trace.filter(category="noise")) == 0

    def test_reenable_category(self, sim):
        sim.trace.disable_category("x")
        sim.trace.record("a", "x")
        sim.trace.enable_category("x")
        sim.trace.record("a", "x")
        assert sim.trace.count(category="x") == 1

    def test_wants_reflects_gating(self, sim):
        assert sim.trace.wants("anything")
        sim.trace.disable_category("gated")
        assert not sim.trace.wants("gated")
        assert sim.trace.wants("other")
        sim.trace.disable()
        assert not sim.trace.wants("other")
        sim.trace.enable()
        assert sim.trace.wants("other")
        assert "gated" in sim.trace.disabled_categories

    def test_disabled_category_suppresses_producers(self, sim):
        segment = Segment(sim, "lan")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        sim.trace.disable_category("nic.tx")
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=int(EtherType.IPV4), payload=b"hi"
        )
        a.send(frame)
        sim.run()
        assert sim.trace.count(category="nic.tx") == 0
        assert sim.trace.count(category="nic.rx") == 1


# ---------------------------------------------------------------------------
# Lazy detail
# ---------------------------------------------------------------------------


class TestLazyDetail:
    def test_callable_detail_renders_on_first_access_only(self, sim):
        calls = []

        def render():
            calls.append(1)
            return {"value": 7}

        sim.trace.emit("a", "lazy", render)
        record = sim.trace.last()
        assert not record.detail_is_rendered
        assert calls == []
        assert record.detail == {"value": 7}
        assert record.detail == {"value": 7}
        assert calls == [1]  # cached after first render
        assert record.detail_is_rendered

    def test_none_and_dict_details(self, sim):
        sim.trace.emit("a", "bare")
        empty = sim.trace.last()
        assert empty.detail_is_rendered
        assert empty.detail == {}
        sim.trace.emit("a", "eager", {"k": 1})
        eager = sim.trace.last()
        assert eager.detail_is_rendered
        assert eager.detail == {"k": 1}

    def test_hot_path_frames_are_not_rendered(self, sim):
        segment = Segment(sim, "lan")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=int(EtherType.IPV4), payload=b"x"
        )
        a.send(frame)
        sim.run()
        tx = sim.trace.last(category="nic.tx")
        assert not tx.detail_is_rendered
        assert "->" in tx.detail["frame"]  # renders on demand
        assert tx.detail_is_rendered


def _trace_of(kind):
    """A trace hub of one emit implementation, by name."""
    if kind == "plain":
        return Simulator().trace
    # Each shard recorder writes its own store.
    return ShardedSimulator(shards=2).trace


EMITTERS = ("plain", "shard-fast")


class _Payload:
    """An emit argument the tests can watch being released."""


def _holds(record, target):
    """Whether ``record`` references ``target``, directly or in a tuple."""
    return any(
        ref is target or (type(ref) is tuple and any(item is target for item in ref))
        for ref in gc.get_referents(record)
    )


class TestRendererWithArguments:
    """``emit(source, category, renderer, *args)``: one lazy path for all hubs."""

    @pytest.mark.parametrize("kind", EMITTERS)
    def test_not_rendered_until_detail_is_read(self, kind):
        trace = _trace_of(kind)
        calls = []

        def render(left, right):
            calls.append((left, right))
            return {"sum": left + right}

        trace.emit("a", "lazy", render, 3, 4)
        record = trace.last(category="lazy")
        assert calls == []
        assert not record.detail_is_rendered
        assert record.detail == {"sum": 7}
        assert record.detail_is_rendered
        assert calls == [(3, 4)]

    @pytest.mark.parametrize("kind", EMITTERS)
    def test_rendered_once_and_arguments_released(self, kind):
        trace = _trace_of(kind)
        calls = []

        def render(payload):
            calls.append(1)
            return {"kind": type(payload).__name__}

        payload = _Payload()
        alive = weakref.ref(payload)
        trace.emit("a", "lazy", render, payload)
        record = trace.last(category="lazy")
        assert _holds(record, payload)  # the unrendered view holds its argument
        del payload
        assert record.detail == {"kind": "_Payload"}
        assert record.detail == {"kind": "_Payload"}
        assert calls == [1]
        # The rendered view drops its own reference to the argument, while
        # the store keeps it for as long as it retains the row.
        assert not _holds(record, alive())
        assert alive() is not None
        trace.clear()
        assert alive() is None

    @pytest.mark.parametrize("kind", EMITTERS)
    def test_zero_argument_callable_is_the_no_args_case(self, kind):
        trace = _trace_of(kind)
        trace.emit("a", "lazy", lambda: {"value": 7})
        record = trace.last(category="lazy")
        assert not record.detail_is_rendered
        assert record.detail == {"value": 7}
        assert record.detail_is_rendered


def _frame(destination, source):
    return EthernetFrame(
        destination=destination,
        source=source,
        ethertype=int(EtherType.IPV4),
        payload=b"pin",
    )


def _first_detail(sim, category):
    record = sim.trace.filter(category=category)[0]
    return record.source, record.detail


class TestPinnedFramePathDetails:
    """One pinned detail per frame-path category, as closures rendered them."""

    FRAME_AB = "02:00:00:00:00:01 -> 02:00:00:00:00:02 type=IPV4 len=3"

    def test_nic_segment_and_node_forward_details(self):
        sim = Simulator()
        lan0, lan1 = Segment(sim, "lan0"), Segment(sim, "lan1")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(lan0)
        b.attach(lan1)
        bridge = ActiveNode(sim, "bridge")
        bridge.add_interface("eth0", lan0)
        bridge.add_interface("eth1", lan1)
        bridge.load_switchlet(dumb_bridge_package(), charge_cost=False)
        a.send(_frame(b.mac, a.mac))
        sim.run()
        assert _first_detail(sim, "nic.tx") == ("a", {"frame": self.FRAME_AB})
        assert _first_detail(sim, "segment.enqueue") == (
            "lan0", {"sender": "a", "frame": self.FRAME_AB},
        )
        assert _first_detail(sim, "segment.deliver") == (
            "lan0", {"sender": "a", "frame": self.FRAME_AB},
        )
        assert _first_detail(sim, "nic.rx") == (
            "bridge.eth0", {"frame": self.FRAME_AB},
        )
        assert _first_detail(sim, "node.forward") == (
            "bridge", {"interface": "eth1", "bytes": 64},
        )

    def test_repeater_unclaimed_and_drop_details(self):
        sim = Simulator()
        lan0, lan1 = Segment(sim, "lan0"), Segment(sim, "lan1")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        a.attach(lan0)
        repeater = BufferedRepeater(sim, "rep")
        repeater.add_interface("eth0", lan0)
        repeater.add_interface("eth1", lan1)
        bare = ActiveNode(sim, "bare")  # no switchlet: nothing claims a frame
        port = bare.add_interface("eth0", lan1)
        a.send(_frame(port.mac, a.mac))
        sim.run()
        assert _first_detail(sim, "repeater.forward") == ("rep", {"interface": "eth1"})
        assert _first_detail(sim, "unixnet.unclaimed") == (
            "bare", {"interface": "eth0", "destination": "02:00:00:b0:00:00"},
        )
        lan0.set_link(False)
        a.send(_frame(MacAddress.locally_administered(9), a.mac))
        assert _first_detail(sim, "segment.drop") == (
            "lan0",
            {
                "sender": "a",
                "reason": "link-down",
                "frame": "02:00:00:00:00:01 -> 02:00:00:00:00:09 type=IPV4 len=3",
            },
        )


class TestRetainedRecordGcBudget:
    """What a retained frame-path record costs the cyclic collector: nothing.

    Every store keeps a record as one row of a flat list: floats, strings,
    small integers, the shared renderer and up to two flattened arguments
    (a per-record closure added a function, a closure tuple and one cell per
    captured variable).  Every object a retained record holds is rescanned
    at each full collection, and their growth is what triggers full
    collections in the first place.
    """

    FRAMES = 400

    @pytest.mark.parametrize("engine", ["ListSink", "RingBufferSink", "shard"])
    def test_no_tracked_object_per_row(self, engine):
        if engine == "shard":
            # A component on a fabric shard writes that shard's own stream.
            sim = ShardedSimulator(shards=2).shards[0]
        else:
            sink = ListSink() if engine == "ListSink" else RingBufferSink(1 << 20)
            sim = Simulator(trace_sinks=[sink])
        store = sim.trace.store
        segment = Segment(sim, "lan")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frames = [
            EthernetFrame(
                destination=b.mac,
                source=a.mac,
                ethertype=int(EtherType.IPV4),
                payload=bytes(1 + index % 64),
            )
            for index in range(self.FRAMES + 10)
        ]
        run = sim.fabric.run if engine == "shard" else sim.run
        # Warm the path up first so free lists and caches are already full.
        for frame in frames[:10]:
            a.send(frame)
        run()
        gc.collect()
        before_objects = len(gc.get_objects())
        before_records = len(store)
        for frame in frames[10:]:
            a.send(frame)
        run()
        gc.collect()
        records = len(store) - before_records
        # nic.tx, segment.enqueue, segment.deliver and nic.rx per frame.
        assert records == 4 * self.FRAMES
        per_record = (len(gc.get_objects()) - before_objects) / records
        assert per_record <= 0.05


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class TestTraceSinksArgument:
    """``trace_sinks`` is ``None`` or a one-element sequence holding a store
    that no other recorder holds."""

    @pytest.mark.parametrize(
        "make_sinks",
        [
            lambda: [ListSink(), ListSink()],
            lambda: [],
            lambda: [object()],
            lambda: [Simulator().trace.store],
        ],
        ids=["two-stores", "empty", "not-a-store", "held-store"],
    )
    def test_anything_but_one_store_is_refused(self, make_sinks):
        with pytest.raises(TypeError, match="trace_sinks"):
            Simulator(trace_sinks=make_sinks())

    def test_run_scenario_refuses_a_non_store(self):
        with pytest.raises(TypeError, match="trace_sinks"):
            run_scenario("pair/direct", trace_sinks=[object()])

    def test_run_matrix_refuses_one_store_for_two_points(self):
        """A second matrix point would rebind the first point's store.

        Its queries would then return both points' records while its
        counters counted only its own: 20 records iterated against a
        length of 12 on this matrix.
        """
        runs = run_matrix("chain", {"n_bridges": [2, 3]}, trace_sinks=[ListSink()])
        first = next(runs)
        first.warm_up()
        assert len(first.sim.trace) == sum(1 for _ in first.sim.trace) > 0
        with pytest.raises(TypeError, match="trace_sinks"):
            next(runs)


class TestListSink:
    def test_indexed_queries_match_brute_force(self, sim):
        for index in range(30):
            sim.trace.record(f"src{index % 3}", f"cat{index % 4}", value=index)
        records = list(sim.trace)
        for category in (None, "cat0", "cat3", "missing"):
            for source in (None, "src0", "src2", "missing"):
                expected = [
                    r
                    for r in records
                    if (category is None or r.category == category)
                    and (source is None or r.source == source)
                ]
                assert sim.trace.filter(category=category, source=source) == expected
                assert sim.trace.count(category=category, source=source) == len(expected)
                last = sim.trace.last(category=category, source=source)
                assert last == (expected[-1] if expected else None)

    def test_time_window_filter_uses_index(self, sim):
        recorder = sim.trace
        sim.schedule(1.0, lambda: recorder.record("a", "x"))
        sim.schedule(2.0, lambda: recorder.record("b", "x"))
        sim.schedule(3.0, lambda: recorder.record("a", "x"))
        sim.run()
        assert len(recorder.filter(category="x", since=1.5, until=2.5)) == 1
        assert len(recorder.filter(category="x", source="a", since=1.5)) == 1


class TestRingBufferSink:
    def test_evicts_oldest(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=3)])
        for index in range(10):
            sim.trace.record("a", "tick", value=index)
        retained = [record.detail["value"] for record in sim.trace]
        assert retained == [7, 8, 9]
        sink = sim.trace.store
        assert sink.evicted == 7
        assert len(sink) == 3
        # Live counters still see everything ever recorded.
        assert sim.trace.count(category="tick") == 10
        assert len(sim.trace) == 10

    def test_queries_cover_the_retained_window(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=4)])
        for index in range(8):
            sim.trace.record("a", "even" if index % 2 == 0 else "odd", value=index)
        assert [r.detail["value"] for r in sim.trace.filter(category="even")] == [4, 6]
        assert sim.trace.last(category="odd").detail["value"] == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_overwritten_slot_releases_every_argument(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=1)])
        render = lambda *args: {"n": len(args)}  # noqa: E731
        payloads = [_Payload() for _ in range(4)]
        alive = [weakref.ref(payload) for payload in payloads]
        sim.trace.emit("a", "wide", render, *payloads)
        sim.trace.emit("a", "pair", render, payloads[0], payloads[1])
        del payloads
        assert [ref() is None for ref in alive] == [False, False, True, True]
        sim.trace.emit("a", "bare", render)
        assert all(ref() is None for ref in alive)
        assert sim.trace.last().detail == {"n": 0}


class _ReferenceStore:
    """What a store must retain, and what its hub must count.

    A ``deque(maxlen)`` of records (unbounded for a plain ``ListSink``) and
    the ``(category, source)`` pair counts kept inline per record, as a hub
    that counted on emit did.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.records = deque(maxlen=capacity)
        self.evicted = 0
        self.pairs = Counter()

    def accept(self, record):
        if len(self.records) == self.capacity:
            self.evicted += 1
        self.records.append(record)
        self.pairs[(record.category, record.source)] += 1

    def at_lap_start(self):
        """Whether the next record overwrites a ring's first slot."""
        capacity = self.capacity
        return (
            capacity is not None
            and len(self.records) == capacity
            and self.evicted % capacity == 0
        )

    def count(self, category=None, source=None, pairs=None):
        return sum(
            n
            for (c, s), n in (self.pairs if pairs is None else pairs).items()
            if category in (None, c) and source in (None, s)
        )

    def clear(self):
        self.records.clear()
        self.evicted = 0
        self.pairs.clear()


def _render_arguments(*args):
    return {"args": list(args)}


#: Drawn emits: (clock step ns, source, category, detail kind, argument
#: count, emitting shard).
_EMITS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 250]),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["x", "y", "z"]),
        st.sampled_from(["eager", "lazy", "absent"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=40,
)

#: What interrupts the emits, keyed by the emit it comes before: a counter
#: read, an opened counter window, reads either side of a ring lap, or a
#: clear.  Few interruptions leave long runs of emits that lap a ring
#: between two reads.
_INTERRUPTS = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.one_of(
        st.tuples(
            st.just("read"),
            st.sampled_from([None, "x", "y"]),
            st.sampled_from([None, "a", "b"]),
        ),
        st.just(("window",)),
        st.just(("lap",)),
        st.just(("clear",)),
    ),
    max_size=6,
)


class TestRingMatchesReference:
    """Every store retains what a deque of records did; counters fold exactly.

    The store is a ``ListSink`` or a ring of capacity 1-8, written by a
    single-engine hub's emit (``store``), or a sharded fabric's per-shard
    streams (``shard``, which stamp ``shard``).  Counter reads land at
    random points, either side of a ring lap and after clears.  Every hub
    also reads its records back in the canonical order.
    """

    @staticmethod
    def _hub(path, store):
        """The trace under test, its clock and the recorders that emit."""
        if path == "shard":
            fabric = ShardedSimulator(shards=2)
            return fabric.trace, fabric.clock, [shard.trace for shard in fabric.shards]
        sim = Simulator(trace_sinks=[store])
        return sim.trace, sim.clock, [sim.trace]

    @given(
        capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        path=st.sampled_from(["store", "shard"]),
        emits=_EMITS,
        interrupts=_INTERRUPTS,
    )
    @settings(max_examples=200, deadline=None)
    def test_queries_match_a_deque_of_records(self, capacity, path, emits, interrupts):
        if path == "shard":
            capacity = None  # a shard's own stream is unbounded
        store = ListSink() if capacity is None else RingBufferSink(capacity)
        reference = _ReferenceStore(capacity)
        trace, clock, recorders = self._hub(path, store)
        fabric = path == "shard"
        windows = []
        emitted = 0

        def emit(step=0, source="a", category="x", kind="absent", nargs=0, shard=0):
            nonlocal emitted
            clock.advance_to_ns(clock.now_ns + step)
            args = tuple(range(emitted, emitted + nargs))
            detail = {
                "eager": {"value": emitted}, "lazy": _render_arguments, "absent": None,
            }[kind]
            shard = shard if fabric else None
            recorder = recorders[shard or 0]
            assert recorder.emit(source, category, detail, *args) is None
            reference.accept(
                TraceRecord(clock.now, source, category, detail, args, shard)
            )
            emitted += 1

        def read(category=None, source=None):
            assert trace.count(category=category, source=source) == reference.count(
                category, source
            )
            assert len(trace) == reference.count()
            pairs = trace.counters.by_category_source
            if path == "shard":
                # Per-shard streams fold shard by shard.
                assert dict(pairs) == dict(reference.pairs)
            else:
                # One store folds in emission order: pairs stay first-seen.
                assert list(pairs.items()) == list(reference.pairs.items())
            for window, opened in windows:
                assert window.count(category=category, source=source) == (
                    reference.count(category, source)
                    - reference.count(category, source, pairs=opened)
                )

        def interrupt(kind, *criteria):
            if kind == "read":
                read(*criteria)
            elif kind == "window":
                windows.append((CounterWindow(trace), Counter(reference.pairs)))
            elif kind == "lap":
                if capacity is not None:
                    while not reference.at_lap_start():
                        emit()
                read()
                emit(source="b", category="y")
                read()
            else:
                trace.clear()
                reference.clear()
                read()

        for position in range(max(len(emits), *interrupts, 0) + 1):
            if position in interrupts:
                interrupt(*interrupts[position])
            if position < len(emits):
                emit(*emits[position])
        read()

        def keyed(records):
            return [
                (r.time, r.source, r.category, r.shard, r.detail) for r in records
            ]

        # The canonical order: (time, source, category), ties in stream
        # order — shard first on a fabric, then emission order (a stable sort).
        canonical = sorted(
            reference.records,
            key=lambda r: (r.time, r.source, r.category, r.shard or 0),
        )
        assert keyed(trace.canonical_records()) == keyed(canonical)
        assert keyed(trace) == keyed(canonical if fabric else reference.records)
        if path == "shard":
            stores = [(recorder.store, index) for index, recorder in enumerate(recorders)]
        else:
            stores = [(store, None)]
        for held, shard in stores:
            expected = [r for r in reference.records if shard in (None, r.shard)]
            assert len(held) == len(expected)
            assert held.evicted == (0 if path == "shard" else reference.evicted)
            assert keyed(held) == keyed(held.records) == keyed(expected)
            for category in (None, "x", "y"):
                for source in (None, "a", "b"):
                    matches = [
                        r for r in expected
                        if category in (None, r.category) and source in (None, r.source)
                    ]
                    assert keyed(held.filter(category=category, source=source)) == keyed(
                        matches
                    )
                    assert held.count(category=category, source=source) == len(matches)
                    last = held.last(category=category, source=source)
                    assert keyed([last] if last else []) == keyed(matches[-1:])
            if expected:
                middle = expected[len(expected) // 2].time
                assert keyed(held.filter(since=middle)) == keyed(
                    [r for r in expected if r.time >= middle]
                )
                assert keyed(held.filter(until=middle)) == keyed(
                    [r for r in expected if r.time <= middle]
                )

    def test_each_view_renders_once(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=4)])
        calls = []

        def render(value):
            calls.append(value)
            return {"value": value}

        sim.trace.emit("a", "lazy", render, 5)
        view = sim.trace.last()
        assert not view.detail_is_rendered
        assert view.detail == view.detail == {"value": 5}
        assert calls == [5]
        # The ring keeps the renderer: a later query's view renders afresh.
        assert sim.trace.last().detail == {"value": 5}
        assert calls == [5, 5]


class TestDefaultStore:
    def test_a_ping_run_on_the_default_store_builds_no_record(self, monkeypatch):
        built = []
        construct = TraceRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[2])
            construct(self, *args, **kwargs)

        monkeypatch.setattr(TraceRecord, "__init__", counting_init)
        setup, result = run_short_ping()
        trace = setup.network.sim.trace
        assert result.received == result.sent > 0
        assert trace.count(category="node.forward") == 2 * result.received
        # Neither the run nor the counters built a record; a query builds
        # one view per row it returns.
        assert built == []
        forwards = trace.filter(category="node.forward")
        assert built == ["node.forward"] * len(forwards)


class TestSinkManagement:
    def test_clear_resets_sinks_and_counters(self, sim):
        sim.trace.record("a", "x")
        sim.trace.clear()
        assert len(sim.trace) == 0
        assert sim.trace.count(category="x") == 0
        assert list(sim.trace) == []


# ---------------------------------------------------------------------------
# Live counters end to end
# ---------------------------------------------------------------------------


class TestLiveCounters:
    def test_counting_sink_matches_list_sink_on_ping_run(self):
        # The counters fold the store's rows; the store answers from its own
        # row indexes.  The two ways of counting agree on a real run.
        list_sink = ListSink()
        setup, result = run_short_ping(trace_sinks=[list_sink])
        assert result.received == result.sent > 0
        counting = setup.network.sim.trace.counters
        assert isinstance(counting, CountingSink)
        assert counting.total == len(list_sink) > 0
        for category in ("nic.tx", "nic.rx", "segment.deliver", "node.forward"):
            assert counting.count(category=category) == list_sink.count(category=category)
        for (category, source), n in counting.by_category_source.items():
            assert list_sink.count(category=category, source=source) == n

    def test_ping_result_reads_bridge_forwards_from_live_counters(self):
        _setup, result = run_short_ping()
        # Echo request and reply both cross the bridge: two forwards per ping.
        assert result.bridge_forwards == 2 * result.received

    def test_counter_window_isolates_an_interval(self, sim):
        sim.trace.record("a", "x")
        window = CounterWindow(sim.trace)
        assert window.count(category="x") == 0
        sim.trace.record("a", "x")
        sim.trace.record("b", "y")
        assert window.count(category="x") == 1
        assert window.count(source="b") == 1
        assert window.count(category="x", source="a") == 1
        assert window.count() == 2


# ---------------------------------------------------------------------------
# Determinism with the store swapped
# ---------------------------------------------------------------------------


class TestDeterminismAcrossSinks:
    def test_same_seed_same_trace_regardless_of_sinks(self):
        outcomes = []
        for sinks in (None, (RingBufferSink(capacity=50),)):
            setup, result = run_short_ping(trace_sinks=sinks, seed=23)
            sim = setup.network.sim
            outcomes.append(
                (
                    tuple(result.rtts),
                    result.bridge_forwards,
                    sim.events_dispatched,
                    len(sim.trace),
                    sim.trace.count(category="nic.tx"),
                )
            )
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Event queue: O(1) accounting, compaction, cancelled_discarded
# ---------------------------------------------------------------------------


class TestEventQueueAccounting:
    def test_len_tracks_cancellations_live(self):
        queue = EventQueue()
        events = [queue.push(10 * index, lambda: None) for index in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        assert bool(queue)
        # Double-cancel must not double-count.
        events[0].cancel()
        assert len(queue) == 6

    def test_cancel_after_pop_is_harmless(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        popped = queue.pop_entry()
        assert popped[3] is event
        event.cancel()
        assert len(queue) == 1
        assert queue.pop_entry()[0] == 2

    def test_cancelled_discarded_counts_top_skips(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None)
        second = queue.push(2, lambda: None)
        queue.push(3, lambda: None)
        first.cancel()
        second.cancel()
        assert queue.top_key()[0] == 3
        assert queue.cancelled_discarded == 2
        assert queue.pop_entry()[0] == 3
        assert queue.pop_entry() is None

    def test_lazy_compaction_when_cancellations_dominate(self):
        queue = EventQueue()
        doomed = [queue.push(1000 + index, lambda: None) for index in range(100)]
        survivors = [queue.push(10_000 + index, lambda: None) for index in range(5)]
        for event in doomed:
            event.cancel()
        assert len(queue) == 5
        # Compaction kicked in: the heap physically dropped most corpses
        # without waiting for them to surface at the top.
        assert queue.cancelled_discarded > 0
        assert len(queue._heap) < len(doomed) + len(survivors)
        popped = []
        while queue:
            popped.append(queue.pop_entry()[0])
        assert popped == sorted(event.time_ns for event in survivors)
        # Draining accounts for every cancelled event exactly once.
        assert queue.cancelled_discarded == len(doomed)
        assert queue.pop_entry() is None

    def test_simulator_exposes_discard_stat(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert sim.cancelled_events_discarded >= 0


# ---------------------------------------------------------------------------
# Segment byte accounting (regression)
# ---------------------------------------------------------------------------


class TestSegmentByteAccounting:
    def test_bytes_carried_uses_wire_length(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac,
            source=a.mac,
            ethertype=int(EtherType.IPV4),
            payload=b"z" * 100,
        )
        a.send(frame)
        sim.run()
        assert segment.frames_carried == 1
        assert segment.bytes_carried == frame.wire_length

    def test_utilization_matches_serialization_delay(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac,
            source=a.mac,
            ethertype=int(EtherType.IPV4),
            payload=b"z" * 500,
        )
        a.send(frame)
        sim.run()
        # Over exactly the serialization time, the wire was 100% occupied.
        busy = segment.serialization_delay(frame)
        assert segment.utilization(elapsed_seconds=busy) == pytest.approx(1.0)
