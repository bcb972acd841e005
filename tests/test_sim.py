"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import heapq
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.cpu import CpuQueue
from repro.exceptions import SchedulingError, SimulationError
from repro.lan.segment import Segment
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario
from repro.sim.clock import Clock, ns_to_seconds, seconds_to_ns
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue, describe_event, validate_schedule_time
from repro.sim.fabric import ShardedSimulator
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import TraceRecorder


# ---------------------------------------------------------------------------
# Clock
# ---------------------------------------------------------------------------


class TestClock:
    def test_starts_at_zero(self):
        clock = Clock()
        assert clock.now == 0.0
        assert clock.now_ns == 0

    def test_advance(self):
        clock = Clock()
        clock.advance_to_ns(5_000_000_000)
        assert clock.now == pytest.approx(5.0)

    def test_cannot_run_backwards(self):
        clock = Clock()
        clock.advance_to_ns(100)
        with pytest.raises(ValueError):
            clock.advance_to_ns(50)

    def test_reset(self):
        clock = Clock()
        clock.advance_to_ns(100)
        clock.reset()
        assert clock.now_ns == 0

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_conversion_roundtrip_close(self, seconds):
        assert ns_to_seconds(seconds_to_ns(seconds)) == pytest.approx(seconds, abs=1e-9)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(300, lambda: fired.append(3))
        queue.push(100, lambda: fired.append(1))
        queue.push(200, lambda: fired.append(2))
        while True:
            entry = queue.pop_entry()
            if entry is None:
                break
            entry[2]()
        assert fired == [1, 2, 3]

    def test_ties_preserve_scheduling_order(self):
        queue = EventQueue()
        order = []
        for index in range(5):
            queue.push(100, lambda i=index: order.append(i))
        while queue:
            queue.pop_entry()[2]()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(10, lambda: None, label="victim")
        queue.push(20, lambda: None)
        event.cancel()
        assert len(queue) == 1
        popped = queue.pop_entry()
        assert popped[0] == 20

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(10, lambda: None)
        second = queue.push(20, lambda: None)
        first.cancel()
        assert queue.top_key() == (20, second.sequence)

    def test_validate_schedule_time(self):
        with pytest.raises(SchedulingError):
            validate_schedule_time(now_ns=100, when_ns=50)

    def test_describe_event(self):
        queue = EventQueue()
        event = queue.push(10, lambda: None, label="x")
        description = describe_event(event)
        assert description["label"] == "x"
        assert description["time_ns"] == 10

    def test_each_queue_counts_its_own_sequence(self):
        # A fabric's shard queues and control ring each number their own
        # entries; (time, sequence) orders the entries of one queue.
        queues = [EventQueue(), EventQueue()]
        keys = [[], []]
        for index, when in enumerate([5, 5, 3, 5, 3, 7]):
            queue = queues[index % 2]
            if index % 3:
                sequence = queue.push_fire(when, lambda: None)
            else:
                sequence = queue.push(when, lambda: None).sequence
            keys[index % 2].append((when, sequence))
        assert [[key[1] for key in own] for own in keys] == [[0, 1, 2], [0, 1, 2]]
        for queue, own in zip(queues, keys):
            popped = []
            while queue:
                popped.append(queue.pop_entry()[:2])
            assert popped == sorted(own)

    def test_clear_detaches_events(self):
        queue = EventQueue()
        event = queue.push(3, lambda: None)
        queue.clear()
        assert not queue
        event.cancel()  # must not corrupt the emptied queue
        assert len(queue) == 0

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_pop_sorted(self, times):
        queue = EventQueue()
        for when in times:
            queue.push(when, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop_entry()[0])
        assert popped == sorted(times)


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


class TestSimulator:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run_until(2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run_until(3.0)
        assert sim.now == pytest.approx(3.0)

    def test_run_until_cannot_go_backwards(self, sim):
        sim.run_until(3.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [pytest.approx(1.0)]

    def test_events_scheduled_during_run_are_executed(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(0.5, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_run_for(self, sim):
        sim.run_until(1.0)
        sim.run_for(2.0)
        assert sim.now == pytest.approx(3.0)

    def test_max_events(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        dispatched = sim.run(max_events=4)
        assert dispatched == 4
        assert sim.pending_events == 6

    @pytest.mark.parametrize("engine", ["single", "single-telemetry", "relaxed"])
    def test_budgeted_run_until_does_not_jump_past_pending_events(self, engine):
        # Each entry point: cancellable, and both handle-free ones (all
        # scheduled from t=0, so a delay equals an absolute time).
        for entry in ("schedule_at", "schedule_fire_ns", "schedule_fire_after"):
            if engine == "relaxed":
                simulator = ShardedSimulator(seed=1, shards=2)
            else:
                simulator = Simulator(seed=1)
                if engine == "single-telemetry":
                    simulator.enable_telemetry()
            schedule = getattr(simulator, entry)
            if entry == "schedule_fire_ns":
                fire_ns = schedule
                schedule = lambda when, cb: fire_ns(seconds_to_ns(when), cb)  # noqa: E731
            fired = []
            for when in (1.0, 2.0, 3.0):
                schedule(when, lambda when=when: fired.append((when, simulator.now)))
            assert simulator.run_until(10.0, max_events=1) == 1
            assert simulator.now == 1.0
            simulator.run()
            assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
            # A budget that runs out with nothing left before the horizon
            # still lets the clock reach it.  (The clock is at 3.0 now.)
            schedule(1.0 if entry == "schedule_fire_after" else 4.0, lambda: None)
            assert simulator.run_until(10.0, max_events=1) == 1
            assert simulator.now == 10.0

    def test_reset(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_dispatched == 0

    def test_determinism_same_seed(self):
        def run_once():
            simulator = Simulator(seed=99)
            values = []
            for _ in range(10):
                simulator.schedule(
                    simulator.random.uniform(0, 1), lambda: values.append(simulator.now)
                )
            simulator.run()
            return values

        assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Handle-free entries and the inline drain
# ---------------------------------------------------------------------------

#: The single engine's scheduling entry points: three return a cancellable
#: handle, three (including a CPU-queue completion) do not.
ENTRY_KINDS = ("schedule", "schedule_at", "call_soon", "fire", "fire_after", "cpu")


def _schedule_via(sim, kind, delay_us, callback):
    """Schedule ``callback`` ``delay_us`` from now through one entry point.

    Returns the :class:`Event` handle for the cancellable kinds, else
    ``None``.  ``call_soon`` ignores the delay.
    """
    delay = delay_us * 1e-6
    if kind == "schedule":
        return sim.schedule(delay, callback)
    if kind == "schedule_at":
        return sim.schedule_at(sim.now + delay, callback)
    if kind == "call_soon":
        return sim.call_soon(callback)
    if kind == "fire":
        sim.schedule_fire_ns(sim.now_ns + round(delay * 1e9), callback)
    elif kind == "fire_after":
        sim.schedule_fire_after(delay, callback)
    else:
        CpuQueue(sim, f"cpu{id(callback)}").submit(delay, callback)
    return None


def _drain(sim, how):
    """Run ``sim`` to exhaustion through one of its dispatch loops."""
    if how == "run":
        sim.run()
    elif how == "run_until":
        sim.run_until(1.0)
    elif how == "budgeted":
        while sim.run_until(1.0, max_events=3) == 3:
            pass
    else:
        while sim.step():
            pass


#: One drawn scheduling call: (entry point, delay in microseconds, cancel it
#: before the run, its callback schedules a follow-up the same way).
_ENTRY_OPS = st.lists(
    st.tuples(
        st.sampled_from(ENTRY_KINDS),
        st.sampled_from([0, 0, 1, 2, 5]),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class TestHandleFreeEntries:
    """Handle and handle-free entries share one ``(time_ns, sequence)`` order."""

    @given(
        ops=_ENTRY_OPS,
        how=st.sampled_from(["run", "run_until", "budgeted", "step"]),
        telemetry=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_dispatch_order_and_counters_match_a_reference(self, ops, how, telemetry):
        sim = Simulator()
        if telemetry:
            sim.enable_telemetry()
        fired = []
        # The reference: every scheduling call takes the next sequence
        # number, and entries fire in (time_ns, sequence) order.
        reference = []
        sequence = 0
        cancelled = set()

        def make(label, kind, delay_us, follow, index):
            def callback():
                fired.append(label)
                if follow:
                    add(label + "'", kind, delay_us, False, sim.now_ns, index + 1)
            return callback

        def add(label, kind, delay_us, follow, now_ns, index):
            nonlocal sequence
            when_ns = now_ns + (0 if kind == "call_soon" else delay_us * 1000)
            callback = make(label, kind, delay_us, follow, index)
            handle = _schedule_via(sim, kind, delay_us, callback)
            entry = (when_ns, sequence, label, kind, delay_us, follow)
            heapq.heappush(reference, entry)
            sequence += 1
            return handle

        handles = {}
        for index, (kind, delay_us, cancel, follow) in enumerate(ops):
            handle = add(str(index), kind, delay_us, follow, 0, index)
            if cancel and handle is not None:
                handles[str(index)] = handle
        for label, handle in handles.items():
            handle.cancel()
            cancelled.add(label)
        assert sim.pending_events == len(ops) - len(cancelled)

        expected = []
        while reference:
            when_ns, seq, label, kind, delay_us, follow = heapq.heappop(reference)
            if label in cancelled:
                continue
            expected.append(label)
            if follow:
                heapq.heappush(
                    reference,
                    (when_ns + (0 if kind == "call_soon" else delay_us * 1000),
                     sequence, label + "'", kind, delay_us, False),
                )
                sequence += 1
        _drain(sim, how)
        assert fired == expected
        assert sim.pending_events == 0
        assert sim.events_dispatched == len(expected)
        # Every dispatch path drains to an empty queue, so each cancelled
        # entry has been discarded exactly once.
        assert sim.cancelled_events_discarded == len(cancelled)

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("when", ["before-run", "mid-run"])
    def test_lazy_compaction_with_handle_free_entries_pending(self, when, telemetry):
        sim = Simulator()
        if telemetry:
            sim.enable_telemetry()
        fired = []
        free_kinds = ("fire", "fire_after", "cpu")
        # Handle-free entries at 10-69 us, tied with doomed handles there.
        for index in range(60):
            _schedule_via(
                sim, free_kinds[index % 3], 10 + index,
                lambda index=index: fired.append(index),
            )
        doomed = [
            sim.schedule((10 + index) * 1e-6, lambda: fired.append("doomed"))
            for index in range(100)
        ]
        top = sim.schedule(1e-6, lambda: fired.append("top"))
        top.cancel()  # the earliest entry: discarded at the heap top
        assert sim.pending_events == 160

        def cancel_all():
            fired.append("cancel")
            for event in doomed:
                event.cancel()

        if when == "before-run":
            cancel_all()
            # The 80th cancellation left 81 dead entries against 80 live
            # ones, and the heap was compacted; 20 more died after that.
            assert sim.cancelled_events_discarded == 81
            assert sim.pending_events == 60
            assert len(sim._queue._heap) == 80
        else:
            sim.schedule_fire_ns(5_000, cancel_all)
        sim.run_until(1.0)
        assert fired == ["cancel"] + list(range(60))
        assert sim.pending_events == 0
        assert sim.cancelled_events_discarded == 101
        assert sim.events_dispatched == 60 + (when == "mid-run")


class TestHandleFreeFramePath:
    def test_cpu_completions_and_wire_events_construct_no_event(self, monkeypatch):
        run = run_scenario(
            "pair/active-bridge", params={"include_spanning_tree": False}
        )
        run.warm_up()
        sim = run.sim
        handle_callbacks = []
        construct = Event.__init__

        def counting_init(self, *args, **kwargs):
            handle_callbacks.append(args[2])
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        before = sim.events_dispatched
        result = PingRunner(
            sim, run.hosts[0], run.hosts[1].ip, payload_size=64, count=4,
            interval=0.05,
        ).run(start_time=sim.now)
        dispatched = sim.events_dispatched - before
        assert result.received == 4

        def owner(callback):
            if isinstance(callback, partial):
                callback = callback.func
            return getattr(callback, "__self__", None)

        frame_path = [
            callback for callback in handle_callbacks
            if isinstance(owner(callback), (CpuQueue, Segment))
        ]
        assert frame_path == []
        # What is left is the ping schedule itself.
        assert 0 < len(handle_callbacks) < dispatched // 4


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------


class TestTimers:
    def test_one_shot_timer_fires(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run()
        assert fired == [pytest.approx(2.0)]
        assert timer.expiry_count == 1

    def test_timer_restart_cancels_previous(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(1.0)
        timer.start()  # restart at t=1, so it fires at t=3
        sim.run()
        assert fired == [pytest.approx(3.0)]

    def test_timer_stop(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(True))
        timer.start()
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.running

    def test_timer_custom_duration(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start(duration=0.5)
        sim.run()
        assert fired == [pytest.approx(0.5)]

    def test_periodic_timer(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(3.5)
        timer.stop()
        sim.run_until(10.0)
        assert fired == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert timer.fire_count == 3

    def test_periodic_timer_fire_immediately(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(fire_immediately=True)
        sim.run_until(2.5)
        timer.stop()
        assert fired[0] == pytest.approx(0.0)
        assert len(fired) == 3


# ---------------------------------------------------------------------------
# Process
# ---------------------------------------------------------------------------


class TestProcess:
    def test_process_sleeps_between_steps(self, sim):
        steps = []

        def body():
            for _ in range(3):
                steps.append(sim.now)
                yield 1.0

        process = Process(sim, body())
        process.start()
        sim.run()
        assert steps == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]
        assert process.finished

    def test_on_complete_callback(self, sim):
        done = []

        def body():
            yield 0.5

        process = Process(sim, body(), on_complete=lambda: done.append(sim.now))
        process.start()
        sim.run()
        assert done == [pytest.approx(0.5)]

    def test_start_is_idempotent(self, sim):
        count = []

        def body():
            count.append(1)
            yield 0.1

        process = Process(sim, body())
        process.start()
        process.start()
        sim.run()
        assert sum(count) == 1


# ---------------------------------------------------------------------------
# RandomSource
# ---------------------------------------------------------------------------


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(5)
        b = RandomSource(5)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_payload_length(self):
        source = RandomSource(1)
        assert len(source.payload(100)) == 100
        assert source.payload(0) == b""

    def test_jitter_bounds(self):
        source = RandomSource(2)
        for _ in range(100):
            value = source.jitter(10.0, fraction=0.1)
            assert 9.0 <= value <= 11.0

    def test_reseed(self):
        source = RandomSource(3)
        first = source.randint(0, 1000)
        source.reseed(3)
        assert source.randint(0, 1000) == first


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


class TestTrace:
    def test_records_are_timestamped(self, sim):
        sim.schedule(1.5, lambda: sim.trace.record("unit", "tick"))
        sim.run()
        records = sim.trace.filter(category="tick")
        assert len(records) == 1
        assert records[0].time == pytest.approx(1.5)

    def test_filtering(self, sim):
        sim.trace.record("a", "x", value=1)
        sim.trace.record("b", "x", value=2)
        sim.trace.record("a", "y", value=3)
        assert sim.trace.count(category="x") == 2
        assert sim.trace.count(source="a") == 2
        assert len(sim.trace.filter(category="x", source="a")) == 1

    def test_disable_enable(self, sim):
        sim.trace.disable()
        sim.trace.record("a", "x")
        sim.trace.enable()
        sim.trace.record("a", "x")
        assert sim.trace.count(category="x") == 1

    def test_last(self, sim):
        sim.trace.record("a", "x", value=1)
        sim.trace.record("a", "x", value=2)
        assert sim.trace.last(category="x").detail["value"] == 2
        assert sim.trace.last(category="missing") is None

    def test_time_window_filter(self, sim):
        recorder: TraceRecorder = sim.trace
        sim.schedule(1.0, lambda: recorder.record("a", "x"))
        sim.schedule(2.0, lambda: recorder.record("a", "x"))
        sim.schedule(3.0, lambda: recorder.record("a", "x"))
        sim.run()
        assert len(recorder.filter(category="x", since=1.5, until=2.5)) == 1
