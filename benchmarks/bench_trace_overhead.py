"""Trace-overhead micro-benchmark.

Measures what instrumentation costs the simulator hot path: the trace hub
writes every record as one row of its one store (a ``ListSink`` or a
``RingBufferSink``) and renders details lazily:

* **emit micro-benchmark** — records/second through the hub into each store
  (``list``, ``ring-10k``), into a sharded fabric's trace (``shard``), whose
  recorders stamp the merge keys into their own stores, and with the
  category gated off (``gated-off``, the true floor);
* **frame blast** — an end-to-end simulated frame storm (NIC -> segment ->
  NIC, every hop tracing) per store, reporting frames/second and, for the
  bounded-memory configuration, that a million-frame run retains only
  ``capacity`` records;
* **telemetry overhead** — the list-store blast with the metrics registry
  off and on.

Results are appended to ``BENCH_trace.json`` next to the repository root so
the performance trajectory is tracked from PR to PR.  Run directly::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py [--frames N]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.sim.engine import Simulator
from repro.sim.fabric import ShardedSimulator
from repro.sim.trace import ListSink, RingBufferSink

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"

#: Records emitted per micro-benchmark configuration.
EMIT_COUNT = 200_000

#: Frames pushed through the wire per blast configuration.
DEFAULT_BLAST_FRAMES = 100_000

#: Frames for the bounded-memory (ring buffer) demonstration.
BOUNDED_RUN_FRAMES = 1_000_000

#: Ring capacity for the bounded-memory demonstration.
BOUNDED_RING_CAPACITY = 10_000


def _sink_configurations():
    return {
        "list": lambda: [ListSink()],
        "ring-10k": lambda: [RingBufferSink(capacity=10_000)],
    }


def _emit_rate(trace) -> int:
    """Records/second of ``EMIT_COUNT`` lazy-detail emits into ``trace``."""
    detail = lambda: {"frame": "00:00:00:00:00:01 -> 00:00:00:00:00:02"}  # noqa: E731
    start = time.perf_counter()
    for _ in range(EMIT_COUNT):
        trace.emit("bench", "bench.tick", detail)
    elapsed = time.perf_counter() - start
    return round(EMIT_COUNT / elapsed)


def bench_emit() -> dict:
    """Records/second through the hub, per store configuration."""
    results = {
        label: _emit_rate(Simulator(trace_sinks=make_sinks()).trace)
        for label, make_sinks in _sink_configurations().items()
    }
    # The fabric's trace: emits route to shard 0's recorder, which stamps
    # its shard index into that shard's own store.
    results["shard"] = _emit_rate(ShardedSimulator(shards=2).trace)
    # The gated floor: producers skip even the closure via wants().
    sim = Simulator(trace_sinks=[ListSink()])
    trace = sim.trace
    trace.disable_category("bench.tick")
    start = time.perf_counter()
    for _ in range(EMIT_COUNT):
        if trace.wants("bench.tick"):
            trace.emit("bench", "bench.tick", lambda: {"never": "rendered"})
    elapsed = time.perf_counter() - start
    results["gated-off"] = round(EMIT_COUNT / elapsed)
    return results


def run_frame_blast(n_frames: int, sinks, telemetry: bool = False) -> dict:
    """Drive ``n_frames`` through a two-station segment; every hop traces."""
    sim = Simulator(seed=0, trace_sinks=sinks)
    if telemetry:
        sim.enable_telemetry()
    segment = Segment(sim, "lan")
    sender = NetworkInterface(sim, "tx", MacAddress.locally_administered(1))
    receiver = NetworkInterface(sim, "rx", MacAddress.locally_administered(2))
    sender.attach(segment)
    receiver.attach(segment)
    frame = EthernetFrame(
        destination=receiver.mac,
        source=sender.mac,
        ethertype=int(EtherType.IPV4),
        payload=b"\x00" * 64,
    )
    remaining = n_frames

    def on_receive(_nic, _frame) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sender.send(frame)

    receiver.set_handler(on_receive)
    start = time.perf_counter()
    sender.send(frame)
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "frames": n_frames,
        "seconds": round(elapsed, 3),
        "frames_per_second": round(n_frames / elapsed),
        "events_dispatched": sim.events_dispatched,
        "records_captured": len(sim.trace),
        "records_retained": sum(1 for _ in sim.trace),
    }


def bench_frame_blast(n_frames: int) -> dict:
    """frames/second with full tracing, per store configuration."""
    return {
        label: run_frame_blast(n_frames, make_sinks())
        for label, make_sinks in _sink_configurations().items()
    }


def bench_telemetry_overhead(n_frames: int) -> dict:
    """frames/second with the metrics registry enabled vs default-off.

    Both runs drive the identical workload through a list sink; the
    telemetry contract says the enabled run dispatches the identical event
    count (metrics never touch simulated state) and costs only the guarded
    instrumentation, so the on/off ratio is gated like any other rate.
    """
    off = run_frame_blast(n_frames, [ListSink()])
    on = run_frame_blast(n_frames, [ListSink()], telemetry=True)
    assert on["events_dispatched"] == off["events_dispatched"], (off, on)
    assert on["records_captured"] == off["records_captured"], (off, on)
    return {
        "frames": n_frames,
        "off_frames_per_second": off["frames_per_second"],
        "on_frames_per_second": on["frames_per_second"],
        "on_off_ratio": round(
            on["frames_per_second"] / off["frames_per_second"], 3
        ),
    }


def bench_bounded_memory() -> dict:
    """A million-frame run retained in a 10k-record ring buffer."""
    result = run_frame_blast(
        BOUNDED_RUN_FRAMES, [RingBufferSink(capacity=BOUNDED_RING_CAPACITY)]
    )
    assert result["records_retained"] == BOUNDED_RING_CAPACITY, result
    assert result["records_captured"] > BOUNDED_RING_CAPACITY, result
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--frames",
        type=int,
        default=DEFAULT_BLAST_FRAMES,
        help="frames per blast configuration",
    )
    parser.add_argument(
        "--skip-bounded",
        action="store_true",
        help="skip the million-frame bounded-memory run",
    )
    args = parser.parse_args()
    if args.frames <= 0:
        parser.error("--frames must be positive")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "emit_records_per_second": bench_emit(),
        "frame_blast": bench_frame_blast(args.frames),
        "telemetry_overhead": bench_telemetry_overhead(args.frames),
    }
    if not args.skip_bounded:
        entry["bounded_memory_1m_frames"] = bench_bounded_memory()

    history = []
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            history = []
    history.append(entry)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")

    print(json.dumps(entry, indent=2))
    print(f"results appended to {RESULTS_PATH}")


if __name__ == "__main__":
    main()
