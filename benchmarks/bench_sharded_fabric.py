"""Sharded-fabric benchmark: wire-speed multi-LAN ring sweeps, single vs relaxed.

Measures the :class:`~repro.sim.fabric.ShardedSimulator` against the
single-engine path on the catalog ``ring`` scenario populated with end hosts,
at two sizes: the classic 64-LAN ring and the 256-LAN ring (two hosts per
segment, N-1 active bridges running the DEC spanning tree).  Two phases per
engine configuration:

* **warm-up** — compile plus spanning-tree convergence to the scenario's
  ready time: the control plane crosses shard boundaries, exercising the
  inter-shard channel and the conservative window loop;
* **wire blast** — every segment's host pair exchanges raw frames
  back-to-back, all LANs concurrently.  Bridge ports are administratively
  down for this phase so the sweep measures the event fabric at wire speed
  rather than the bridge CPU model (the paper's bridge tops out near 2100
  frames/second — three orders of magnitude below the wire).

Each size sweeps two engine configurations:

* ``shards=1`` — the single engine, the exact-order reference;
* ``shards=4/relaxed`` — the sharded fabric (:mod:`repro.sim.relaxed`):
  lookahead windows plus segment express lanes, equal to the single engine
  in the canonical order.  The blast handlers are declared ``inline_safe``
  so eligible segments take the express lane — that is the production
  pattern the fabric exists for.  ``relaxed_over_single`` (relaxed over
  single-engine records/sec) is the headline ratio.

The perf gate holds both configurations' ``events_dispatched`` exactly:
the single engine's event lane (one event per lone frame) and the express
lanes are what keep the events low, so a rise means a lane stopped
engaging.

Every sharded run must reproduce the single-engine counters exactly — the
benchmark asserts this before reporting.

Measurement hygiene: every engine configuration is measured in its own fresh
interpreter (a subprocess), so one configuration's allocator/heap state never
contaminates another's numbers; rates are computed from process CPU time
(``time.process_time``) so noisy-neighbor stalls in CI containers do not
masquerade as regressions (wall seconds are recorded alongside); the blast
runs three passes per interpreter and the fastest is reported; each
configuration runs in three interpreters, round-robin with the other, and
the entry keeps the median one and the median per-round ratio; garbage
collection is disabled inside the measured windows (and re-enabled after) so
the comparison measures engine mechanics, not collector cadence against
retained-record volume.

Besides the CPU-time sweep, each size carries a **wall-clock sweep** (the
``wall`` block): the single engine versus the relaxed **process backend**
(:mod:`repro.sim.procpool`, one worker process per shard) at shards 2 and 4,
each configuration measured as one blast pass per fresh interpreter with the
fastest of the invocations kept.  Wall-clock and CPU-time numbers are
distinct metric families — the wall sweep reports ``seconds_wall`` and the
``fabric/wall-speedup`` ratios only, never mixed with the CPU-time rates
above.  On runners with fewer than four CPU cores the speedup measurements
are skipped with an explicit log line (parallel wall-clock gains cannot be
measured honestly there) and the skip is recorded in the entry; the
**canonical identity** check — the relaxed-process run at shards=4 must
produce canonical records bit-identical to a fresh single engine replaying
the same workload — runs regardless of core count.

Results are appended to ``BENCH_trace.json`` as one entry holding both size
sweeps (``sharded_fabric`` = 64 LANs, ``sharded_fabric_256`` = 256 LANs);
``perf_gate.py`` tracks the throughput, ratio and event-count metrics
against the committed baseline.  Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded_fabric.py [--frames N]

CI additionally runs ``--wall-only --segments 64`` to publish the
multiprocess wall sweep as its own artifact (``--wall-report``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.ethernet.frame import EthernetFrame
from repro.scenario import run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"

#: Experimental ethertype used by the blast frames (never parsed by a stack).
BLAST_ETHERTYPE = 0x88B5

#: Payload bytes per blast frame.
BLAST_PAYLOAD = 256

#: Upper bound on simulated seconds per exchanged frame (sizing the window).
BLAST_FRAME_BUDGET = 40e-6

#: The two ring sizes swept, and the BENCH entry key each one records under.
SWEEPS = ((64, "sharded_fabric"), (256, "sharded_fabric_256"))

#: Shard counts per sweep.  ``shards=1`` is the single-engine baseline; a
#: sharded configuration's key carries the ``/relaxed`` suffix.
CONFIGS = (1, 4)

#: Fresh interpreters per configuration in a sweep, taken round-robin across
#: the configurations.  One interpreter's rate can sit more than 20 % below
#: the same code's usual rate, so the entry keeps the median interpreter.
ROUNDS = 3

#: Wall-clock sweep configurations: (config key, backend, shards).
WALL_CONFIGS = (
    ("single", "single", 1),
    ("shards=2/process", "process", 2),
    ("shards=4/process", "process", 4),
)

#: Minimum CPU cores for the wall-clock speedup measurements to be honest.
WALL_MIN_CORES = 4


def cpu_cores() -> int:
    """CPU cores actually available to this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def config_key(shards: int) -> str:
    return "shards=1" if shards == 1 else f"shards={shards}/relaxed"


def build(segments: int, shards: int, backend=None):
    """Compile and warm up the host-populated ring on ``shards`` engines."""
    compile_start = time.perf_counter()
    run = run_scenario(
        "ring",
        params={"n_bridges": segments - 1, "hosts_per_segment": 2},
        shards=shards,
        backend=backend if shards > 1 else None,
    )
    compiled = time.perf_counter()
    run.warm_up()
    warmed = time.perf_counter()
    return run, compiled - compile_start, warmed - compiled


def _arm_blast(run, frames_per_pair: int, inline_safe: bool):
    """Install blast handlers on every host pair; return (pairs, states)."""
    pairs = []
    states = []
    for segment_spec in run.spec.segments:
        left = run.host(f"{segment_spec.name}h1")
        right = run.host(f"{segment_spec.name}h2")
        forward = EthernetFrame(
            destination=right.mac,
            source=left.mac,
            ethertype=BLAST_ETHERTYPE,
            payload=b"\x00" * BLAST_PAYLOAD,
        )
        backward = EthernetFrame(
            destination=left.mac,
            source=right.mac,
            ethertype=BLAST_ETHERTYPE,
            payload=b"\x00" * BLAST_PAYLOAD,
        )
        state = [frames_per_pair]
        states.append(state)

        def bounce(nic, reply, state=state):
            def handler(_nic, _frame) -> None:
                state[0] -= 1
                if state[0] > 0:
                    nic.send(reply)

            return handler

        # inline_safe declares the handlers reactive-only, which is what
        # makes relaxed segments express-eligible; the single engine ignores
        # the flag entirely.
        left.nic.set_handler(bounce(left.nic, forward), inline_safe=inline_safe)
        right.nic.set_handler(bounce(right.nic, backward), inline_safe=inline_safe)
        pairs.append((left, forward))
    return pairs, states


def _blast_pass(run, frames_per_pair: int, inline_safe: bool = False) -> dict:
    """One concurrent ping-pong exchange on every segment; return one sample."""
    sim = run.sim
    pairs, states = _arm_blast(run, frames_per_pair, inline_safe)
    frames_before = sum(s.frames_carried for s in run.network.segments.values())
    records_before = len(sim.trace)
    horizon = sim.now + frames_per_pair * BLAST_FRAME_BUDGET
    gc.collect()
    gc.disable()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    for left, forward in pairs:
        left.nic.send(forward)
    sim.run_until(horizon)
    cpu_elapsed = time.process_time() - cpu_start
    wall_elapsed = time.perf_counter() - wall_start
    gc.enable()
    if not all(state[0] <= 0 for state in states):
        raise RuntimeError("wire blast did not complete inside its window")
    frames = (
        sum(s.frames_carried for s in run.network.segments.values()) - frames_before
    )
    records = len(sim.trace) - records_before
    return {
        "frames": frames,
        "records": records,
        "seconds_cpu": round(cpu_elapsed, 3),
        "seconds_wall": round(wall_elapsed, 3),
        "frames_per_second": round(frames / cpu_elapsed),
        "records_per_second": round(records / cpu_elapsed),
    }


def wire_blast(run, frames_per_pair: int, inline_safe: bool, passes: int = 3) -> dict:
    """Run ``passes`` blast exchanges and keep the fastest sample.

    The retained trace is cleared between passes: a steadily growing
    record store slows *any* engine's allocation path over time, and the
    benchmark measures the engines, not the store's growth curve.
    """
    best = None
    for _ in range(passes):
        run.sim.trace.clear()
        sample = _blast_pass(run, frames_per_pair, inline_safe)
        if best is None or sample["records_per_second"] > best["records_per_second"]:
            best = sample
    return best


#: Frames per pair for the determinism-verification exchange.
VERIFY_FRAMES = 50


def _down_bridge_ports(run) -> None:
    """Administratively down every bridge port so the blast sees pure wire."""
    for device in run.devices:
        for nic in device.interfaces.values():
            nic.set_up(False)


def bench_configuration(segments: int, shards: int, frames_per_pair: int) -> dict:
    run, compile_seconds, warm_seconds = build(segments, shards)
    _down_bridge_ports(run)
    inline_safe = shards > 1
    # Verification exchange: runs before any trace clearing so the counters
    # snapshot covers compile, warm-up and a full blast round-trip.
    _blast_pass(run, VERIFY_FRAMES, inline_safe)
    counters = dict(run.sim.trace.counters.by_category_source)
    blast = wire_blast(run, frames_per_pair, inline_safe)
    result = {
        "shards": shards,
        "mode": "relaxed" if shards > 1 else "single",
        "compile_seconds": round(compile_seconds, 3),
        "warmup_seconds": round(warm_seconds, 3),
        "blast": blast,
        "counters": counters,
        "events_dispatched": run.sim.events_dispatched,
    }
    if shards > 1:
        result["cut_segments"] = len(run.partition.cut_segments)
        result["lookahead_ns"] = run.partition.lookahead_ns
        result["shard_stats"] = [
            {k: v for k, v in stats.items() if k != "records"}
            for stats in run.network.sim.shard_stats()
        ]
        result["relaxed_stats"] = run.network.sim.relaxed_stats
    return result


def measure_in_subprocess(segments: int, shards: int, frames: int) -> dict:
    """Run one configuration in a fresh interpreter and return its JSON."""
    process = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--measure-one",
            f"--segments={segments}",
            f"--frames={frames}",
            "--shards",
            str(shards),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if process.returncode != 0:
        raise RuntimeError(
            f"measurement subprocess (segments={segments}, shards={shards}) "
            f"failed:\n{process.stderr}"
        )
    return json.loads(process.stdout)


def _wall_blast(run, frames_per_pair: int, inline_safe: bool, check_states: bool) -> dict:
    """One wall-clock-timed blast pass (single dispatch, trace fetch outside).

    The process backend allows exactly one measured dispatch per run, and its
    handler closures fire in the worker processes — the parent's ``state``
    cells never move — so completion is checked through the shipped record
    stream instead (``check_states=False``); cross-configuration counter
    identity and the single-engine identity check carry the real proof.
    Trace shipping and the counters' fold stay outside the timed window for
    every backend so the comparison stays like-for-like.
    """
    sim = run.sim
    pairs, states = _arm_blast(run, frames_per_pair, inline_safe)
    records_before = len(sim.trace)
    horizon = sim.now + frames_per_pair * BLAST_FRAME_BUDGET
    gc.collect()
    gc.disable()
    wall_start = time.perf_counter()
    for left, forward in pairs:
        left.nic.send(forward)
    sim.run_until(horizon)
    wall_elapsed = time.perf_counter() - wall_start
    gc.enable()
    records = len(sim.trace) - records_before
    if check_states:
        if not all(state[0] <= 0 for state in states):
            raise RuntimeError("wall blast did not complete inside its window")
    elif records <= 0:
        raise RuntimeError("process-backend wall blast shipped no records")
    return {
        "frames_per_pair": frames_per_pair,
        "records": records,
        "seconds_wall": round(wall_elapsed, 3),
        "records_per_second_wall": round(records / wall_elapsed) if wall_elapsed else 0,
    }


def _verify_process_identity(process_run, segments: int, shards: int, frames: int) -> dict:
    """Assert the process run's canonical records equal the single engine's.

    Builds a fresh single engine in this interpreter, replays the same
    warm-up + blast workload, and compares the two canonical record streams
    element by element.
    """
    process_records = process_run.sim.trace.canonical_records()
    single_run, _, _ = build(segments, 1)
    _down_bridge_ports(single_run)
    _wall_blast(single_run, frames, inline_safe=True, check_states=True)
    single_records = single_run.sim.trace.canonical_records()
    if process_records != single_records:
        raise RuntimeError(
            f"relaxed-process canonical records at shards={shards} diverged "
            f"from the single engine: {len(process_records)} vs "
            f"{len(single_records)} records"
        )
    return {
        "verified": True,
        "records": len(process_records),
        "against": "single engine",
    }


def bench_wall_configuration(
    segments: int,
    shards: int,
    frames_per_pair: int,
    backend: str,
    verify_identity: bool = False,
    breakdown: bool = False,
) -> dict:
    """Measure one wall-sweep configuration (one pass; fresh interpreter).

    With ``breakdown=True`` the run enables telemetry after warm-up, so the
    blast dispatch carries the per-window compute/barrier/pipe/plan phase
    attribution.  Breakdown passes are kept out of the timed speedup
    samples — telemetry costs a little, and the sweep's ``seconds_wall``
    numbers must stay like-for-like with the default-off runs.
    """
    run, _, _ = build(
        segments, shards, backend="process" if backend == "process" else None
    )
    _down_bridge_ports(run)
    if breakdown:
        run.sim.enable_telemetry()
    blast = _wall_blast(
        run, frames_per_pair, inline_safe=shards > 1,
        check_states=backend != "process",
    )
    result = {
        "backend": backend,
        "shards": shards,
        **blast,
        "counters": dict(run.sim.trace.counters.by_category_source),
    }
    if breakdown:
        report = run.report()
        phases = dict(
            report.wall,
            windows=sum(value for _, value in report.family("fabric_windows_total")),
        )
        gap = abs(phases["attributed_s"] - phases["total_s"])
        if phases["total_s"] > 0 and gap > 0.05 * phases["total_s"]:
            raise RuntimeError(
                f"phase attribution gap {gap:.6f}s exceeds 5% of the "
                f"{phases['total_s']:.6f}s dispatch wall total"
            )
        result["breakdown"] = phases
    if verify_identity:
        result["identity"] = _verify_process_identity(
            run, segments, shards, frames_per_pair
        )
    return result


def measure_wall_in_subprocess(
    segments: int, shards: int, frames: int, backend: str,
    verify_identity: bool = False, breakdown: bool = False,
) -> dict:
    """Run one wall configuration in a fresh interpreter and return its JSON."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--measure-wall",
        f"--segments={segments}",
        f"--frames={frames}",
        f"--backend={backend}",
        "--shards",
        str(shards),
    ]
    if verify_identity:
        command.append("--verify-identity")
    if breakdown:
        command.append("--breakdown")
    process = subprocess.run(command, capture_output=True, text=True, check=False)
    if process.returncode != 0:
        raise RuntimeError(
            f"wall measurement subprocess (segments={segments}, shards={shards}, "
            f"backend={backend}) failed:\n{process.stderr}"
        )
    return json.loads(process.stdout)


def run_wall_sweep(
    segments: int, frames: int, identity_frames: int, passes: int = 2
) -> dict:
    """Wall-clock sweep at one ring size; identity check runs regardless.

    On runners with fewer than :data:`WALL_MIN_CORES` CPU cores the speedup
    measurements are skipped (recorded in the block, with an explicit log
    line) — a single core serializes the worker processes, so any "speedup"
    measured there would be noise, not signal.
    """
    cores = cpu_cores()
    wall = {"segments": segments, "frames_per_pair": frames, "cpu_cores": cores}
    if cores < WALL_MIN_CORES:
        print(
            f"wall sweep ({segments} LANs): SKIPPED wall-speedup measurements — "
            f"only {cores} CPU core(s) available (< {WALL_MIN_CORES}); "
            "parallel wall-clock speedup cannot be measured honestly on this "
            "runner (canonical identity is still verified below)"
        )
        wall["skipped"] = True
        wall["reason"] = f"{cores} CPU core(s) < {WALL_MIN_CORES}"
    else:
        wall["skipped"] = False
        configs = {}
        baseline_counters = None
        for key, backend, shards in WALL_CONFIGS:
            best = None
            for _ in range(passes):
                sample = measure_wall_in_subprocess(segments, shards, frames, backend)
                if best is None or sample["seconds_wall"] < best["seconds_wall"]:
                    best = sample
            counters = best.pop("counters")
            if backend == "single":
                baseline_counters = counters
            else:
                assert counters == baseline_counters, (
                    f"wall run {key} diverged from the single engine"
                )
            configs[key] = best
            print(
                f"{segments} LANs wall {key}: {best['seconds_wall']:.3f}s wall, "
                f"{best['records_per_second_wall']:,} records/s"
            )
        single_wall = configs["single"]["seconds_wall"]
        speedups = {
            key: round(single_wall / configs[key]["seconds_wall"], 2)
            for key, backend, _ in WALL_CONFIGS
            if backend != "single" and configs[key]["seconds_wall"] > 0
        }
        wall["configs"] = configs
        wall["speedups"] = speedups
        print(
            f"{segments} LANs wall speedups vs single engine: "
            + ", ".join(f"{key}={value:.2f}x" for key, value in speedups.items())
        )
    # Telemetry phase breakdown: where the relaxed fabric's dispatch wall
    # actually goes (per-window compute vs barrier wait vs pipe round-trips).
    # Runs regardless of core count — attribution shares are meaningful even
    # where parallel speedups are not — and outside the timed samples above.
    # The barrier+pipe share measured here is the baseline the shared-memory
    # mailbox ROADMAP item has to beat.
    breakdown_configs = [("shards=4/sequential", "sequential", 4)]
    if hasattr(os, "fork"):
        breakdown_configs.append(("shards=4/process", "process", 4))
    breakdown = {}
    for key, backend, shards in breakdown_configs:
        sample = measure_wall_in_subprocess(
            segments, shards, frames, backend, breakdown=True
        )
        phases = sample["breakdown"]
        breakdown[key] = phases
        total = phases["total_s"] or 1.0
        print(
            f"{segments} LANs wall {key} breakdown: "
            f"compute {phases['compute_s'] * 1e3:.1f}ms "
            f"({phases['compute_s'] / total:.0%}), "
            f"barrier {phases['barrier_s'] * 1e3:.1f}ms "
            f"({phases['barrier_s'] / total:.0%}), "
            f"pipe {phases['pipe_s'] * 1e3:.1f}ms "
            f"({phases['pipe_s'] / total:.0%}), "
            f"plan {phases['plan_s'] * 1e3:.1f}ms over "
            f"{phases['windows']} windows "
            f"(attributed {phases['attributed_s'] / total:.1%} of "
            f"{total:.3f}s total)"
        )
    wall["breakdown"] = breakdown
    identity = measure_wall_in_subprocess(
        segments, 4, identity_frames, "process", verify_identity=True
    )
    wall["identity"] = dict(
        identity["identity"], frames_per_pair=identity_frames
    )
    print(
        f"{segments} LANs: relaxed-process canonical records verified "
        f"bit-identical to the single engine at shards=4 "
        f"({wall['identity']['records']} records)\n"
    )
    return wall


def run_sweep(segments: int, frames: int) -> dict:
    """Measure every configuration at one ring size; verify and summarize.

    Each configuration runs in :data:`ROUNDS` fresh interpreters, one per
    round, and the entry keeps the sample with the median records/s.  The
    relaxed-over-single ratio is the median of the per-round ratios, as in
    ``bench_failover.py``: the two samples of a round are adjacent in time.
    """
    samples: dict = {shards: [] for shards in CONFIGS}
    baseline_counters = None
    for _ in range(ROUNDS):
        for shards in CONFIGS:
            result = measure_in_subprocess(segments, shards, frames)
            counters = result.pop("counters")
            if baseline_counters is None:
                baseline_counters = counters
            else:
                # The fabric's contract — canonical equivalence with the
                # single engine — means the live counters over compile,
                # warm-up and a blast round-trip must match the single
                # engine exactly, in every run.
                assert counters == baseline_counters, (
                    f"run (shards={shards}) diverged from the single engine"
                )
            samples[shards].append(result)

    def rate(result: dict) -> int:
        return result["blast"]["records_per_second"]

    configs = {}
    for shards in CONFIGS:
        key = config_key(shards)
        result = configs[key] = sorted(samples[shards], key=rate)[ROUNDS // 2]
        blast = result["blast"]
        print(
            f"{segments} LANs {key}: warm {result['warmup_seconds']:.2f}s, blast "
            f"{blast['frames']} frames in {blast['seconds_cpu']:.3f} cpu-s = "
            f"{blast['frames_per_second']:,} frames/s, "
            f"{blast['records_per_second']:,} records/s"
        )

    relaxed_key = config_key(CONFIGS[-1])
    ratios = sorted(
        rate(relaxed) / rate(single)
        for relaxed, single in zip(samples[CONFIGS[-1]], samples[1])
    )
    relaxed_over_single = ratios[len(ratios) // 2]
    print(
        f"{segments} LANs: {relaxed_key} runs {relaxed_over_single:.2f}x the "
        f"single engine's records/s with "
        f"{configs[relaxed_key]['events_dispatched']:,} events "
        "(verified counter-identical)\n"
    )
    return {
        "segments": segments,
        "frames_per_pair": frames,
        "configs": configs,
        "relaxed_over_single": round(relaxed_over_single, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--segments", type=int, default=None,
        help="ring LAN count (default: run the standard 64- and 256-LAN sweeps)",
    )
    parser.add_argument(
        "--frames", type=int, default=600, help="blast frames per host pair"
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard count for --measure-one (sweep configurations are fixed)",
    )
    parser.add_argument(
        "--measure-one",
        action="store_true",
        help="internal: measure the single given configuration and print JSON",
    )
    parser.add_argument(
        "--measure-wall",
        action="store_true",
        help="internal: wall-time one configuration (one pass) and print JSON",
    )
    parser.add_argument(
        "--backend", choices=("single", "sequential", "process"), default=None,
        help="engine backend for --measure-wall (sequential = in-process "
        "relaxed windows)",
    )
    parser.add_argument(
        "--verify-identity",
        action="store_true",
        help="with --measure-wall: assert canonical identity vs the single engine",
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="with --measure-wall: enable telemetry and report the "
        "compute/barrier/pipe/plan phase breakdown",
    )
    parser.add_argument(
        "--wall-frames", type=int, default=400,
        help="blast frames per host pair for the wall-clock sweep",
    )
    parser.add_argument(
        "--identity-frames", type=int, default=50,
        help="blast frames per pair for the process-vs-single identity check",
    )
    parser.add_argument(
        "--wall-only",
        action="store_true",
        help="run only the wall-clock sweep (one ring size) and append it",
    )
    parser.add_argument(
        "--wall-report", type=Path, default=None,
        help="with --wall-only: also write the wall block to this JSON file",
    )
    args = parser.parse_args()
    if args.frames <= 0:
        parser.error("--frames must be positive")
    if args.segments is not None and args.segments < 2:
        parser.error("--segments must be >= 2")
    if args.shards is not None and not (args.measure_one or args.measure_wall):
        parser.error(
            "--shards only applies with --measure-one/--measure-wall; the "
            "sweep configurations are fixed (see CONFIGS)"
        )

    if args.measure_wall:
        if args.segments is None or args.backend is None:
            parser.error("--measure-wall needs --segments and --backend")
        result = bench_wall_configuration(
            args.segments,
            args.shards[0] if args.shards else 4,
            args.frames,
            args.backend,
            verify_identity=args.verify_identity,
            breakdown=args.breakdown,
        )
        result["counters"] = {
            f"{category}|{source}": count
            for (category, source), count in result["counters"].items()
        }
        json.dump(result, sys.stdout)
        return

    if args.wall_only:
        segments = args.segments or 64
        wall = run_wall_sweep(segments, args.wall_frames, args.identity_frames)
        key = dict((size, name) for size, name in SWEEPS).get(
            segments, "sharded_fabric"
        )
        entry = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            key: {"segments": segments, "wall": wall},
        }
        history = []
        if RESULTS_PATH.exists():
            try:
                history = json.loads(RESULTS_PATH.read_text())
            except ValueError:
                history = []
        history.append(entry)
        RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
        print(f"wall sweep appended to {RESULTS_PATH}")
        if args.wall_report is not None:
            args.wall_report.write_text(json.dumps(wall, indent=2) + "\n")
            print(f"wall sweep report written to {args.wall_report}")
        return

    if args.measure_one:
        if args.segments is None:
            parser.error("--measure-one needs --segments")
        result = bench_configuration(
            args.segments, args.shards[0] if args.shards else 4, args.frames
        )
        # Counter keys are (category, source) tuples; make them JSON-safe.
        result["counters"] = {
            f"{category}|{source}": count
            for (category, source), count in result["counters"].items()
        }
        json.dump(result, sys.stdout)
        return

    sweeps = SWEEPS if args.segments is None else ((args.segments, "sharded_fabric"),)
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
    }
    for segments, key in sweeps:
        entry[key] = run_sweep(segments, args.frames)
        entry[key]["wall"] = run_wall_sweep(
            segments, args.wall_frames, args.identity_frames
        )

    history = []
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            history = []
    history.append(entry)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
    print(f"results appended to {RESULTS_PATH}")


if __name__ == "__main__":
    main()
