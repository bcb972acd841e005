"""Population-scale fast-path benchmark: fleets, traffic matrices, hot path.

Stamps seeded station fleets (``population/office``) at 1k / 5k / 50k
stations, drives the synthetic traffic matrices (request/response service
clients, bursty on/off sources, bounded-Pareto flow sizes, diurnal load)
through the scenario machinery, and measures the pooled/slotted hot path:

* **aggregate frames/s** — NIC transmissions per CPU second over the
  measured window (``time.process_time``, gc disabled), the engine-mechanics
  rate the perf gate tracks per engine configuration;
* **p99 request-service latency** — the 99th percentile of the *simulated*
  request→response round-trip times carried by ``svc.rtt`` trace records.
  This is a deterministic result (identical across engine modes, asserted
  here), recorded for the paper-facing tables but not gated as performance;
* **peak RSS** — ``ru_maxrss`` of the isolated measuring subprocess, giving
  an honest bytes-per-station figure at each scale.

Every configuration runs in its own subprocess (``--measure-one``) so pools,
allocators and the page cache never leak between measurements, and peak RSS
is attributable to exactly one build+run.  Within a scale the benchmark
asserts frame counts and RTT distributions are identical across engine
configurations — the sharded sweeps must be measuring the *same* workload —
and a small-scale identity block replays one seeded population on every
engine mode (single engine, relaxed shards at 2 and 4, process backend) and
records that their canonical histories (``canonical_records()``) match.

The process-backend configuration measures wall clock (parent CPU time is
meaningless for forked workers) and is only run on machines with at least
``WALL_MIN_CORES`` cores; below that the sweep records an explicit skip
rather than publishing numbers that measure scheduler contention.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_population.py
    PYTHONPATH=src python benchmarks/bench_population.py \
        --stations 1000 --no-record --report population-smoke.json

Results append to ``BENCH_trace.json`` under the ``population`` key unless
``--no-record`` is given; ``benchmarks/perf_gate.py`` pairs the frames/s
metrics against their previous occurrences.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))

from repro.measurement.analysis import latency_summary  # noqa: E402
from repro.population import install_traffic  # noqa: E402
from repro.scenario import run_scenario  # noqa: E402

RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"
SCENARIO = "population/office"

#: Fleet shapes per target station count.  Station totals include the core
#: trio (gateway + two databases) on top of floors x hosts_per_floor, so
#: the keys are nominal scales, not exact host counts.
SCALES = {
    1000: {"floors": 10, "hosts_per_floor": 100, "duration": 0.5},
    5000: {"floors": 50, "hosts_per_floor": 100, "duration": 0.5},
    50000: {"floors": 500, "hosts_per_floor": 100, "duration": 0.2},
}

#: Engine configurations measured at each scale.  The 50k fleet runs the
#: relaxed sharded configuration only — the point of that scale is the
#: completed run and its RSS-per-station figure, not a full sweep.
CONFIGS = {
    1000: ["single", "shards=4/relaxed"],
    5000: ["single", "shards=4/relaxed"],
    50000: ["shards=4/relaxed"],
}

#: The process-backend configuration needs real cores for its wall clock to
#: mean anything; below this the sweep records an explicit skip.
PROCESS_CONFIG = "shards=4/process"
WALL_MIN_CORES = 4

#: Small fleet replayed on every engine mode for the identity block.
IDENTITY_PARAMS = {"floors": 2, "hosts_per_floor": 6, "duration": 0.3}
IDENTITY_MODES = {
    "single": {},
    "shards=2/relaxed": {"shards": 2},
    "shards=4/relaxed": {"shards": 4},
    "shards=4/process": {"shards": 4, "backend": "process"},
}


def cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def config_kwargs(config: str) -> dict:
    """Engine keyword arguments for a configuration name."""
    if config == "single":
        return {}
    shard_text, _, mode = config.partition("/")
    shards = int(shard_text.split("=")[1])
    if mode == "relaxed":
        return {"shards": shards}
    if mode == "process":
        return {"shards": shards, "backend": "process"}
    raise ValueError(f"unknown configuration {config!r}")


# ----------------------------------------------------------------------
# One measured configuration (runs in its own subprocess)
# ----------------------------------------------------------------------


def measure_one(scale: int, config: str) -> dict:
    """Build and run one fleet under one engine configuration."""
    shape = SCALES[scale]
    params = dict(shape)
    kwargs = config_kwargs(config)
    sequential = kwargs.get("backend") != "process"

    build_start = time.perf_counter()
    run = run_scenario(SCENARIO, params=params, **kwargs)
    traffic = install_traffic(run)
    compile_seconds = time.perf_counter() - build_start
    warm_start = time.perf_counter()
    run.warm_up()
    warm_seconds = time.perf_counter() - warm_start

    counters = run.sim.trace.counters.by_category_source
    tx_before = sum(v for (cat, _), v in counters.items() if cat == "nic.tx")
    records_before = sum(counters.values())

    gc.collect()
    gc.disable()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    run.sim.run_until(traffic.horizon)
    cpu_seconds = time.process_time() - cpu_start
    wall_seconds = time.perf_counter() - wall_start
    gc.enable()

    # Service RTTs come from svc.rtt trace records; reading them through
    # canonical_records() also pulls worker trace streams and counters back
    # into the parent on the process backend.
    rtts = traffic.service_rtts()
    rtt_stats = latency_summary(rtts)
    counters = run.sim.trace.counters.by_category_source
    frames = sum(v for (cat, _), v in counters.items() if cat == "nic.tx") - tx_before
    records = sum(counters.values()) - records_before

    result = {
        "config": config,
        "stations": len(run.spec.hosts),
        "segments": len(run.spec.segments),
        "compile_seconds": round(compile_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "wall_seconds": round(wall_seconds, 3),
        "frames": frames,
        "records": records,
        "rtt_samples": len(rtts),
        "p99_rtt_ns": int(rtt_stats["p99"]) if rtts else None,
        "rtt_ns": rtt_stats,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if sequential:
        # Parent CPU time covers the whole run only when no forked workers
        # execute windows; the process backend records wall clock instead.
        result["cpu_seconds"] = round(cpu_seconds, 3)
        result["frames_per_second"] = round(frames / cpu_seconds, 1)
        result["pool"] = traffic.pool_statistics()
        result["wheel"] = traffic.wheel_statistics()
        result["coalesced"] = sum(
            run.segment(spec.name).frames_coalesced for spec in run.spec.segments
        )
        result["traffic"] = traffic.traffic_statistics()
    else:
        result["wall_frames_per_second"] = round(frames / wall_seconds, 1)
    return result


def measure_in_subprocess(scale: int, config: str) -> dict:
    """Run one configuration in an isolated interpreter and parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--measure-one",
            f"--scale={scale}",
            f"--config={config}",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement subprocess failed for {config}@{scale}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# Identity block
# ----------------------------------------------------------------------


def run_identity_block() -> dict:
    """Replay one seeded fleet on every engine mode; compare canonically."""

    def observe(kwargs):
        run = run_scenario(SCENARIO, params=IDENTITY_PARAMS, **kwargs)
        traffic = install_traffic(run)
        run.warm_up()
        run.sim.run_until(traffic.horizon)
        return (
            run.sim.trace.canonical_records(),
            dict(run.sim.trace.counters.by_category_source),
            run.sim.now,
            traffic.service_rtts(),
        )

    modes = dict(IDENTITY_MODES)
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        modes.pop("shards=4/process")
    baseline = observe(modes.pop("single"))
    mismatches = []
    for name, kwargs in modes.items():
        if observe(kwargs) != baseline:
            mismatches.append(name)
    return {
        "scenario": SCENARIO,
        "params": IDENTITY_PARAMS,
        "modes": ["single", *modes],
        "records": len(baseline[0]),
        "rtt_samples": len(baseline[3]),
        "identical": not mismatches,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


def run_sweep(scales) -> dict:
    cores = cpu_cores()
    entry = {
        "benchmark": "population",
        "python": sys.version.split()[0],
        "cpu_cores": cores,
        "scenario": SCENARIO,
        "scales": {},
    }

    for scale in scales:
        shape = SCALES[scale]
        configs = list(CONFIGS[scale])
        print(
            f"population scale {scale}: floors={shape['floors']} "
            f"hosts_per_floor={shape['hosts_per_floor']} "
            f"duration={shape['duration']}s"
        )
        block = {**shape, "configs": {}}
        for config in configs:
            result = measure_in_subprocess(scale, config)
            block["configs"][config] = result
            rate = result.get("frames_per_second")
            rate_text = f"{rate:,.0f} frames/s" if rate else "wall-only"
            print(
                f"  {config:<18} {result['frames']:>8,} frames  {rate_text:>18}  "
                f"p99 {result['p99_rtt_ns'] / 1e6 if result['p99_rtt_ns'] else 0:.2f} ms  "
                f"rss {result['peak_rss_kb'] / 1024:.0f} MB"
            )

        # The process backend measures wall clock; that is only meaningful
        # with real cores behind the forked workers.
        if scale != 50000:
            if cores >= WALL_MIN_CORES and hasattr(os, "fork"):
                result = measure_in_subprocess(scale, PROCESS_CONFIG)
                block["configs"][PROCESS_CONFIG] = result
                print(
                    f"  {PROCESS_CONFIG:<18} {result['frames']:>8,} frames  "
                    f"{result['wall_frames_per_second']:>10,.0f} wall-f/s"
                )
            else:
                block["process_skipped"] = (
                    f"needs >= {WALL_MIN_CORES} cores for an honest wall "
                    f"clock (have {cores})"
                )
                print(f"  {PROCESS_CONFIG:<18} skipped: {block['process_skipped']}")

        # Same seed, same fleet: every configuration must have measured the
        # same workload.  Frame counts and the simulated latency
        # distribution are deterministic results, not performance.
        frames = {c: r["frames"] for c, r in block["configs"].items()}
        assert len(set(frames.values())) == 1, f"frame counts diverge: {frames}"
        p99s = {c: r["p99_rtt_ns"] for c, r in block["configs"].items()}
        assert len(set(p99s.values())) == 1, f"p99 RTTs diverge: {p99s}"

        stations = next(iter(block["configs"].values()))["stations"]
        block["stations"] = stations
        block["p99_rtt_ns"] = next(iter(p99s.values()))
        rss = min(r["peak_rss_kb"] for r in block["configs"].values())
        block["rss_kb_per_station"] = round(rss / stations, 2)
        single = block["configs"].get("single")
        relaxed = block["configs"].get("shards=4/relaxed")
        if single and relaxed and single.get("frames_per_second"):
            block["relaxed_over_single"] = round(
                relaxed["frames_per_second"] / single["frames_per_second"], 3
            )
        entry["scales"][str(scale)] = block

    print("identity: replaying the seeded fleet on every engine mode...")
    entry["identity"] = run_identity_block()
    print(
        f"  {len(entry['identity']['modes'])} modes, "
        f"{entry['identity']['records']} canonical records: "
        f"{'identical' if entry['identity']['identical'] else 'MISMATCH'}"
    )
    assert entry["identity"]["identical"], entry["identity"]["mismatches"]
    return entry


def build_run_report() -> dict:
    """A telemetry-instrumented RunReport over the small identity fleet.

    Exported with ``--report`` so the CI artifact carries the full metric
    registry, segment statistics and wall-phase breakdown alongside the
    sweep numbers.  The measured sweep itself always runs telemetry-off.
    """
    run = run_scenario(
        SCENARIO, params=IDENTITY_PARAMS, shards=4, telemetry=True
    )
    traffic = install_traffic(run)
    run.warm_up()
    run.sim.run_until(traffic.horizon)
    return run.report(latency_ns=traffic.service_rtts()).to_dict()


def record_entry(entry: dict) -> None:
    history = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text())
    # The RunReport is a CI artifact payload, not a tracked benchmark
    # metric — keep it out of the append-only history.
    entry = {k: v for k, v in entry.items() if k != "run_report"}
    history.append({"population": entry})
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
    print(f"recorded entry {len(history)} in {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--measure-one", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--config", help=argparse.SUPPRESS)
    parser.add_argument(
        "--stations",
        type=int,
        action="append",
        choices=sorted(SCALES),
        help="restrict the sweep to the given scale(s); repeatable",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="do not append the entry to BENCH_trace.json",
    )
    parser.add_argument(
        "--report",
        type=Path,
        help="also write the entry JSON to this path (CI artifact)",
    )
    args = parser.parse_args(argv)

    if args.measure_one:
        json.dump(measure_one(args.scale, args.config), sys.stdout)
        return 0

    scales = args.stations or sorted(SCALES)
    entry = run_sweep(scales)
    if args.report:
        entry["run_report"] = build_run_report()
        args.report.write_text(json.dumps(entry, indent=2) + "\n")
        print(f"report written to {args.report}")
    if not args.no_record:
        record_entry(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
