"""CI performance gate over ``BENCH_trace.json``.

The benchmarks append one entry per run to ``BENCH_trace.json`` (the
repository commits a baseline history; CI appends fresh entries).  Entries
come from *different* workloads — the trace-overhead micro-benchmark and the
sharded-fabric ring sweeps — so the gate pairs each tracked metric with its
own history: for every metric name it takes the **newest** value and compares
it with that metric's **previous** occurrence, failing when any throughput —
emit records/second per sink, frame-blast frames/second per sink,
sharded-fabric frames/records per second per engine configuration (the
single engine and relaxed shards, 64- and 256-LAN rings), population-fleet
frames/second per engine configuration and station count, or a
relaxed-over-single ratio — regresses by more than the threshold (default
20 %).

On top of the regression pairing, the gate holds **event counts exactly**:
the single engine's and each relaxed configuration's ``events_dispatched``
in the sharded-fabric sweeps (64 and 256 LANs) and the failover episode are
deterministic, and the wire lanes are what keep them low, so a count that
rises over its previous occurrence fails at any threshold (see
:func:`compare_counts`).  A change that raises a count on purpose commits a
fresh benchmark entry, which re-baselines it, and says why.

**Wall-clock and CPU-time metrics are distinct families and are never paired
against each other.**  The CPU-time families above (``records/s`` rates from
``time.process_time``) measure engine mechanics independent of scheduling;
the wall-clock family (``fabric/wall-speedup/...``, from the fabric
benchmark's wall sweep) measures real elapsed-time parallelism of the
relaxed thread and process backends.  The separation is structural: wall
metrics live under disjoint names, so the newest-vs-previous pairing can
only ever compare wall against wall.  The wall family additionally holds an
absolute floor — the **process backend at shards=4 must reach at least 1.0x
the single engine's wall clock** (``WALL_FLOOR``).  Entries produced on
runners with fewer than four CPU cores record the sweep as skipped and emit
no wall metrics, so the floor and pairing simply do not engage there.

Run after the benchmarks::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --frames 20000 --skip-bounded
    PYTHONPATH=src python benchmarks/bench_sharded_fabric.py --frames 200
    python benchmarks/perf_gate.py --threshold 0.20

The gate is pure stdlib (no simulator import): it only reads the JSON file.

Caveat: the committed baseline may come from different hardware than the CI
runner, so absolute throughput can shift for reasons unrelated to the code.
The 20 % default absorbs normal runner variance; if a slow runner class trips
the gate spuriously, refresh the committed baseline from CI's own artifact
(or raise ``--threshold``) rather than chasing phantom regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"

#: The wall-sweep configuration held to an absolute floor, and the floor:
#: relaxed-process at shards=4 must not be slower than the single engine in
#: wall-clock terms on any runner that can measure it (>= 4 CPU cores).
WALL_FLOOR_CONFIG = "shards=4/process"
WALL_FLOOR = 1.0


def _wall_block(workload: dict):
    """The workload's wall sweep, or None when absent or skipped (<4 cores)."""
    wall = workload.get("wall")
    if not isinstance(wall, dict) or wall.get("skipped"):
        return None
    return wall


def collect_floors(entry: dict) -> dict:
    """Floor-checked ratios in one entry: {name: (ratio, floor)}.

    The one floor is the wall sweep's: the process backend at shards=4
    against the single engine's wall clock, in each fabric sweep.
    """
    floors = {}
    for family in ("sharded_fabric", "sharded_fabric_256"):
        workload = entry.get(family)
        if not isinstance(workload, dict):
            continue
        wall = _wall_block(workload)
        if wall is not None:
            wall_speedup = (wall.get("speedups") or {}).get(WALL_FLOOR_CONFIG)
            if wall_speedup is not None:
                floors[f"floor/{family} wall {WALL_FLOOR_CONFIG}"] = (
                    float(wall_speedup),
                    WALL_FLOOR,
                )
    return floors


def check_floors(history: list) -> list:
    """Return [(name, ratio, floor, ok)] per floor family.

    A floor passes when the **best of the two newest occurrences** meets it.
    The ratio is a point estimate from a ~1-second paired sweep, so any
    single sample carries a few percent of scheduler/frequency noise; with
    the committed baseline entry and CI's fresh run both in the history, a
    genuine regression shows up in both while an unlucky sample does not.
    Sustained drift is additionally caught by the regression pairing, which
    tracks every wall-speedup ratio against its previous occurrence at the
    default 20 % threshold.
    """
    occurrences: dict = {}
    for entry in history:
        for name, (ratio, floor) in collect_floors(entry).items():
            occurrences.setdefault(name, []).append((ratio, floor))
    rows = []
    for name in sorted(occurrences):
        newest_two = occurrences[name][-2:]
        floor = newest_two[-1][1]
        best = max(ratio for ratio, _ in newest_two)
        rows.append((name, best, floor, best >= floor))
    return rows


def collect_metrics(entry: dict) -> dict:
    """Flatten one benchmark entry into {metric name: value} for comparison.

    Workload-sized metrics carry their size in the key (``@frames``,
    ``@segments x frames``) so a run at a reduced size is never ratioed
    against a full-size baseline — comparisons stay like-for-like.  (The emit
    micro-benchmark always uses the same fixed record count, so its metrics
    carry no size key.)
    """
    metrics = {}
    for sink, rate in (entry.get("emit_records_per_second") or {}).items():
        metrics[f"emit/{sink} records/s"] = float(rate)
    for sink, blast in (entry.get("frame_blast") or {}).items():
        rate = blast.get("frames_per_second")
        if rate is not None:
            frames = blast.get("frames", "?")
            metrics[f"blast/{sink}@{frames} frames/s"] = float(rate)
    # Telemetry overhead (``bench_trace_overhead.py``): the frame blast
    # replayed with the metrics registry enabled.  Both absolute rates and
    # the within-entry on/off ratio are gated — the ratio catches a
    # regression in the instrumented path even on a noisy runner.
    telemetry = entry.get("telemetry_overhead")
    if isinstance(telemetry, dict):
        frames = telemetry.get("frames", "?")
        for mode in ("off", "on"):
            rate = telemetry.get(f"{mode}_frames_per_second")
            if rate is not None:
                metrics[f"telemetry/{mode}@{frames} frames/s"] = float(rate)
        ratio = telemetry.get("on_off_ratio")
        if ratio is not None:
            metrics[f"telemetry/on-off-ratio@{frames} x"] = float(ratio)
    # One block per ring size (``sharded_fabric`` = 64 LANs,
    # ``sharded_fabric_256`` = 256 LANs); the size lives in the metric name
    # so different sweeps never ratio against each other.  Older entries
    # also hold a ``threaded`` sub-result, from relaxed windows on worker
    # threads, which were removed, and a ``relaxed_speedup`` ratio over the
    # strict fabric, which was removed too; neither is collected, and both
    # stay history.  The relaxed-over-single ratio has its own name, so it
    # never pairs against relaxed-over-strict values.
    for key, fabric in entry.items():
        if not key.startswith("sharded_fabric") or not isinstance(fabric, dict):
            continue
        size = f"{fabric.get('segments', '?')}x{fabric.get('frames_per_pair', '?')}"
        for config, result in (fabric.get("configs") or {}).items():
            blast = result.get("blast") or {}
            for unit in ("frames", "records"):
                rate = blast.get(f"{unit}_per_second")
                if rate is not None:
                    metrics[f"fabric/{config}@{size} {unit}/s"] = float(rate)
        ratio = fabric.get("relaxed_over_single")
        if ratio is not None:
            metrics[f"fabric/relaxed-over-single@{size} x"] = float(ratio)
        # The wall sweep is its own metric family (elapsed time, not CPU
        # time); only the within-entry speedup ratios are gated — absolute
        # wall seconds are runner-dependent noise.  A skipped sweep
        # (< 4 cores) emits nothing.
        wall = _wall_block(fabric)
        if wall is not None:
            wall_size = (
                f"{wall.get('segments', fabric.get('segments', '?'))}"
                f"x{wall.get('frames_per_pair', '?')}"
            )
            for config, value in (wall.get("speedups") or {}).items():
                metrics[f"fabric/wall-speedup/{config}@{wall_size} x"] = float(value)
    # Failover episodes (``bench_failover.py``): only the execution
    # throughput is gated — the simulated convergence figures recorded next
    # to it are *results*, pinned by the test suite, not performance.
    # The size key carries the offered load when present (``8b/2h`` = 8
    # bridges, 2 local hosts per segment) so a loaded episode never ratios
    # against an unloaded baseline.
    failover = entry.get("failover")
    if isinstance(failover, dict):
        size = _failover_size(failover)
        for config, result in (failover.get("configs") or {}).items():
            rate = result.get("records_per_second")
            if rate is not None:
                metrics[f"failover/{config}@{size} records/s"] = float(rate)
        ratio = failover.get("relaxed_over_single")
        if ratio is not None:
            metrics[f"failover/relaxed-over-single@{size} x"] = float(ratio)
    # Population fleets (``bench_population.py``): aggregate frames/s per
    # engine configuration, sized by station count so a reduced CI smoke
    # never ratios against a full-scale baseline.  The latency and RSS
    # figures recorded next to the rates are simulated results / capacity
    # numbers pinned by the seed, not performance, and are not gated.
    population = entry.get("population")
    if isinstance(population, dict):
        for scale, block in (population.get("scales") or {}).items():
            size = f"{block.get('stations', scale)}st"
            for config, result in (block.get("configs") or {}).items():
                rate = result.get("frames_per_second")
                if rate is not None:
                    metrics[f"population/{config}@{size} frames/s"] = float(rate)
            ratio = block.get("relaxed_over_single")
            if ratio is not None:
                metrics[f"population/relaxed-over-single@{size} x"] = float(ratio)
    return metrics


def _failover_size(failover: dict) -> str:
    size = f"{failover.get('bridges', '?')}b"
    local_hosts = failover.get("local_hosts")
    return f"{size}/{local_hosts}h" if local_hosts else size


def collect_counts(entry: dict) -> dict:
    """Flatten one entry's exactly-gated event counts into {name: count}.

    One count per engine configuration, the single engine (``shards=1``)
    and each relaxed one (a config key ending in ``/relaxed``): the
    sharded-fabric sweeps' and the failover episode's ``events_dispatched``,
    sized like the rate metrics.
    """
    blocks = []
    for key, fabric in entry.items():
        if key.startswith("sharded_fabric") and isinstance(fabric, dict):
            size = f"{fabric.get('segments', '?')}x{fabric.get('frames_per_pair', '?')}"
            blocks.append(("fabric", size, fabric))
    failover = entry.get("failover")
    if isinstance(failover, dict):
        blocks.append(("failover", _failover_size(failover), failover))
    counts = {}
    for family, size, block in blocks:
        for config, result in (block.get("configs") or {}).items():
            events = result.get("events_dispatched")
            gated = config == "shards=1" or config.endswith("/relaxed")
            if gated and events is not None:
                counts[f"{family}/{config}@{size} events"] = int(events)
    return counts


def pair_metrics(history: list, collect=None) -> dict:
    """Pair every *fresh* metric's newest value with its previous occurrence.

    Walks the whole history so entries of different kinds interleave freely:
    each metric is compared against the last *earlier* entry that carried it.
    Only metrics produced by the freshest runs — the last two entries, which
    is what one CI run appends (trace-overhead + sharded-fabric) — are gated;
    a retired metric whose occurrences are all historical is skipped rather
    than compared against two frozen committed values forever.

    ``collect`` flattens one entry (default :func:`collect_metrics`).

    Returns:
        {metric name: (baseline value, fresh value)}; metrics seen only once
        or only in older entries are omitted.
    """
    collect = collect or collect_metrics
    newest: dict = {}
    previous: dict = {}
    for entry in history:
        for name, value in collect(entry).items():
            if name in newest:
                previous[name] = newest[name]
            newest[name] = value
    fresh_names = set()
    for entry in history[-2:]:
        fresh_names.update(collect(entry))
    return {
        name: (previous[name], newest[name])
        for name in newest
        if name in previous and name in fresh_names
    }


def compare(history: list, threshold: float) -> list:
    """Return [(metric, base, new, ratio, ok)] for every paired metric."""
    pairs = pair_metrics(history)
    single = sorted(
        {
            name
            for entry in history
            for name in collect_metrics(entry)
            if name not in pairs
        }
    )
    if single:
        print("perf gate: metrics without a fresh+baseline pair (not gated):")
        for name in single:
            print(f"  ?    {name}")
    rows = []
    for name in sorted(pairs):
        base, new = pairs[name]
        ratio = new / base if base > 0 else float("inf")
        rows.append((name, base, new, ratio, ratio >= 1.0 - threshold))
    return rows


def compare_counts(history: list) -> list:
    """Return [(count, base, new, ok)] for every paired event count.

    Counts are deterministic, so they pair exactly: a count that rose over
    its previous occurrence fails, whatever the threshold.
    """
    pairs = pair_metrics(history, collect_counts)
    return [
        (name, base, new, new <= base) for name, (base, new) in sorted(pairs.items())
    ]


def _show(value: float) -> str:
    """A rate with thousands separators, a ratio (below 100) with two decimals."""
    return f"{value:,.0f}" if value >= 100 else f"{value:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional regression (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=RESULTS_PATH,
        help="path to the benchmark history JSON",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error("--threshold must be in (0, 1)")

    try:
        history = json.loads(args.results.read_text())
    except (OSError, ValueError) as exc:
        print(f"perf gate: cannot read {args.results}: {exc}")
        return 1
    if not isinstance(history, list) or not history:
        print(f"perf gate: {args.results} holds no benchmark entries")
        return 1
    if len(history) < 2:
        print("perf gate: no committed baseline to compare against; passing")
        return 0

    rows = compare(history, args.threshold)
    count_rows = compare_counts(history)
    floor_rows = check_floors(history)
    if not rows and not count_rows and not floor_rows:
        print("perf gate: no metric has both a fresh and a baseline value; passing")
        return 0

    failed = []
    if rows:
        width = max(len(name) for name, *_ in rows)
        print(
            f"perf gate: newest value of each metric vs its previous occurrence "
            f"({len(history)} entries), threshold -{args.threshold:.0%}"
        )
        for name, base, new, ratio, ok in rows:
            marker = "ok  " if ok else "FAIL"
            print(
                f"  {marker} {name:<{width}}  {_show(base):>12} -> {_show(new):>12}"
                f"  ({ratio:6.2%})"
            )
            if not ok:
                failed.append(name)
    if count_rows:
        width = max(len(name) for name, *_ in count_rows)
        print("perf gate: event counts, exact (a rise over the previous occurrence fails)")
        for name, base, new, ok in count_rows:
            marker = "ok  " if ok else "FAIL"
            print(f"  {marker} {name:<{width}}  {base:>12,} -> {new:>12,}")
            if not ok:
                failed.append(name)
    if floor_rows:
        width = max(len(name) for name, *_ in floor_rows)
        print(
            "perf gate: wall-clock ratio floors "
            "(best of the two newest occurrences per workload)"
        )
        for name, ratio, floor, ok in floor_rows:
            marker = "ok  " if ok else "FAIL"
            print(f"  {marker} {name:<{width}}  {ratio:5.2f}x (floor {floor:.1f}x)")
            if not ok:
                failed.append(name)
    if failed:
        print(f"perf gate: {len(failed)} metric(s) regressed, rose or under floor:")
        for name in failed:
            print(f"  - {name}")
        return 1
    print(f"perf gate: all {len(rows) + len(count_rows) + len(floor_rows)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
