"""Failover benchmark: spanning-tree reconvergence on the closed bridge ring.

Drives the ``ring/failover`` catalog scenario — a physical loop of active
bridges running the IEEE 802.1D spanning tree with the standard 2/20/15 s
timers — through a complete failure episode: warm-up to a converged tree, a
scripted ``link-down`` on a forwarding segment (the :mod:`repro.faults`
subsystem), a ping train crossing the outage, and the reconvergence measured
externally by the :class:`~repro.measurement.convergence.ConvergenceProbe`:

* **detection time** — max-age expiry on the bridges that lose the root's
  hellos (~``max_age`` after the failure);
* **reconvergence time** — the blocked port walking listening → learning →
  forwarding (two forward delays more), after which traffic reroutes the
  long way around the ring;
* **frames lost** — everything the dead segment swallowed meanwhile.

The episode runs *under offered load*: every ring segment carries a local
host pair exchanging pings throughout (see ``LOCAL_HOSTS``), because the
paper's failover story is about traffic that keeps flowing — and because a
control-plane-only episode measures nothing but the conservative
scheduler's worst case (one long cross-shard BPDU/echo chain with empty
windows).

Each engine configuration (the single engine and relaxed shards) replays
the *same* fault timeline; the benchmark asserts the live counters and the
convergence report are identical across configurations before reporting —
the fault subsystem's engine-mode-invariance contract, enforced at
benchmark time exactly as the sharded-fabric sweeps do.

The committed ``BENCH_trace.json`` entry records the simulated convergence
figures plus each configuration's trace-records-per-CPU-second execution
rate, its ``events_dispatched`` and the ``relaxed_over_single`` ratio
(median of per-round relaxed/single pairings); ``perf_gate.py`` tracks the
``failover/*`` records/s metrics and the ratio against their previous
occurrences and holds each configuration's event count exactly (the
convergence times are *results*, pinned by tests, not throughput — they are
recorded but not gated).

Run directly::

    PYTHONPATH=src python benchmarks/bench_failover.py [--bridges N]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import time
from pathlib import Path

from repro.measurement.convergence import ConvergenceProbe
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"

#: Shard counts measured: the single engine and the relaxed fabric.
CONFIGS = (1, 4)

#: Standard 802.1D timers — the paper's timescales.
TIMERS = {"hello_time": 2.0, "max_age": 20.0, "forward_delay": 15.0}

#: When the scripted link failure fires — 5 s after the tree is ready
#: (ready_time is 35 s with the standard timers), so the ping train records
#: a healthy pre-fault baseline before the outage.
FAIL_AT = 40.0

#: Ping cadence across the outage (one echo per quarter second).
PING_INTERVAL = 0.25

#: Offered load riding the episode: every ring segment carries one local
#: host pair exchanging pings for the whole run.  The paper measures
#: failover on a *loaded* network — reconvergence matters because traffic
#: is flowing — and a control-plane-only episode (hellos plus one echo
#: train) degenerates into the conservative scheduler's worst case: long
#: cross-shard causal chains with nothing else in each window.  The local
#: pairs give every shard wire service to batch between BPDU hops, which
#: is the traffic mix the express/batched machinery exists for.
LOCAL_HOSTS = 2
LOCAL_INTERVAL = 0.5
LOCAL_PAYLOAD = 512


def config_key(shards: int) -> str:
    return "shards=1" if shards == 1 else f"shards={shards}/relaxed"


#: Episode repetitions per configuration; the fastest CPU time is kept, the
#: same hygiene as ``bench_sharded_fabric.wire_blast`` — a single ~0.1 s
#: sample would hand the 20 % perf gate to scheduler noise.  Passes are
#: *interleaved* across configurations (round-robin, not per-config blocks)
#: so CPU frequency drift over the run hits every configuration equally —
#: the relaxed-over-single ratio would otherwise be at the mercy of which
#: configuration happened to run during a fast window.
PASSES = 7


def run_episode(bridges: int, shards: int) -> dict:
    """One full failure episode on one engine configuration."""
    run = run_scenario(
        "ring/failover",
        params={"n_bridges": bridges, "fail_at": FAIL_AT, "recover_at": 0.0,
                "hosts_per_segment": LOCAL_HOSTS, **TIMERS},
        shards=shards,
    )
    # Ride through warm-up, outage, detection (max_age) and both forward
    # delays, plus settle margin.
    horizon = FAIL_AT + TIMERS["max_age"] + 2 * TIMERS["forward_delay"] + 5.0
    count = int((horizon - run.ready_time) / PING_INTERVAL) - 4
    local_count = int((horizon - 2.0) / LOCAL_INTERVAL)
    gc.collect()
    gc.disable()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    # Background load from t=1s: pre-convergence the non-forwarding bridge
    # ports drop the local exchanges (listening/learning states), so the
    # pairs season the warm-up too without ever flooding the open loop.
    load = [
        PingRunner(
            run.sim, run.host(f"seg{index}h1"), run.host(f"seg{index}h2").ip,
            payload_size=LOCAL_PAYLOAD, count=local_count,
            interval=LOCAL_INTERVAL, identifier=0xB000 + index,
        )
        for index in range(bridges)
    ]
    for runner in load:
        runner.start(1.0)
    run.warm_up()
    probe = ConvergenceProbe(run.sim, network=run.network, fault_time=FAIL_AT)
    probe.start()
    ping = PingRunner(
        run.sim, run.host("left"), run.host("right").ip,
        payload_size=64, count=count, interval=PING_INTERVAL, identifier=0xFA11,
    )
    ping.start(run.sim.now + 0.01)
    run.sim.run_until(horizon)
    cpu_elapsed = time.process_time() - cpu_start
    wall_elapsed = time.perf_counter() - wall_start
    gc.enable()
    report = probe.report()
    records = len(run.sim.trace)
    return {
        "shards": shards,
        "mode": "relaxed" if shards > 1 else "single",
        "records": records,
        "seconds_cpu": round(cpu_elapsed, 3),
        "seconds_wall": round(wall_elapsed, 3),
        "records_per_second": round(records / cpu_elapsed) if cpu_elapsed else 0,
        "events_dispatched": run.sim.events_dispatched,
        "convergence": report.summary(),
        "ping": {"sent": ping.result.sent, "received": ping.result.received},
        "load": {
            "pairs": len(load),
            "sent": sum(runner.result.sent for runner in load),
            "received": sum(runner.result.received for runner in load),
        },
        "counters": dict(run.sim.trace.counters.by_category_source),
    }


def run_sweep(bridges: int) -> dict:
    # Round-robin the passes (see PASSES) and keep each configuration's
    # fastest sample; every pass of every configuration must reproduce the
    # same counters and convergence report — the episode is deterministic,
    # only the timing varies.
    results: dict = {}
    round_rates: dict = {}
    baseline_counters = None
    baseline_convergence = None
    for _ in range(PASSES):
        for shards in CONFIGS:
            sample = run_episode(bridges, shards)
            counters = sample.pop("counters")
            if baseline_counters is None:
                baseline_counters = counters
                baseline_convergence = sample["convergence"]
            else:
                # Same timeline, same episode, every engine mode: the fault
                # subsystem's invariance contract, asserted before reporting.
                assert counters == baseline_counters, (
                    f"shards={shards} diverged from the single engine"
                )
                assert sample["convergence"] == baseline_convergence, (
                    f"shards={shards} convergence report diverged"
                )
            key = config_key(shards)
            round_rates.setdefault(key, []).append(sample["records_per_second"])
            best = results.get(key)
            if best is None or sample["records_per_second"] > best["records_per_second"]:
                results[key] = sample
    for shards in CONFIGS:
        key = config_key(shards)
        result = results[key]
        conv = result["convergence"]
        print(
            f"{bridges}-bridge ring {key}: detection {conv['detection_s']:.1f}s, "
            f"reconvergence {conv['reconvergence_s']:.1f}s, "
            f"{conv['frames_lost']} frames lost; "
            f"{result['records']} records in {result['seconds_cpu']:.2f} cpu-s "
            f"= {result['records_per_second']:,} records/s"
        )
    sweep = {
        "bridges": bridges,
        "fail_at": FAIL_AT,
        "timers": TIMERS,
        "local_hosts": LOCAL_HOSTS,
        "local_interval": LOCAL_INTERVAL,
        "detection_s": baseline_convergence["detection_s"],
        "reconvergence_s": baseline_convergence["reconvergence_s"],
        "frames_lost": baseline_convergence["frames_lost"],
        "configs": results,
    }
    # Headline ratio, mirroring bench_sharded_fabric: relaxed over the
    # single engine's records/s.  The ratio pairs samples *per round*
    # (adjacent in time, so CPU frequency drift hits both sides of each
    # ratio equally) and takes the median across rounds: the ratio of
    # per-config bests would compare samples from different frequency
    # windows and swing wildly on frequency-scaled machines.
    single_rates = round_rates[config_key(1)]
    relaxed_key = config_key(CONFIGS[-1])
    ratios = sorted(
        relaxed / single
        for relaxed, single in zip(round_rates[relaxed_key], single_rates)
    )
    ratio = ratios[len(ratios) // 2]
    sweep["relaxed_over_single"] = round(ratio, 2)
    print(
        f"{bridges}-bridge ring: {relaxed_key} runs {ratio:.2f}x the single "
        f"engine's records/s (median of per-round ratios) with "
        f"{results[relaxed_key]['events_dispatched']:,} events"
    )
    return sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bridges", type=int, default=8,
        help="ring size (bridges = LAN segments in the loop)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="print results without touching BENCH_trace.json",
    )
    args = parser.parse_args()
    if args.bridges < 3:
        parser.error("--bridges must be at least 3")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "failover": run_sweep(args.bridges),
    }
    if args.no_append:
        return
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
