"""Property-based scenario fuzzing: the invariance contract as a bug hunter.

Every case draws a random topology (one of the ``gen/*`` generators with
seeded parameters), a random fault timeline, and a random engine
configuration (shard count, and whether to run the process backend too),
then asserts the engine-mode invariance oracle:

* **interchange** — the spec survives a YAML (or JSON) round-trip exactly,
  and the reference run is driven *from the round-tripped spec*, so every
  case is also a serialization bit-identity proof;
* **relaxed** — the sharded fabric's canonical records
  (``canonical_records()``) are bit-identical to the single engine's, the
  one reference, *except* when the reference trace contains a same-instant
  multi-sender wire tie: the canonical contract deliberately refuses to
  order same-instant cross-source effects ("commuting effects only"), so a
  divergence at or after the first tie instant is recorded as
  ``tie-excused`` rather than a failure.  Divergence *before* any tie is a
  real bug.  Tie instants are a deterministic function of the case, so runs
  are reproducible — never flaky;
* **process** — the process backend must be bit-identical to in-process
  relaxed execution (the documented determinism contract), ties or no ties,
  must run the same plan — its ``relaxed_stats`` (windows, mail) and
  ``shard_stats()`` equal the in-process run's — and must report the same:
  its ``run.report().metrics`` (events per ring, every segment family)
  equal the in-process run's.

A failing case is shrunk greedily — faults, hosts, devices, then whole
segments (with cascade) are dropped while the failure reproduces — and the
minimal case is written as a committed-ready interchange document (spec +
pinned partition + run metadata) for a regression suite.

Usage::

    PYTHONPATH=src python tools/fuzz_scenarios.py --cases 50 --seed 2026
    PYTHONPATH=src python tools/fuzz_scenarios.py --budget 60 --seed 20260807 --out fuzz-failures

Exits non-zero on the first real failure, after dumping the shrunk
reproducer.  ``tests/test_scenario_fuzz.py`` drives the same entry points in
the regular test lane and proves the harness catches (and shrinks) an
injected determinism bug via the ``mutate`` hook.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.spec import FaultSpec  # noqa: E402
from repro.measurement.ping import PingRunner  # noqa: E402
from repro.scenario import (  # noqa: E402
    FUZZ_PARAM_SPACE,
    GENERATORS,
    PartitionSpec,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.scenario import interchange  # noqa: E402

#: Wire format for reproducers: YAML when available, JSON otherwise.
FMT = "yaml" if interchange.yaml is not None else "json"

#: Record streams a mutation hook can intercept, in oracle order.
MODES = ("reference", "relaxed", "process")

#: A mutation hook: ``(mode, records) -> records``.  The oracle passes every
#: record stream through it before comparing; tests inject determinism bugs
#: (drop or perturb a record in one mode) to prove the harness catches them.
Mutator = Callable[[str, List[object]], List[object]]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzCase:
    """One drawn (topology x faults x engine config) point.

    ``spec`` is always materialized (faults attached); ``generator`` and
    ``params`` are provenance for logs and reproducer metadata.
    """

    case_id: int
    generator: str
    params: Mapping[str, int]
    spec: ScenarioSpec
    shards: int
    check_process: bool


@dataclass
class CaseResult:
    """The oracle's verdict on one case."""

    case: FuzzCase
    status: str  # "exact" | "tie-excused" | "failed"
    failing_mode: Optional[str] = None
    detail: str = ""
    divergence_time: Optional[float] = None
    tie_horizon: Optional[float] = None
    records: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def describe(self) -> str:
        case = self.case
        proc = " +process" if case.check_process else ""
        head = (
            f"case {case.case_id}: {case.generator or 'literal'} "
            f"{dict(case.params)} faults={len(case.spec.faults)} "
            f"shards={case.shards}{proc} -> {self.status}"
        )
        if self.status == "tie-excused":
            head += f" (tie horizon t={self.tie_horizon:g}s)"
        if self.status == "failed":
            head += f" [{self.failing_mode}] {self.detail}"
        return head


def _fault_window(rng: random.Random, ready: float) -> float:
    """A fault instant on the 1 ms grid, between mid-convergence and
    shortly after the scenario is ready (so every drawn fault fires within
    the driven horizon)."""
    return round(0.4 * ready + rng.random() * (0.6 * ready + 0.4), 3)


def _draw_faults(rng: random.Random, spec: ScenarioSpec) -> Tuple[FaultSpec, ...]:
    """0..2 fault episodes against ``spec``'s own component names."""
    segments = [segment.name for segment in spec.segments]
    devices = [device for device in spec.devices if device.ports]
    faults: List[FaultSpec] = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        kind = rng.choice(("link-flap", "frame-loss", "degrade", "port-flap",
                           "node-bounce"))
        at = _fault_window(rng, spec.ready_time)
        back = round(at + 0.1 + 0.2 * rng.random(), 3)
        if kind == "link-flap":
            target = rng.choice(segments)
            faults.append(FaultSpec("link-down", at, target))
            faults.append(FaultSpec("link-up", back, target))
        elif kind == "frame-loss":
            faults.append(FaultSpec(
                "frame-loss", at, rng.choice(segments),
                rate=round(rng.uniform(0.05, 0.35), 2),
                seed=rng.randrange(1 << 16),
            ))
        elif kind == "degrade":
            faults.append(FaultSpec(
                "degrade", at, rng.choice(segments),
                bandwidth_scale=round(rng.uniform(0.5, 0.9), 2),
                extra_delay=rng.randrange(0, 2000) * 1e-9,
            ))
        elif kind == "port-flap" and devices:
            device = rng.choice(devices)
            port = rng.choice(device.ports).name
            faults.append(FaultSpec("port-down", at, device.name, port=port))
            faults.append(FaultSpec("port-up", back, device.name, port=port))
        elif kind == "node-bounce" and devices:
            device = rng.choice(devices)
            faults.append(FaultSpec("node-crash", at, device.name))
            faults.append(FaultSpec("node-restart", back, device.name))
    return tuple(sorted(faults, key=lambda fault: (fault.at, fault.kind)))


def draw_case(master_seed: int, case_id: int) -> FuzzCase:
    """Deterministically draw case ``case_id`` of the ``master_seed`` stream."""
    rng = random.Random(f"fuzz:{master_seed}:{case_id}")
    generator = rng.choice(GENERATORS)
    params: Dict[str, int] = {
        name: rng.randint(low, high)
        for name, (low, high) in FUZZ_PARAM_SPACE[generator].items()
    }
    params["seed"] = rng.randrange(1 << 16)
    spec = get_scenario(generator, **params)
    faults = _draw_faults(rng, spec)
    if faults:
        spec = replace(spec, faults=faults)
    return FuzzCase(
        case_id=case_id,
        generator=generator,
        params=params,
        spec=spec,
        shards=rng.randint(2, 4),
        check_process=rng.random() < 0.125,
    )


# ---------------------------------------------------------------------------
# Driving and the oracle
# ---------------------------------------------------------------------------


def _drive(spec: ScenarioSpec, shards: int = 1, backend: str = "thread"):
    """The fixed fuzz workload: warm up, ping end-to-end, run out the faults."""
    run = run_scenario(spec, shards=shards, backend=backend)
    run.warm_up()
    hosts = run.hosts
    if len(hosts) >= 2:
        PingRunner(run.sim, hosts[0], hosts[-1].ip, payload_size=64, count=2,
                   interval=0.05).run(start_time=run.sim.now)
    horizon = max([spec.ready_time] + [fault.at for fault in spec.faults]) + 0.5
    if run.sim.now < horizon:
        run.sim.run_until(horizon)
    return run


def _record_key(record) -> tuple:
    return (record.time, record.source, record.category, repr(record.detail))


def find_tie_times(records: Sequence[object]) -> List[float]:
    """Instants at which two *different* senders enqueue onto one segment.

    These are exactly the same-instant cross-source wire ties the
    canonical-merge contract scopes out; everything before the first one is
    promised bit-identical under relaxed execution.
    """
    groups = defaultdict(set)
    for record in records:
        if record.category == "segment.enqueue":
            groups[(record.source, record.time)].add(record.detail.get("sender"))
    return sorted(at for (_, at), senders in groups.items() if len(senders) > 1)


def first_divergence_time(
    left: Sequence[object], right: Sequence[object]
) -> Optional[float]:
    """Time of the first record at which the streams disagree (None if equal)."""
    for a, b in zip(left, right):
        if _record_key(a) != _record_key(b):
            return min(a.time, b.time)
    if len(left) != len(right):
        longer = left if len(left) > len(right) else right
        return longer[min(len(left), len(right))].time
    return None


def _identity(_mode: str, records: List[object]) -> List[object]:
    return records


def _plan_stats(run) -> dict:
    """What a run's window plan left behind, and what its report reads."""
    stats = {"relaxed_stats": run.sim.relaxed_stats}
    for index, shard in enumerate(run.sim.shard_stats()):
        stats.update({f"shard {index} {key}": value for key, value in shard.items()})
    for samples in run.report().metrics.values():
        stats.update(samples)
    return stats


def run_case(case: FuzzCase, mutate: Optional[Mutator] = None) -> CaseResult:
    """Run every engine mode of ``case`` and compare under the oracle."""
    mutate = mutate or _identity
    spec = case.spec

    # Interchange round trip; the reference run is driven from the
    # round-tripped spec, so serialization is on the oracle path.
    loaded = interchange.load_scenario(
        interchange.dump_scenario(spec, fmt=FMT), fmt=FMT
    ).spec
    if loaded != spec:
        return CaseResult(case, "failed", failing_mode="interchange",
                          detail=f"{FMT} round trip is not lossless")

    reference = _drive(loaded, 1)
    ref_records = mutate("reference", reference.sim.trace.canonical_records())
    ties = find_tie_times(ref_records)
    horizon = ties[0] if ties else None

    relaxed = _drive(loaded, case.shards)
    relaxed_canonical = mutate("relaxed", relaxed.sim.trace.canonical_records())
    status = "exact"
    divergence = None
    if relaxed_canonical != ref_records:
        divergence = first_divergence_time(ref_records, relaxed_canonical)
        if horizon is None or divergence is None or divergence < horizon:
            return CaseResult(
                case, "failed", failing_mode="relaxed",
                detail="the fabric diverged from the single engine before "
                       "any wire tie",
                divergence_time=divergence, tie_horizon=horizon,
                records=len(ref_records),
            )
        status = "tie-excused"

    if case.check_process:
        process = _drive(loaded, case.shards, backend="process")
        process_canonical = mutate("process", process.sim.trace.canonical_records())
        if process_canonical != relaxed_canonical:
            return CaseResult(
                case, "failed", failing_mode="process",
                detail="process backend diverged from in-process relaxed",
                divergence_time=first_divergence_time(
                    relaxed_canonical, process_canonical
                ),
                tie_horizon=horizon, records=len(ref_records),
            )
        process_stats, relaxed_stats = _plan_stats(process), _plan_stats(relaxed)
        if process_stats != relaxed_stats:
            differing = {
                key: (process_stats.get(key), relaxed_stats.get(key))
                for key in sorted(set(process_stats) | set(relaxed_stats))
                if process_stats.get(key) != relaxed_stats.get(key)
            }
            return CaseResult(
                case, "failed", failing_mode="process",
                detail="process backend ran a different plan or report from "
                       f"in-process relaxed (process, relaxed): {differing}",
                tie_horizon=horizon, records=len(ref_records),
            )

    return CaseResult(case, status, divergence_time=divergence,
                      tie_horizon=horizon, records=len(ref_records))


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _without_segment(spec: ScenarioSpec, name: str) -> ScenarioSpec:
    """Drop ``name`` and cascade: its hosts, ports on it, now-portless
    devices, and faults aimed at anything removed."""
    devices = []
    removed_stations = set()
    for device in spec.devices:
        ports = tuple(port for port in device.ports if port.segment != name)
        if ports:
            devices.append(replace(device, ports=ports))
        else:
            removed_stations.add(device.name)
    hosts = tuple(host for host in spec.hosts if host.segment != name)
    removed_stations.update(
        host.name for host in spec.hosts if host.segment == name
    )
    kept_ports = {
        (device.name, port.name) for device in devices for port in device.ports
    }
    faults = tuple(
        fault for fault in spec.faults
        if fault.target != name
        and fault.target not in removed_stations
        and (fault.port is None or (fault.target, fault.port) in kept_ports)
    )
    return replace(
        spec,
        segments=tuple(s for s in spec.segments if s.name != name),
        hosts=hosts,
        devices=tuple(devices),
        faults=faults,
    )


def _spec_reductions(spec: ScenarioSpec):
    """Candidate one-step reductions, cheapest-to-try first."""
    for index in range(len(spec.faults)):
        yield replace(
            spec, faults=spec.faults[:index] + spec.faults[index + 1:]
        )
    for host in spec.hosts:
        yield replace(
            spec, hosts=tuple(h for h in spec.hosts if h.name != host.name),
            faults=tuple(f for f in spec.faults if f.target != host.name),
        )
    for device in spec.devices:
        yield replace(
            spec,
            devices=tuple(d for d in spec.devices if d.name != device.name),
            faults=tuple(f for f in spec.faults if f.target != device.name),
        )
    for segment in spec.segments:
        yield _without_segment(spec, segment.name)


def _engine_reductions(case: FuzzCase):
    """Simplify the engine configuration before touching the topology."""
    if case.check_process:
        yield replace(case, check_process=False)
    if case.shards > 2:
        yield replace(case, shards=2)


def shrink_case(
    case: FuzzCase,
    result: CaseResult,
    mutate: Optional[Mutator] = None,
    log: Callable[[str], None] = lambda line: None,
) -> Tuple[FuzzCase, CaseResult]:
    """Greedily minimize a failing case while the same mode keeps failing."""
    failing_mode = result.failing_mode
    best_case, best_result = case, result

    def still_fails(candidate: FuzzCase) -> Optional[CaseResult]:
        try:
            res = run_case(candidate, mutate=mutate)
        except Exception:  # invalid reduction (un-compilable spec, ...)
            return None
        if res.status == "failed" and res.failing_mode == failing_mode:
            return res
        return None

    for candidate in _engine_reductions(best_case):
        res = still_fails(candidate)
        if res is not None:
            best_case, best_result = candidate, res
            log(f"  shrink: engine -> shards={best_case.shards} "
                f"process={best_case.check_process}")

    changed = True
    while changed:
        changed = False
        for reduced in _spec_reductions(best_case.spec):
            candidate = replace(best_case, spec=reduced)
            res = still_fails(candidate)
            if res is not None:
                best_case, best_result = candidate, res
                spec = reduced
                log(f"  shrink: {len(spec.segments)} segment(s), "
                    f"{len(spec.hosts)} host(s), {len(spec.devices)} "
                    f"device(s), {len(spec.faults)} fault(s)")
                changed = True
                break
    return best_case, best_result


# ---------------------------------------------------------------------------
# Reproducers
# ---------------------------------------------------------------------------


def _failing_partition(case: FuzzCase, failing_mode: str) -> PartitionSpec:
    return PartitionSpec(
        shards=case.shards,
        backend="process" if failing_mode == "process" else "thread",
    )


def write_reproducer(
    out_dir: Path, master_seed: int, case: FuzzCase, result: CaseResult
) -> Path:
    """Dump the (shrunk) failing case as a committed-ready interchange file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"case-{case.case_id:04d}.{FMT}"
    run_block = {
        "fuzz_seed": master_seed,
        "case": case.case_id,
        "generator": case.generator,
        "params": dict(case.params),
        "failing_mode": result.failing_mode,
        "divergence_time": result.divergence_time,
        "detail": result.detail,
        "drive": "warm_up; ping hosts[0]->hosts[-1] count=2 interval=0.05; "
                 "run_until(max(ready_time, last fault) + 0.5)",
    }
    return interchange.save_scenario(
        path, case.spec,
        partition=_failing_partition(case, result.failing_mode or "relaxed"),
        run=run_block,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def fuzz(
    cases: int,
    master_seed: int,
    budget: Optional[float] = None,
    out_dir: Path = Path("fuzz-failures"),
    shrink: bool = True,
    log: Callable[[str], None] = print,
) -> int:
    """Run up to ``cases`` cases (bounded by ``budget`` seconds); 0 = green."""
    started = time.monotonic()
    tally = defaultdict(int)
    ran = 0
    for case_id in range(cases):
        if budget is not None and time.monotonic() - started > budget:
            log(f"budget exhausted after {ran} case(s)")
            break
        case = draw_case(master_seed, case_id)
        result = run_case(case)
        tally[result.status] += 1
        ran += 1
        log(result.describe())
        if not result.ok:
            if shrink:
                log("shrinking...")
                case, result = shrink_case(case, result, log=log)
            path = write_reproducer(out_dir, master_seed, case, result)
            log(f"reproducer written: {path}")
            log(f"FAIL after {ran} case(s): {result.describe()}")
            return 1
    log(
        f"ok: {ran} case(s) in {time.monotonic() - started:.1f}s "
        f"(exact={tally['exact']}, tie-excused={tally['tie-excused']})"
    )
    return 0


def write_report(path: Path, master_seed: int) -> None:
    """A telemetry-instrumented RunReport over the first drawn case.

    Written after a green sweep so the CI smoke lane always publishes a
    full metrics/segments/wall document from a generated topology — the
    same drive the oracle uses, with telemetry on (which the determinism
    tests prove changes nothing).
    """
    case = draw_case(master_seed, 0)
    run = run_scenario(case.spec, shards=case.shards, telemetry=True)
    run.warm_up()
    hosts = run.hosts
    rtts = []
    if len(hosts) >= 2:
        result = PingRunner(run.sim, hosts[0], hosts[-1].ip, payload_size=64,
                            count=2, interval=0.05).run(start_time=run.sim.now)
        rtts = [int(rtt * 1e9) for rtt in result.rtts]
    horizon = max([case.spec.ready_time] +
                  [fault.at for fault in case.spec.faults]) + 0.5
    if run.sim.now < horizon:
        run.sim.run_until(horizon)
    path.write_text(run.report(latency_ns=rtts).to_json() + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuzz the engine-mode invariance contract over generated "
                    "topologies, fault timelines and engine configurations."
    )
    parser.add_argument("--cases", type=int, default=50,
                        help="maximum cases to draw (default 50)")
    parser.add_argument("--seed", type=int, default=2026,
                        help="master seed for the case stream (default 2026)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds (default: none)")
    parser.add_argument("--out", type=Path, default=Path("fuzz-failures"),
                        help="directory for shrunk failing-case documents")
    parser.add_argument("--no-shrink", action="store_true",
                        help="dump the raw failing case without minimizing")
    parser.add_argument("--report", type=Path, default=None,
                        help="after a green sweep, write a telemetry "
                             "RunReport JSON for the first case here")
    args = parser.parse_args(argv)
    status = fuzz(args.cases, args.seed, budget=args.budget, out_dir=args.out,
                  shrink=not args.no_shrink)
    if status == 0 and args.report is not None:
        write_report(args.report, args.seed)
        print(f"run report written to {args.report}")
    return status


if __name__ == "__main__":
    sys.exit(main())
