"""Pin the catalog traces: per-category record counts and one digest per run.

Each catalog run is warmed up, one host sends one ping to another at the
ready time, and the run goes on to ``ready_time + 10 s``.  So every pin
covers a unicast data exchange as well as the control plane (spanning
tree, switchlet loads).  Each run goes in two engine modes: the single
engine and the sharded fabric at shards=4, both read in the canonical order
(``canonical_records()``), so the two modes of a run must pin the same
records.  For every run and mode the pin holds the record count per
category plus one sha256 over every record as ``(time_ns, source,
category, detail as sorted-key JSON)``.

A change that moves a trace shows up here record for record, so it can say
which runs it moved and by how much.  ``tests/test_catalog_traces.py`` runs
the check in the tier-1 suite.

Usage::

    PYTHONPATH=src python tools/catalog_traces.py --check   # compare against the pin
    PYTHONPATH=src python tools/catalog_traces.py --write   # re-record the pin

``--check`` prints every changed run with its per-category count deltas and
exits non-zero if any run changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.measurement.ping import PingRunner  # noqa: E402
from repro.scenario import run_scenario  # noqa: E402

PIN_PATH = REPO_ROOT / "tests" / "data" / "catalog_traces.json"

#: Run name -> (scenario, factory parameters, pinging host, pinged host).
#: In ``pair/lossy`` the loss model drops the reply; the ``vlan/trunk`` pair
#: shares VLAN 10 across the trunk.
RUNS = {
    "pair/direct": ("pair/direct", {}, "host1", "host2"),
    "pair/repeater": ("pair/repeater", {}, "host1", "host2"),
    "pair/active-bridge": ("pair/active-bridge", {}, "host1", "host2"),
    "pair/lossy": ("pair/lossy", {}, "host1", "host2"),
    "ring": ("ring", {"n_bridges": 6, "hosts_per_segment": 1}, "seg0h1", "seg3h1"),
    "ring/failover": ("ring/failover", {}, "left", "right"),
    "chain": ("chain", {}, "left", "right"),
    "vlan/trunk": ("vlan/trunk", {}, "h1v10n1", "h2v10n1"),
}

#: Mode name -> shard count.
MODES = {"single": 1, "relaxed-4": 4}

#: How far past its ready time each run goes.
RUN_PAST_READY_S = 10.0


def trace_records(scenario: str, params: dict, pinger: str, pinged: str,
                  shards: int) -> list:
    """Warm one run up, ping once, run to ``ready_time + 10 s``; return its
    records in the canonical order."""
    run = run_scenario(scenario, params=params, shards=shards)
    run.warm_up()
    PingRunner(run.sim, run.host(pinger), run.host(pinged).ip,
               payload_size=56, count=1).start(run.ready_time)
    run.sim.run_until(run.ready_time + RUN_PAST_READY_S)
    return run.sim.trace.canonical_records()


def summarize(records: Sequence[object]) -> dict:
    """Per-category counts and the digest of one record stream."""
    digest = hashlib.sha256()
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.category] = counts.get(record.category, 0) + 1
        line = json.dumps(
            [round(record.time * 1e9), record.source, record.category, record.detail],
            sort_keys=True,
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return {
        "records": len(records),
        "sha256": digest.hexdigest(),
        "counts": dict(sorted(counts.items())),
    }


def collect() -> dict:
    """Summaries of every (run, mode) pair, keyed run -> mode."""
    return {
        name: {
            mode: summarize(trace_records(*run, shards))
            for mode, shards in MODES.items()
        }
        for name, run in RUNS.items()
    }


def differences(expected: dict, actual: dict) -> List[str]:
    """One line per changed run and mode, with per-category count deltas."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        for mode in MODES:
            old = expected.get(name, {}).get(mode)
            new = actual.get(name, {}).get(mode)
            if old == new:
                continue
            if old is None or new is None:
                lines.append(f"{name} [{mode}]: {'added' if old is None else 'removed'}")
                continue
            deltas = []
            for category in sorted(set(old["counts"]) | set(new["counts"])):
                delta = new["counts"].get(category, 0) - old["counts"].get(category, 0)
                if delta:
                    deltas.append(f"{category} {delta:+d}")
            change = ", ".join(deltas) if deltas else "same counts, different records"
            lines.append(
                f"{name} [{mode}]: {old['records']} -> {new['records']} records ({change})"
            )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="re-record the pin file")
    action.add_argument("--check", action="store_true", help="compare against the pin file")
    args = parser.parse_args(argv)
    actual = collect()
    if args.write:
        PIN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} runs x {len(MODES)} modes to {PIN_PATH}")
        return 0
    changed = differences(json.loads(PIN_PATH.read_text()), actual)
    for line in changed:
        print(line)
    if changed:
        print(f"{len(changed)} run/mode pairs differ from {PIN_PATH}")
        return 1
    print(f"all {len(actual)} runs x {len(MODES)} modes match {PIN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
