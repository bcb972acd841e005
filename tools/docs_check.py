"""CI documentation check: the docs pages must track the living system.

Three coverage contracts, all cheap and exact:

* every scenario registered in :mod:`repro.scenario.registry` must be named
  in ``docs/scenario-catalog.md``;
* every BENCH metric *family* tracked anywhere in ``BENCH_trace.json`` (a
  metric name or an exactly-gated event count as collected by
  ``benchmarks/perf_gate.py``, with its ``@size`` suffix stripped) must be
  named in ``docs/benchmarks.md``;
* every fault kind in :data:`repro.faults.FAULT_KINDS` must be named in
  ``docs/architecture.md`` — adding a dynamics event without documenting
  its semantics fails CI exactly like an undocumented scenario;
* every execution backend in :data:`repro.sim.relaxed.BACKENDS` must be
  named in ``docs/architecture.md`` — a new window-execution backend ships
  with its transport/barrier/determinism story documented, or CI fails;
* every station role in :data:`repro.population.STATION_ROLES` and every
  traffic kind in :data:`repro.population.TRAFFIC_KINDS` must be named in
  ``docs/architecture.md`` — population roles and synthetic-traffic axes
  are part of the documented scenario surface;
* every topology generator in
  :data:`repro.scenario.generators.GENERATORS` must be named in
  ``docs/topology-interchange.md`` — a new generator ships with its shape,
  axes and tie story documented where the fuzzer's inputs are specified;
* every metric family in :data:`repro.telemetry.METRIC_FAMILIES` must be
  named in ``docs/telemetry.md`` — new instrumentation ships with its
  meaning and labels documented, or CI fails.

Run from the repository root::

    PYTHONPATH=src python tools/docs_check.py

Exits non-zero listing everything missing, so adding a scenario or a gated
metric without documenting it fails CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_gate import collect_counts, collect_metrics  # noqa: E402

from repro.faults import FAULT_KINDS  # noqa: E402
from repro.population import STATION_ROLES, TRAFFIC_KINDS  # noqa: E402
from repro.scenario.generators import GENERATORS  # noqa: E402
from repro.scenario.registry import list_scenarios  # noqa: E402
from repro.sim.relaxed import BACKENDS  # noqa: E402
from repro.telemetry import METRIC_FAMILIES  # noqa: E402

CATALOG_PAGE = REPO_ROOT / "docs" / "scenario-catalog.md"
TELEMETRY_PAGE = REPO_ROOT / "docs" / "telemetry.md"
BENCHMARKS_PAGE = REPO_ROOT / "docs" / "benchmarks.md"
ARCHITECTURE_PAGE = REPO_ROOT / "docs" / "architecture.md"
INTERCHANGE_PAGE = REPO_ROOT / "docs" / "topology-interchange.md"
RESULTS_PATH = REPO_ROOT / "BENCH_trace.json"


def metric_families(history: list) -> set:
    """Every tracked metric name with its ``@size`` segment removed.

    ``fabric/shards=4/relaxed@256x600 records/s`` ->
    ``fabric/shards=4/relaxed records/s``; names without a size pass
    through unchanged.
    """
    families = set()
    for entry in history:
        for name in (*collect_metrics(entry), *collect_counts(entry)):
            if "@" in name:
                head, _, tail = name.partition("@")
                suffix = tail.partition(" ")[2]
                families.add(f"{head} {suffix}".strip())
            else:
                families.add(name)
    return families


def main() -> int:
    failures = []

    catalog_text = CATALOG_PAGE.read_text() if CATALOG_PAGE.exists() else ""
    for entry in list_scenarios():
        if f"`{entry.name}`" not in catalog_text:
            failures.append(
                f"scenario {entry.name!r} is registered but missing from "
                f"{CATALOG_PAGE.relative_to(REPO_ROOT)}"
            )

    bench_text = BENCHMARKS_PAGE.read_text() if BENCHMARKS_PAGE.exists() else ""
    try:
        history = json.loads(RESULTS_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"docs check: cannot read {RESULTS_PATH}: {exc}")
        return 1
    for family in sorted(metric_families(history)):
        if family not in bench_text:
            failures.append(
                f"metric family {family!r} is tracked in BENCH_trace.json but "
                f"missing from {BENCHMARKS_PAGE.relative_to(REPO_ROOT)}"
            )

    architecture_text = (
        ARCHITECTURE_PAGE.read_text() if ARCHITECTURE_PAGE.exists() else ""
    )
    for kind in FAULT_KINDS:
        if f"`{kind}`" not in architecture_text:
            failures.append(
                f"fault kind {kind!r} exists in repro.faults.FAULT_KINDS but "
                f"is missing from {ARCHITECTURE_PAGE.relative_to(REPO_ROOT)}"
            )

    for backend in BACKENDS:
        if f"`{backend}`" not in architecture_text:
            failures.append(
                f"execution backend {backend!r} exists in "
                f"repro.sim.relaxed.BACKENDS but is missing from "
                f"{ARCHITECTURE_PAGE.relative_to(REPO_ROOT)}"
            )

    for role in STATION_ROLES:
        if f"`{role}`" not in architecture_text:
            failures.append(
                f"station role {role!r} exists in "
                f"repro.population.STATION_ROLES but is missing from "
                f"{ARCHITECTURE_PAGE.relative_to(REPO_ROOT)}"
            )

    for kind in TRAFFIC_KINDS:
        if f"`{kind}`" not in architecture_text:
            failures.append(
                f"traffic kind {kind!r} exists in "
                f"repro.population.TRAFFIC_KINDS but is missing from "
                f"{ARCHITECTURE_PAGE.relative_to(REPO_ROOT)}"
            )

    interchange_text = (
        INTERCHANGE_PAGE.read_text() if INTERCHANGE_PAGE.exists() else ""
    )
    for generator in GENERATORS:
        if f"`{generator}`" not in interchange_text:
            failures.append(
                f"generator {generator!r} exists in "
                f"repro.scenario.generators.GENERATORS but is missing from "
                f"{INTERCHANGE_PAGE.relative_to(REPO_ROOT)}"
            )

    telemetry_text = TELEMETRY_PAGE.read_text() if TELEMETRY_PAGE.exists() else ""
    for family in METRIC_FAMILIES:
        if f"`{family}`" not in telemetry_text:
            failures.append(
                f"metric family {family!r} exists in "
                f"repro.telemetry.METRIC_FAMILIES but is missing from "
                f"{TELEMETRY_PAGE.relative_to(REPO_ROOT)}"
            )

    if failures:
        print(f"docs check: {len(failures)} problem(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    scenarios = len(list_scenarios())
    families = len(metric_families(history))
    print(
        f"docs check: OK — {scenarios} scenarios, {families} metric "
        f"families, {len(FAULT_KINDS)} fault kinds, {len(BACKENDS)} "
        f"execution backends, {len(STATION_ROLES)} station roles, "
        f"{len(TRAFFIC_KINDS)} traffic kinds, {len(GENERATORS)} "
        f"topology generators and {len(METRIC_FAMILIES)} telemetry "
        f"metric families all documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
