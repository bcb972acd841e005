"""Render a :class:`repro.telemetry.RunReport` for humans and scrapers.

Two input paths:

* a RunReport JSON file produced by ``ScenarioRun.report()`` (what the
  benchmark ``--report`` flags and the fuzz smoke write), or
* ``--scenario NAME`` to compile a catalog scenario with telemetry
  enabled, run it, and report on the fresh run.

Two output modes:

* the default console table — engine configuration, events per ring,
  the fabric counters (telemetry on), the wall-clock phase breakdown with
  the garbage collector's seconds and per-generation collections beside
  it, per-segment statistics with each segment's express lane, express hit
  rates, drops and the latency percentile summary, every section read
  from the report's one metrics snapshot through
  :meth:`~repro.telemetry.report.RunReport.family`;
* ``--prometheus`` — the metrics section in Prometheus text exposition
  format (``# HELP``/``# TYPE`` headers from
  :data:`repro.telemetry.METRIC_FAMILIES`), suitable for a textfile
  collector.

Usage::

    PYTHONPATH=src python tools/report.py population_smoke_report.json
    PYTHONPATH=src python tools/report.py --scenario ring --shards 4
    PYTHONPATH=src python tools/report.py run.json --prometheus --out metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.metrics import METRIC_FAMILIES  # noqa: E402
from repro.telemetry.report import RunReport  # noqa: E402


def load_report(path: Path) -> RunReport:
    """Reconstruct a :class:`RunReport` from its JSON document."""
    data = json.loads(path.read_text())
    known = {f for f in RunReport.__dataclass_fields__}
    return RunReport(**{k: v for k, v in data.items() if k in known})


def run_scenario_report(args: argparse.Namespace) -> RunReport:
    """Compile and run a catalog scenario with telemetry on, then report."""
    from repro.scenario import run_scenario

    params = json.loads(args.params) if args.params else None
    run = run_scenario(
        args.scenario,
        params=params,
        seed=args.seed,
        shards=args.shards,
        backend=args.backend,
        telemetry=True,
    )
    if run.backend == "process":
        run.warm_up()
    run.sim.run_until(args.run_for)
    return run.report()


# ----------------------------------------------------------------------
# Console rendering
# ----------------------------------------------------------------------


def _rows(title: str, rows: list) -> str:
    """A two-column aligned block with a section title."""
    if not rows:
        return ""
    width = max(len(str(k)) for k, _ in rows)
    body = "\n".join(f"  {str(k):<{width}}  {v}" for k, v in rows)
    return f"{title}\n{body}\n"


def _fmt_seconds(value: float) -> str:
    return f"{value * 1e3:.3f} ms"


def _total(report: RunReport, family: str):
    """The sum of a family's samples (0 when the report lacks it)."""
    return sum(value for _, value in report.family(family))


#: The segments table's numeric columns and the family each one reads;
#: float columns print with four decimals.
SEGMENT_COLUMNS = (
    ("frames", "segment_frames_carried"),
    ("bytes", "segment_bytes_carried"),
    ("lost", "segment_frames_lost"),
    ("corrupt", "segment_frames_corrupted"),
    ("coalesced", "segment_frames_coalesced"),
    ("util", "segment_utilization"),
)


def render_console(report: RunReport) -> str:
    """The console table for one report, every section read by family."""
    parts = []
    engine = report.engine or {}
    parts.append(
        _rows(
            f"run: {report.scenario} (seed={report.seed})",
            [
                ("engine", engine.get("mode", "?")),
                ("shards", engine.get("shards", 1)),
                ("backend", engine.get("backend", "")),
                ("sim time", f"{report.sim_time_s:.6f} s"),
                ("telemetry", "on" if report.telemetry_enabled else "off"),
            ],
        )
    )

    dispatched = report.family("engine_events_dispatched")
    event_rows = [("dispatched", sum(value for _, value in dispatched))]
    event_rows.extend(
        (f"shard {labels['shard']}", value) for labels, value in dispatched if labels
    )
    high_water = report.family("engine_queue_high_water")
    if high_water:
        event_rows.append(("queue_high_water", int(max(v for _, v in high_water))))
    parts.append(_rows("events", event_rows))

    # Telemetry-on fabric runs only; per-segment mail is summed here and
    # kept per segment in the Prometheus export.
    parts.append(
        _rows(
            "fabric",
            [
                (name[len("fabric_"):], _total(report, name))
                for name in METRIC_FAMILIES
                if name.startswith("fabric_") and report.family(name)
            ],
        )
    )

    if report.wall:
        wall = report.wall
        rows = [
            (phase, _fmt_seconds(wall.get(f"{phase}_s", 0.0)))
            for phase in ("compute", "barrier", "pipe", "plan")
        ]
        rows.append(("total", _fmt_seconds(wall.get("total_s", 0.0))))
        rows.append(("attributed", _fmt_seconds(wall.get("attributed_s", 0.0))))
        # Collector time sits inside the phases above, so it is shown
        # beside them rather than summed with them.
        rows.append(("gc", _fmt_seconds(wall.get("gc_s", 0.0))))
        collections = wall.get("gc_collections") or [0, 0, 0]
        per_gen = " / ".join(f"gen{g} {n}" for g, n in enumerate(collections))
        rows.append(("gc collections", per_gen))
        parts.append(_rows("wall breakdown", rows))

    segments: dict = {}
    for column, family in SEGMENT_COLUMNS:
        for labels, value in report.family(family):
            segments.setdefault(labels["segment"], {})[column] = value
    by_mode = {"off": 0, "inline": 0, "deferred": 0}
    for labels, value in report.family("express_frames"):
        segments.setdefault(labels["segment"], {})["express"] = labels["mode"]
        by_mode[labels["mode"]] += value

    if segments:
        header = ("segment", *(column for column, _ in SEGMENT_COLUMNS), "express")
        table = [header]
        for name, stats in sorted(segments.items()):
            cells = [stats.get(column, 0) for column, _ in SEGMENT_COLUMNS]
            table.append(
                (
                    name,
                    *(f"{c:.4f}" if isinstance(c, float) else c for c in cells),
                    stats.get("express", "off"),
                )
            )
        widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
        lines = [
            "  " + "  ".join(f"{str(cell):<{widths[i]}}" for i, cell in enumerate(row))
            for row in table
        ]
        parts.append("segments\n" + "\n".join(lines) + "\n")

    frames_total = sum(by_mode.values())
    if frames_total:
        rows = [("frames total", frames_total)]
        for mode, count in sorted(by_mode.items()):
            rows.append((f"mode {mode}", f"{count}  ({count / frames_total:.1%})"))
        rows.append(("coalesced", _total(report, "segment_frames_coalesced")))
        parts.append(_rows("express", rows))

    if segments:
        parts.append(
            _rows(
                "drops",
                [
                    ("frames_corrupted", _total(report, "segment_frames_corrupted")),
                    ("frames_lost", _total(report, "segment_frames_lost")),
                ],
            )
        )

    if report.latency_ns:
        lat = report.latency_ns
        rows = [("samples", int(lat.get("count", 0)))]
        for key in ("min", "p50", "p95", "p99", "max", "mean"):
            if key in lat:
                rows.append((key, f"{lat[key] / 1e6:.3f} ms"))
        parts.append(_rows("latency (rtt)", rows))

    metrics = report.metrics or {}
    n_samples = sum(len(metrics.get(kind) or {}) for kind in ("counters", "gauges", "histograms"))
    if n_samples:
        parts.append(f"metrics: {n_samples} samples (use --prometheus to export)\n")

    return "\n".join(p for p in parts if p)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        nargs="?",
        type=Path,
        help="RunReport JSON file (omit when using --scenario)",
    )
    parser.add_argument("--scenario", help="run this catalog scenario live instead")
    parser.add_argument("--params", help="scenario params as a JSON object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument(
        "--run-for", type=float, default=2.0, help="simulated seconds to run (live mode)"
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead of the table",
    )
    parser.add_argument("--out", type=Path, help="write output here instead of stdout")
    args = parser.parse_args(argv)

    if (args.report is None) == (args.scenario is None):
        parser.error("provide exactly one of: a report JSON path, or --scenario")

    if args.scenario:
        report = run_scenario_report(args)
    else:
        report = load_report(args.report)

    text = report.to_prometheus() if args.prometheus else render_console(report)
    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
