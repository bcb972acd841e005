"""The one parametrized scenario runner.

:func:`run_scenario` is the single entry point every benchmark, test and
example drives: it resolves a scenario (by registered name or as an explicit
:class:`~repro.scenario.spec.ScenarioSpec`), compiles it, and hands back the
live :class:`~repro.scenario.compile.ScenarioRun`.  :func:`run_matrix`
applies it across a topology-matrix expansion.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union

from repro.costs.model import CostModel
from repro.scenario.compile import ScenarioRun, compile_spec
from repro.scenario.registry import expand_matrix, get_scenario
from repro.scenario.spec import PartitionSpec, ScenarioSpec


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    *,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
    params: Optional[Mapping[str, object]] = None,
    shards: Union[int, PartitionSpec] = 1,
    sync: Optional[str] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    faults=None,
    telemetry: bool = False,
) -> ScenarioRun:
    """Compile a scenario into a live network ready for measurement.

    Args:
        scenario: a registered scenario name (e.g. ``"pair/active-bridge"``)
            or an explicit spec.
        seed: simulator seed (deterministic experiments).
        cost_model: software cost constants shared by all components;
            ``None`` selects the calibrated defaults.
        trace_sinks: the simulator's trace store: ``None`` for the default
            :class:`~repro.sim.trace.ListSink`, or a one-element list holding
            the store to write instead (e.g. a bounded
            :class:`~repro.sim.trace.RingBufferSink` for very long runs)
            that no other simulator holds; anything else raises
            :class:`TypeError`.
        params: factory parameters when ``scenario`` is a name (matrix-axis
            values such as ``{"n_bridges": 5}``).
        shards: shard the compiled network across this many cooperating
            engines (or per an explicit :class:`PartitionSpec`).  The
            fabric runs relaxed lookahead windows, and its canonical records
            equal the single-engine run's (see :mod:`repro.sim.relaxed`).
            A sharded run accepts no ``trace_sinks``.
        sync: only ``None`` or ``"relaxed"``, which change nothing: every
            fabric runs relaxed windows, and the strict mode this argument
            selected no longer exists, so any other value raises
            :class:`ValueError`.
        workers: only ``None`` or ``0``, which change nothing.  Relaxed
            windows run on the calling thread; the worker-thread pool this
            argument sized no longer exists, and any other value raises
            :class:`ValueError`.
        backend: relaxed-window execution backend — ``"thread"``
            (in-process) or ``"process"`` (one worker process per shard,
            wall-clock parallel; see :mod:`repro.sim.procpool`).  Overrides
            :attr:`PartitionSpec.backend` when both are given; ignored for
            single-engine runs.
        faults: extra :class:`~repro.faults.spec.FaultSpec` events appended
            to the scenario's own fault timeline (scripted link/port
            failures, loss models — see :mod:`repro.faults`); the combined
            timeline is installed at compile time on the simulator control
            path, identically under every engine configuration.
        telemetry: enable the engine's metrics/span instrumentation
            (:mod:`repro.telemetry`) before any event dispatches; collect
            the results with ``run.report()``.  Never changes a simulation
            outcome.

    Returns:
        The compiled :class:`ScenarioRun`; the caller decides how far to run
        the simulator (``run.warm_up()`` reaches the scenario's ready time).
    """
    # ``sync`` and ``workers`` outlive the strict mode and the worker-thread
    # pool they selected because perfbench/workloads.py, which stays
    # unchanged so that benchmark runs compare across commits, passes
    # ``sync="relaxed", workers=0``: sequential relaxed windows, the only
    # kind left.  A request for anything else fails loudly instead.
    if sync not in (None, "relaxed"):
        raise ValueError(
            f"sync={sync!r}: strict sync was removed; every fabric runs "
            "relaxed windows, and the single engine (shards=1) runs events "
            "in the exact global order"
        )
    if workers not in (None, 0):
        raise ValueError(
            f"workers={workers!r}: relaxed worker threads were removed; "
            "relaxed windows run on the calling thread, and "
            "backend='process' runs them in parallel worker processes"
        )
    if isinstance(scenario, str):
        spec = get_scenario(scenario, **dict(params or {}))
    else:
        if params:
            raise ValueError("params are only accepted with a scenario name")
        spec = scenario
    return compile_spec(
        spec, seed=seed, cost_model=cost_model, trace_sinks=trace_sinks,
        shards=shards, backend=backend, faults=faults, telemetry=telemetry,
    )


def run_matrix(
    name: str,
    axes: Mapping[str, Iterable[object]],
    *,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
    base_params: Optional[Mapping[str, object]] = None,
    shards: Union[int, PartitionSpec] = 1,
    backend: Optional[str] = None,
    faults=None,
    telemetry: bool = False,
) -> Iterator[ScenarioRun]:
    """Compile and yield one :class:`ScenarioRun` per matrix point.

    Expansion order is deterministic (see
    :func:`~repro.scenario.registry.expand_matrix`); each run is compiled
    lazily, so a large sweep only holds one live network at a time.  The
    ``shards`` and ``backend`` knobs apply to every
    point (the partitioner clamps the shard count for points with fewer
    segments).  A store passed as ``trace_sinks`` belongs to the first
    point's simulator, so a later point raises :class:`TypeError`; a sweep
    of more than one point keeps the default store per point.
    """
    for spec in expand_matrix(name, axes, base_params=base_params):
        yield compile_spec(
            spec, seed=seed, cost_model=cost_model, trace_sinks=trace_sinks,
            shards=shards, backend=backend, faults=faults, telemetry=telemetry,
        )
