"""The scenario registry and the topology-matrix expander.

Scenarios are registered by name as *factories*: callables taking keyword
parameters (ring length, segment speed, host count, VLAN layout, ...) and
returning a :class:`~repro.scenario.spec.ScenarioSpec`.  The matrix expander
turns one factory plus a table of axis values into a deterministic family of
specs — the topology-table idiom of the related switch repos, applied to the
paper's experiments.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.scenario.spec import ScenarioSpec

ScenarioFactory = Callable[..., ScenarioSpec]


@dataclass(frozen=True)
class ScenarioEntry:
    """One registry entry.

    Attributes:
        name: registry key.
        factory: ``factory(**params) -> ScenarioSpec``.
        description: one-line summary for the catalog listing.
        axes: names of the factory parameters meant to be swept (purely
            documentary; any factory parameter can be used as an axis).
        tie_prone: the topology class admits residual same-instant wire
            ties (queueing feedback re-aligning causal chains on a loop),
            which the canonical contract deliberately refuses to order.
            Such entries promise the *tie-excused* contract — a fabric's
            divergence from the single engine is legitimate at or after
            the first tie instant — so the catalog-wide canonical-identity
            tests skip them and the scenario fuzzer covers them with its
            tie-horizon oracle instead.  Fabric determinism (two runs
            agree) still holds for them.
    """

    name: str
    factory: ScenarioFactory
    description: str = ""
    axes: Tuple[str, ...] = ()
    tie_prone: bool = False


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register_scenario(
    name: str,
    factory: Optional[ScenarioFactory] = None,
    *,
    description: str = "",
    axes: Sequence[str] = (),
    tie_prone: bool = False,
):
    """Register a scenario factory (usable directly or as a decorator).

    Raises:
        ValueError: if ``name`` is already registered.
    """

    def _register(fn: ScenarioFactory) -> ScenarioFactory:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        summary = description
        if not summary and fn.__doc__:
            summary = fn.__doc__.strip().splitlines()[0]
        _REGISTRY[name] = ScenarioEntry(
            name=name,
            factory=fn,
            description=summary,
            axes=tuple(axes),
            tie_prone=tie_prone,
        )
        return fn

    if factory is None:
        return _register
    return _register(factory)


def scenario_entry(name: str) -> ScenarioEntry:
    """Look up a registry entry by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"no scenario named {name!r}; registered: {sorted(_REGISTRY)}"
        ) from exc


def get_scenario(name: str, **params: object) -> ScenarioSpec:
    """Instantiate a registered scenario's spec with the given parameters.

    The spec's recorded ``params`` are updated with the values used, and its
    name is suffixed with them (``ring[n_bridges=5]``) when any are given, so
    matrix-expanded families stay distinguishable in output.
    """
    spec = scenario_entry(name).factory(**params)
    if params:
        suffix = ",".join(f"{key}={params[key]}" for key in params)
        spec = replace(spec, name=f"{spec.name}[{suffix}]").with_params(**params)
    return spec


def list_scenarios() -> List[ScenarioEntry]:
    """Every registered scenario, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------


def expand_matrix(
    name: str,
    axes: Mapping[str, Iterable[object]],
    base_params: Optional[Mapping[str, object]] = None,
) -> List[ScenarioSpec]:
    """Expand one registered scenario over a table of axis values.

    The cartesian product is taken in the order the axes are given (first
    axis varies slowest), and values are used in their given order, so the
    expansion is fully deterministic: the same table always yields the same
    family in the same order.

    Args:
        name: registered scenario name.
        axes: axis name -> sequence of values (e.g.
            ``{"n_bridges": [1, 2, 4, 8], "bandwidth_bps": [1e7, 1e8]}``).
        base_params: fixed parameters applied to every point.

    Returns:
        One spec per matrix point, with the point's parameters recorded in
        ``spec.params`` and appended to ``spec.name``.

    Raises:
        ValueError: if an axis or base parameter names no factory
            parameter.  A typo'd axis (``n_bridge`` for ``n_bridges``)
            would otherwise surface as a ``TypeError`` from deep inside
            the factory call on the first matrix point — here it is
            rejected up front, with the valid names listed.
    """
    fixed = dict(base_params or {})
    axis_names = list(axes)
    factory = scenario_entry(name).factory
    parameters = inspect.signature(factory).parameters
    if not any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        unknown = [
            key for key in (*axis_names, *fixed) if key not in parameters
        ]
        if unknown:
            raise ValueError(
                f"unknown axes {sorted(set(unknown))} for scenario {name!r}; "
                f"the factory accepts {sorted(parameters)}"
            )
    axis_values = [list(axes[axis]) for axis in axis_names]
    specs: List[ScenarioSpec] = []
    for point in itertools.product(*axis_values):
        params = dict(fixed)
        params.update(zip(axis_names, point))
        specs.append(get_scenario(name, **params))
    return specs
