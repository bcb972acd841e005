"""Topology as data: the scenario interchange format.

A :class:`~repro.scenario.spec.ScenarioSpec` is already pure data; this
module gives it a *lossless* serialized form so topologies can live in
files, travel between tools and come back bit-identical:

* :func:`spec_to_dict` / :func:`dict_to_spec` — every spec field (segments,
  hosts, devices, ports, switchlets, faults, params) as plain mappings,
  lists and scalars, and back.
* :func:`partition_to_dict` / :func:`dict_to_partition` — the engine-side
  :class:`~repro.scenario.spec.PartitionSpec` (shards, backend, explicit
  assignments).
* :func:`dump_scenario` / :func:`load_scenario` — a complete *scenario
  document* (spec + optional partition + optional free-form ``run`` block)
  as YAML or JSON text, plus :func:`save_scenario` / :func:`load_scenario_file`
  for paths.

The format is versioned (:data:`SCHEMA`) and **strict**: an unknown key at
any level, a missing required key, or a wrong collection shape raises
:class:`InterchangeError` naming the offending location — a typo in a
hand-written topology file fails loudly instead of silently compiling a
different network.  The round-trip contract is exact equality::

    spec == dict_to_spec(spec_to_dict(spec))
    spec == load_scenario(dump_scenario(spec)).spec

and, because compilation is a pure function of the spec, a run driven from
the round-tripped spec is bit-identical to one driven from the original —
the property the scenario fuzzer (``tools/fuzz_scenarios.py``) checks on
every generated topology, and the format the fuzzer's shrunk reproducers
are committed in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

try:  # YAML is the preferred wire format but JSON works without it.
    import yaml
except ImportError:  # pragma: no cover - exercised only on yaml-less installs
    yaml = None

from repro.exceptions import ReproError
from repro.faults.spec import FaultSpec
from repro.scenario.spec import (
    DeviceSpec,
    HostSpec,
    PartitionSpec,
    PortSpec,
    ScenarioSpec,
    SegmentSpec,
    SwitchletSpec,
)

#: The interchange schema identifier; bump on any incompatible change.
SCHEMA = "repro/scenario/v1"


class InterchangeError(ReproError):
    """Malformed interchange document (unknown key, bad shape, bad version)."""


# ---------------------------------------------------------------------------
# Spec -> data
# ---------------------------------------------------------------------------


def _segment_to_dict(segment: SegmentSpec) -> dict:
    return {
        "name": segment.name,
        "bandwidth_bps": segment.bandwidth_bps,
        "propagation_delay": segment.propagation_delay,
    }


def _host_to_dict(host: HostSpec) -> dict:
    return {
        "name": host.name,
        "segment": host.segment,
        "ip": host.ip,
        "vlan": host.vlan,
    }


def _port_to_dict(port: PortSpec) -> dict:
    return {
        "name": port.name,
        "segment": port.segment,
        "mode": port.mode,
        "vlan": port.vlan,
        "allowed_vlans": (
            None if port.allowed_vlans is None else list(port.allowed_vlans)
        ),
        "native_vlan": port.native_vlan,
    }


def _switchlet_to_dict(switchlet: SwitchletSpec) -> dict:
    return {"name": switchlet.name, "params": dict(switchlet.params)}


def _device_to_dict(device: DeviceSpec) -> dict:
    return {
        "name": device.name,
        "kind": device.kind,
        "ports": [_port_to_dict(port) for port in device.ports],
        "switchlets": [_switchlet_to_dict(s) for s in device.switchlets],
    }


def _fault_to_dict(fault: FaultSpec) -> dict:
    return {
        "kind": fault.kind,
        "at": fault.at,
        "target": fault.target,
        "port": fault.port,
        "rate": fault.rate,
        "corrupt_rate": fault.corrupt_rate,
        "bandwidth_scale": fault.bandwidth_scale,
        "extra_delay": fault.extra_delay,
        "seed": fault.seed,
    }


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Render a spec as plain data (mappings, lists, scalars) — losslessly.

    Every field is emitted explicitly, defaults included, so the output is a
    complete self-describing record of the topology; :func:`dict_to_spec`
    inverts it exactly.
    """
    return {
        "name": spec.name,
        "description": spec.description,
        "label": spec.label,
        "segments": [_segment_to_dict(s) for s in spec.segments],
        "hosts": [_host_to_dict(h) for h in spec.hosts],
        "devices": [_device_to_dict(d) for d in spec.devices],
        "static_arp": spec.static_arp,
        "ready_time": spec.ready_time,
        "faults": [_fault_to_dict(f) for f in spec.faults],
        "params": dict(spec.params),
    }


def partition_to_dict(partition: PartitionSpec) -> dict:
    """Render a partition spec as plain data — losslessly."""
    return {
        "shards": partition.shards,
        "assignments": dict(partition.assignments),
        "backend": partition.backend,
    }


# ---------------------------------------------------------------------------
# Data -> spec (strict)
# ---------------------------------------------------------------------------


def _require_mapping(value: object, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InterchangeError(
            f"{where}: expected a mapping, got {type(value).__name__}"
        )
    return value


def _require_list(value: object, where: str) -> Sequence:
    if value is None:
        return ()
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
        raise InterchangeError(
            f"{where}: expected a list, got {type(value).__name__}"
        )
    return value


def _take(data: Mapping, where: str, required: Sequence[str], optional: Mapping):
    """Split ``data`` into field values, strictly.

    Every key must be either required (and present) or optional (absent keys
    take the given default); anything else raises naming the location and
    the full known-key list.
    """
    known = set(required) | set(optional)
    unknown = sorted(set(data) - known)
    if unknown:
        raise InterchangeError(
            f"{where}: unknown key(s) {unknown}; known keys: {sorted(known)}"
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise InterchangeError(f"{where}: missing required key(s) {missing}")
    values = dict(optional)
    values.update(data)
    return values


def _dict_to_segment(data: object, where: str) -> SegmentSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name",),
        optional={
            "bandwidth_bps": SegmentSpec.__dataclass_fields__[
                "bandwidth_bps"
            ].default,
            "propagation_delay": SegmentSpec.__dataclass_fields__[
                "propagation_delay"
            ].default,
        },
    )
    return SegmentSpec(
        name=fields["name"],
        bandwidth_bps=fields["bandwidth_bps"],
        propagation_delay=fields["propagation_delay"],
    )


def _dict_to_host(data: object, where: str) -> HostSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name", "segment"),
        optional={"ip": None, "vlan": None},
    )
    return HostSpec(
        name=fields["name"],
        segment=fields["segment"],
        ip=fields["ip"],
        vlan=fields["vlan"],
    )


def _dict_to_port(data: object, where: str) -> PortSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name", "segment"),
        optional={
            "mode": "access",
            "vlan": 1,
            "allowed_vlans": None,
            "native_vlan": None,
        },
    )
    allowed = fields["allowed_vlans"]
    if allowed is not None:
        allowed = tuple(_require_list(allowed, f"{where}.allowed_vlans"))
    return PortSpec(
        name=fields["name"],
        segment=fields["segment"],
        mode=fields["mode"],
        vlan=fields["vlan"],
        allowed_vlans=allowed,
        native_vlan=fields["native_vlan"],
    )


def _dict_to_switchlet(data: object, where: str) -> SwitchletSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name",),
        optional={"params": {}},
    )
    return SwitchletSpec(
        name=fields["name"],
        params=dict(_require_mapping(fields["params"], f"{where}.params")),
    )


def _dict_to_device(data: object, where: str) -> DeviceSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name",),
        optional={"kind": "active-node", "ports": (), "switchlets": ()},
    )
    ports = tuple(
        _dict_to_port(port, f"{where}.ports[{index}]")
        for index, port in enumerate(_require_list(fields["ports"], f"{where}.ports"))
    )
    switchlets = tuple(
        _dict_to_switchlet(item, f"{where}.switchlets[{index}]")
        for index, item in enumerate(
            _require_list(fields["switchlets"], f"{where}.switchlets")
        )
    )
    return DeviceSpec(
        name=fields["name"], kind=fields["kind"], ports=ports, switchlets=switchlets
    )


def _dict_to_fault(data: object, where: str) -> FaultSpec:
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("kind", "at", "target"),
        optional={
            "port": None,
            "rate": 0.0,
            "corrupt_rate": 0.0,
            "bandwidth_scale": 1.0,
            "extra_delay": 0.0,
            "seed": 0,
        },
    )
    return FaultSpec(
        kind=fields["kind"],
        at=fields["at"],
        target=fields["target"],
        port=fields["port"],
        rate=fields["rate"],
        corrupt_rate=fields["corrupt_rate"],
        bandwidth_scale=fields["bandwidth_scale"],
        extra_delay=fields["extra_delay"],
        seed=fields["seed"],
    )


def dict_to_spec(data: object, where: str = "spec") -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from :func:`spec_to_dict` output.

    Strict: unknown keys anywhere in the tree raise :class:`InterchangeError`.
    The spec's own validation (duplicate names, dangling segment references,
    unknown kinds) runs as part of construction, so a structurally valid
    document with a semantically broken topology still fails loudly.
    """
    fields = _take(
        _require_mapping(data, where),
        where,
        required=("name",),
        optional={
            "description": "",
            "label": "",
            "segments": (),
            "hosts": (),
            "devices": (),
            "static_arp": True,
            "ready_time": ScenarioSpec.__dataclass_fields__["ready_time"].default,
            "faults": (),
            "params": {},
        },
    )
    try:
        return ScenarioSpec(
            name=fields["name"],
            description=fields["description"],
            label=fields["label"],
            segments=tuple(
                _dict_to_segment(item, f"{where}.segments[{index}]")
                for index, item in enumerate(
                    _require_list(fields["segments"], f"{where}.segments")
                )
            ),
            hosts=tuple(
                _dict_to_host(item, f"{where}.hosts[{index}]")
                for index, item in enumerate(
                    _require_list(fields["hosts"], f"{where}.hosts")
                )
            ),
            devices=tuple(
                _dict_to_device(item, f"{where}.devices[{index}]")
                for index, item in enumerate(
                    _require_list(fields["devices"], f"{where}.devices")
                )
            ),
            static_arp=fields["static_arp"],
            ready_time=fields["ready_time"],
            faults=tuple(
                _dict_to_fault(item, f"{where}.faults[{index}]")
                for index, item in enumerate(
                    _require_list(fields["faults"], f"{where}.faults")
                )
            ),
            params=dict(_require_mapping(fields["params"], f"{where}.params")),
        )
    except ReproError:
        raise
    except ValueError as exc:
        raise InterchangeError(f"{where}: invalid scenario: {exc}") from exc


def dict_to_partition(data: object, where: str = "partition") -> PartitionSpec:
    """Rebuild a :class:`PartitionSpec` from :func:`partition_to_dict` output.

    Two keys of older documents are still accepted, checked and dropped:
    ``workers`` (the size of the relaxed worker-thread pool, which no longer
    exists; threads never changed a result) and ``sync`` (``"strict"`` or
    ``"relaxed"``; every fabric now runs relaxed windows, whose canonical
    records equal the strict mode's), so older documents load to the same
    partition.
    """
    fields = _take(
        _require_mapping(data, where),
        where,
        required=(),
        optional={
            "shards": 1,
            "assignments": {},
            "sync": "relaxed",
            "workers": 0,
            "backend": "thread",
        },
    )
    workers = fields["workers"]
    if not isinstance(workers, int) or workers < 0:
        raise InterchangeError(
            f"{where}.workers: expected a non-negative integer, got {workers!r}"
        )
    if fields["sync"] not in ("strict", "relaxed"):
        raise InterchangeError(
            f"{where}.sync: expected 'strict' or 'relaxed', got {fields['sync']!r}"
        )
    try:
        return PartitionSpec(
            shards=fields["shards"],
            assignments=dict(
                _require_mapping(fields["assignments"], f"{where}.assignments")
            ),
            backend=fields["backend"],
        )
    except ValueError as exc:
        raise InterchangeError(f"{where}: invalid partition: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario documents (spec + partition + run block) as YAML/JSON text
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDocument:
    """One loaded interchange document.

    Attributes:
        spec: the topology.
        partition: the engine configuration the document pins (``None`` when
            the document leaves engine choice to the caller).
        run: free-form scalar metadata about how to drive the run — the
            fuzzer records ``seed``, ``duration``, the failing oracle mode
            and the case id here.  Unvalidated beyond being a mapping.
    """

    spec: ScenarioSpec
    partition: Optional[PartitionSpec] = None
    run: Mapping[str, object] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.run is None:
            object.__setattr__(self, "run", {})


def document_to_dict(
    spec: ScenarioSpec,
    partition: Optional[PartitionSpec] = None,
    run: Optional[Mapping[str, object]] = None,
) -> dict:
    """The complete document form: schema stamp, spec, optional extras."""
    document: dict = {"schema": SCHEMA, "spec": spec_to_dict(spec)}
    if partition is not None:
        document["partition"] = partition_to_dict(partition)
    if run:
        document["run"] = dict(run)
    return document


def dict_to_document(data: object) -> ScenarioDocument:
    """Parse (strictly) a document produced by :func:`document_to_dict`."""
    fields = _take(
        _require_mapping(data, "document"),
        "document",
        required=("schema", "spec"),
        optional={"partition": None, "run": {}},
    )
    if fields["schema"] != SCHEMA:
        raise InterchangeError(
            f"document: unsupported schema {fields['schema']!r}; "
            f"this build reads {SCHEMA!r}"
        )
    partition = fields["partition"]
    return ScenarioDocument(
        spec=dict_to_spec(fields["spec"]),
        partition=None if partition is None else dict_to_partition(partition),
        run=dict(_require_mapping(fields["run"], "document.run")),
    )


def dump_scenario(
    spec: ScenarioSpec,
    partition: Optional[PartitionSpec] = None,
    run: Optional[Mapping[str, object]] = None,
    fmt: str = "yaml",
) -> str:
    """Serialize a scenario document as YAML (default) or JSON text."""
    document = document_to_dict(spec, partition=partition, run=run)
    if fmt == "yaml":
        if yaml is None:
            raise InterchangeError(
                "PyYAML is not installed; use fmt='json' or install pyyaml"
            )
        return yaml.safe_dump(document, sort_keys=False, default_flow_style=False)
    if fmt == "json":
        return json.dumps(document, indent=2) + "\n"
    raise InterchangeError(f"unknown interchange format {fmt!r}; use 'yaml' or 'json'")


def load_scenario(text: str, fmt: str = "yaml") -> ScenarioDocument:
    """Parse scenario-document text (YAML or JSON) strictly."""
    if fmt == "yaml":
        if yaml is None:
            raise InterchangeError(
                "PyYAML is not installed; use fmt='json' or install pyyaml"
            )
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise InterchangeError(f"document: invalid YAML: {exc}") from exc
    elif fmt == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InterchangeError(f"document: invalid JSON: {exc}") from exc
    else:
        raise InterchangeError(
            f"unknown interchange format {fmt!r}; use 'yaml' or 'json'"
        )
    return dict_to_document(data)


def _format_for(path: Path) -> str:
    if path.suffix.lower() == ".json":
        return "json"
    if path.suffix.lower() in (".yaml", ".yml"):
        return "yaml"
    raise InterchangeError(
        f"cannot infer interchange format from {path.name!r}; "
        "use a .yaml/.yml or .json extension"
    )


def save_scenario(
    path: Union[str, Path],
    spec: ScenarioSpec,
    partition: Optional[PartitionSpec] = None,
    run: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write a scenario document to ``path`` (format from the extension)."""
    path = Path(path)
    path.write_text(dump_scenario(spec, partition=partition, run=run,
                                  fmt=_format_for(path)))
    return path


def load_scenario_file(path: Union[str, Path]) -> ScenarioDocument:
    """Read a scenario document from ``path`` (format from the extension)."""
    path = Path(path)
    return load_scenario(path.read_text(), fmt=_format_for(path))
