"""The scenario interchange format: lossless round trips, strict parsing.

The contract under test is the one the fuzzer leans on::

    spec == dict_to_spec(spec_to_dict(spec))
    spec == load_scenario(dump_scenario(spec)).spec

over the *entire* registry, plus bit-identical runs driven from
round-tripped specs, plus loud rejection of malformed documents (unknown
keys, missing keys, wrong shapes, wrong schema) — a typo'd topology file
must never silently compile a different network.
"""

import pytest

from repro.exceptions import ReproError
from repro.measurement.ping import PingRunner
from repro.scenario import (
    PartitionSpec,
    get_scenario,
    interchange,
    list_scenarios,
    run_scenario,
)
from repro.scenario.interchange import (
    SCHEMA,
    InterchangeError,
    dict_to_document,
    dict_to_partition,
    dict_to_spec,
    document_to_dict,
    dump_scenario,
    load_scenario,
    load_scenario_file,
    partition_to_dict,
    save_scenario,
    spec_to_dict,
)

ALL_SCENARIOS = sorted(entry.name for entry in list_scenarios())
FORMATS = ("json",) + (("yaml",) if interchange.yaml is not None else ())


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_dict_round_trip_is_lossless_over_the_registry(self, name):
        spec = get_scenario(name)
        assert dict_to_spec(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_text_round_trip_is_lossless_over_the_registry(self, name, fmt):
        spec = get_scenario(name)
        assert load_scenario(dump_scenario(spec, fmt=fmt), fmt=fmt).spec == spec

    def test_partition_round_trip_is_lossless(self):
        partition = PartitionSpec(
            shards=3,
            assignments={"lan1": 0, "host2": 2},
            backend="process",
        )
        assert dict_to_partition(partition_to_dict(partition)) == partition
        assert "sync" not in partition_to_dict(partition)

    def test_partition_workers_key_is_read_and_dropped(self):
        """Documents from before the worker-thread pool was removed still load."""
        plain = {"shards": 2}
        assert dict_to_partition(dict(plain, workers=3)) == dict_to_partition(plain)
        document = dict_to_document({
            "schema": SCHEMA,
            "spec": spec_to_dict(get_scenario("pair/direct")),
            "partition": dict(plain, workers=3),
        })
        assert document.partition == PartitionSpec(shards=2)

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_partition_sync_key_is_read_checked_and_dropped(self, sync):
        """Documents from before strict sync was removed still load."""
        plain = {"shards": 2, "backend": "process"}
        assert dict_to_partition(dict(plain, sync=sync)) == PartitionSpec(
            shards=2, backend="process"
        )
        with pytest.raises(InterchangeError, match="partition.sync"):
            dict_to_partition(dict(plain, sync="eventual"))

    @pytest.mark.parametrize("suffix", [".json"] + (
        [".yaml", ".yml"] if interchange.yaml is not None else []
    ))
    def test_file_round_trip_carries_partition_and_run(self, tmp_path, suffix):
        spec = get_scenario("ring/failover")
        partition = PartitionSpec(shards=2)
        run = {"purpose": "regression", "case": 7}
        path = save_scenario(tmp_path / f"doc{suffix}", spec, partition=partition,
                             run=run)
        document = load_scenario_file(path)
        assert document.spec == spec
        assert document.partition == partition
        assert document.run == run

    def test_document_without_extras_loads_with_defaults(self):
        spec = get_scenario("pair/direct")
        document = dict_to_document({"schema": SCHEMA, "spec": spec_to_dict(spec)})
        assert document.spec == spec
        assert document.partition is None
        assert document.run == {}

    @pytest.mark.parametrize("name", ["pair/active-bridge", "ring/failover",
                                      "gen/mesh"])
    def test_round_tripped_spec_drives_a_bit_identical_run(self, name):
        spec = get_scenario(name)
        loaded = load_scenario(dump_scenario(spec, fmt="json"), fmt="json").spec
        assert _drive_trace(spec) == _drive_trace(loaded)


def _drive_trace(spec):
    run = run_scenario(spec)
    run.warm_up()
    hosts = run.hosts
    if len(hosts) >= 2:
        PingRunner(run.sim, hosts[0], hosts[-1].ip, payload_size=64, count=2,
                   interval=0.05).run(start_time=run.sim.now)
    horizon = max([spec.ready_time] + [fault.at for fault in spec.faults]) + 0.5
    if run.sim.now < horizon:
        run.sim.run_until(horizon)
    return list(run.sim.trace)


class TestStrictRejection:
    def _document(self, name="pair/direct"):
        return document_to_dict(get_scenario(name))

    def test_unknown_document_key_is_rejected(self):
        document = self._document()
        document["topologee"] = {}
        with pytest.raises(InterchangeError, match=r"document.*topologee"):
            dict_to_document(document)

    def test_unknown_spec_key_is_rejected(self):
        document = self._document()
        document["spec"]["colour"] = "blue"
        with pytest.raises(InterchangeError, match=r"spec.*colour"):
            dict_to_document(document)

    def test_unknown_nested_key_names_its_location(self):
        document = self._document()
        document["spec"]["segments"][0]["flux"] = 1
        with pytest.raises(InterchangeError, match=r"spec\.segments\[0\].*flux"):
            dict_to_document(document)

    def test_missing_required_key_is_rejected(self):
        document = self._document()
        del document["spec"]["segments"][0]["name"]
        with pytest.raises(InterchangeError, match=r"missing required.*name"):
            dict_to_document(document)

    def test_wrong_collection_shape_is_rejected(self):
        document = self._document()
        document["spec"]["hosts"] = "host1"
        with pytest.raises(InterchangeError, match=r"spec\.hosts.*expected a list"):
            dict_to_document(document)

    def test_negative_partition_workers_is_rejected(self):
        document = self._document()
        document["partition"] = {"shards": 2, "workers": -1}
        with pytest.raises(InterchangeError, match=r"partition\.workers"):
            dict_to_document(document)

    def test_wrong_schema_version_is_rejected(self):
        document = self._document()
        document["schema"] = "repro/scenario/v0"
        with pytest.raises(InterchangeError, match="unsupported schema"):
            dict_to_document(document)

    def test_semantically_broken_topology_still_fails_loudly(self):
        document = self._document()
        document["spec"]["hosts"][0]["segment"] = "no-such-lan"
        with pytest.raises(ReproError):
            dict_to_document(document)

    def test_invalid_json_text_is_rejected(self):
        with pytest.raises(InterchangeError, match="invalid JSON"):
            load_scenario("{not json", fmt="json")

    @pytest.mark.skipif(interchange.yaml is None, reason="PyYAML not installed")
    def test_invalid_yaml_text_is_rejected(self):
        with pytest.raises(InterchangeError, match="invalid YAML"):
            load_scenario("{ [unbalanced", fmt="yaml")

    def test_unknown_format_is_rejected(self):
        spec = get_scenario("pair/direct")
        with pytest.raises(InterchangeError, match="unknown interchange format"):
            dump_scenario(spec, fmt="toml")
        with pytest.raises(InterchangeError, match="unknown interchange format"):
            load_scenario("{}", fmt="toml")

    def test_unrecognized_file_extension_is_rejected(self, tmp_path):
        spec = get_scenario("pair/direct")
        with pytest.raises(InterchangeError, match="cannot infer"):
            save_scenario(tmp_path / "doc.txt", spec)
