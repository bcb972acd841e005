"""The scenario fuzzer is itself under test.

Three contracts, in increasing order of teeth:

* the case stream is deterministic (same master seed, same cases), so a
  failing seed printed by CI reproduces locally, always;
* a short sweep of the real oracle is green in the regular test lane (the
  nightly job runs the long budgeted sweep);
* the harness *catches bugs*: injecting a determinism violation through the
  ``mutate`` hook must flip the oracle to ``failed``, shrinking must reduce
  the case, and the written reproducer must reload losslessly.  A fuzzer
  whose oracle cannot fail tests nothing.

Plus the regression the fuzzer earned: the shrunk reproducer for the
process-backend replica-lockstep bug (cut-segment service completions fired
owner-only, desyncing fault-model RNG across engine replicas) is committed
under ``tests/data/`` and re-checked here.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import fuzz_scenarios as fuzz_tool  # noqa: E402

from repro.scenario import (  # noqa: E402
    FUZZ_PARAM_SPACE,
    GENERATORS,
    PartitionSpec,
    get_scenario,
    interchange,
)

DATA_DIR = Path(__file__).resolve().parent / "data"


def _tree_case(case_id: int = 0, shards: int = 2) -> fuzz_tool.FuzzCase:
    """A small, tie-free case: gen/tree admits no same-instant wire ties,
    so *any* relaxed divergence must register as a failure, never as
    tie-excused."""
    params = {"depth": 1, "fanout": 2, "hosts_per_leaf": 1, "seed": 7}
    return fuzz_tool.FuzzCase(
        case_id=case_id,
        generator="gen/tree",
        params=params,
        spec=get_scenario("gen/tree", **params),
        shards=shards,
        check_process=False,
    )


class TestCaseStream:
    def test_draw_case_is_deterministic(self):
        first = fuzz_tool.draw_case(2026, 3)
        second = fuzz_tool.draw_case(2026, 3)
        assert first == second

    def test_distinct_case_ids_draw_distinct_cases(self):
        cases = [fuzz_tool.draw_case(2026, case_id) for case_id in range(8)]
        assert len({case.spec.name for case in cases}) > 1

    def test_param_space_covers_every_generator(self):
        assert set(FUZZ_PARAM_SPACE) == set(GENERATORS)

    def test_drawn_parameters_respect_the_declared_space(self):
        for case_id in range(16):
            case = fuzz_tool.draw_case(99, case_id)
            assert case.generator in GENERATORS
            space = FUZZ_PARAM_SPACE[case.generator]
            for name, (low, high) in space.items():
                assert low <= case.params[name] <= high
            assert 2 <= case.shards <= 4
            for fault in case.spec.faults:
                assert fault.at < case.spec.ready_time + 0.5


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_same_seed_same_spec(self, generator):
        params = {name: low for name, (low, _) in FUZZ_PARAM_SPACE[generator].items()}
        assert get_scenario(generator, seed=11, **params) == get_scenario(
            generator, seed=11, **params
        )

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_seed_varies_the_topology(self, generator):
        params = {
            name: high for name, (_, high) in FUZZ_PARAM_SPACE[generator].items()
        }
        specs = {
            repr(get_scenario(generator, seed=seed, **params)) for seed in range(6)
        }
        assert len(specs) > 1

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_generated_specs_survive_interchange(self, generator):
        spec = get_scenario(generator, seed=3)
        text = interchange.dump_scenario(spec, fmt=fuzz_tool.FMT)
        assert interchange.load_scenario(text, fmt=fuzz_tool.FMT).spec == spec


class TestSmokeSweep:
    def test_ten_case_sweep_is_green(self, tmp_path):
        lines = []
        assert fuzz_tool.fuzz(10, 2026, out_dir=tmp_path, log=lines.append) == 0
        # Green run: no reproducer documents were written.
        assert not list(tmp_path.iterdir())
        assert lines[-1].startswith("ok: 10 case(s)")


class TestInjectedBug:
    """The acceptance gate: a seeded determinism bug is caught and shrunk."""

    @staticmethod
    def _drop_last_relaxed(mode, records):
        return records[:-1] if mode == "relaxed" else records

    def test_unmutated_case_is_exact(self):
        result = fuzz_tool.run_case(_tree_case())
        assert result.status == "exact"
        assert result.tie_horizon is None

    def test_injected_relaxed_divergence_is_caught(self):
        result = fuzz_tool.run_case(_tree_case(), mutate=self._drop_last_relaxed)
        assert result.status == "failed"
        assert result.failing_mode == "relaxed"
        assert result.divergence_time is not None

    def test_injected_reference_divergence_is_caught(self):
        # The single engine is the only reference: a perturbed reference
        # stream must fail the fabric's comparison just as a perturbed
        # fabric stream does.
        def perturb(mode, records):
            return records[::-1] if mode == "reference" else records

        result = fuzz_tool.run_case(_tree_case(), mutate=perturb)
        assert result.status == "failed"
        assert result.failing_mode == "relaxed"

    def test_shrinking_reduces_the_case_and_keeps_it_failing(self, tmp_path):
        case = _tree_case(case_id=41, shards=3)
        result = fuzz_tool.run_case(case, mutate=self._drop_last_relaxed)
        assert result.status == "failed"

        shrunk, shrunk_result = fuzz_tool.shrink_case(
            case, result, mutate=self._drop_last_relaxed
        )
        assert shrunk_result.status == "failed"
        assert shrunk_result.failing_mode == "relaxed"
        # The engine config simplifies and the topology only ever loses parts.
        assert shrunk.shards <= case.shards
        assert len(shrunk.spec.segments) <= len(case.spec.segments)
        assert len(shrunk.spec.hosts) < len(case.spec.hosts)

        path = fuzz_tool.write_reproducer(tmp_path, 2026, shrunk, shrunk_result)
        assert path.name == f"case-0041.{fuzz_tool.FMT}"
        document = interchange.load_scenario_file(path)
        assert document.spec == shrunk.spec
        assert document.partition == PartitionSpec(shards=shrunk.shards)
        assert document.run["failing_mode"] == "relaxed"
        assert document.run["fuzz_seed"] == 2026

    def test_invalid_reductions_are_skipped_not_fatal(self):
        """Shrinking a single-segment case tries un-compilable reductions
        (dropping the last segment strands the hosts); those must be skipped,
        leaving a still-failing minimal case."""
        case = _tree_case()
        minimal = replace(
            case, spec=fuzz_tool._without_segment(case.spec, case.spec.segments[-1].name)
        )
        result = fuzz_tool.run_case(minimal, mutate=self._drop_last_relaxed)
        assert result.status == "failed"
        shrunk, shrunk_result = fuzz_tool.shrink_case(
            minimal, result, mutate=self._drop_last_relaxed
        )
        assert shrunk_result.status == "failed"
        assert len(shrunk.spec.segments) >= 1


class TestCommittedReproducers:
    """Every shrunk reproducer under tests/data/ stays fixed."""

    def test_process_replica_lockstep_case_stays_fixed(self):
        pytest.importorskip("yaml")
        document = interchange.load_scenario_file(
            DATA_DIR / "process_replica_lockstep.yaml"
        )
        partition = document.partition
        assert partition is not None and partition.backend == "process"

        sequential = fuzz_tool._drive(document.spec, partition.shards)
        process = fuzz_tool._drive(document.spec, partition.shards, backend="process")
        assert (
            process.sim.trace.canonical_records()
            == sequential.sim.trace.canonical_records()
        )
