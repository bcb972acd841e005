"""Tests for switchlet packages, the loader, and the name-space security model."""

from __future__ import annotations

import pytest

from repro.core.environment import ENVIRONMENT_MODULE_NAMES
from repro.core.loader import SwitchletLoader
from repro.core.node import ActiveNode
from repro.core.signature import digest_interface
from repro.core.switchlet import SwitchletPackage
from repro.exceptions import LoadError, SignatureMismatch
from repro.lan.segment import Segment
from repro.sim.engine import Simulator
from repro.switchlets import learning_bridge_package


def _node(sim):
    node = ActiveNode(sim, "node-under-test")
    node.add_interface("eth0", Segment(sim, "lan-a"))
    node.add_interface("eth1", Segment(sim, "lan-b"))
    return node


@pytest.fixture
def node(sim):
    return _node(sim)


# ---------------------------------------------------------------------------
# SwitchletPackage
# ---------------------------------------------------------------------------


class TestSwitchletPackage:
    def test_digest_computed_automatically(self):
        package = SwitchletPackage(name="p", source="x = 1")
        assert package.source_digest
        assert package.verify_source()

    def test_serialization_roundtrip(self):
        package = SwitchletPackage(
            name="p",
            source="Func.register('k', lambda: 1)",
            requires={"Func": "abc"},
            metadata={"description": "test"},
        )
        rebuilt = SwitchletPackage.from_bytes(package.to_bytes())
        assert rebuilt == package

    def test_build_records_environment_digests(self, node):
        package = SwitchletPackage.build(
            "p", "x = 1", node.environment.modules, required_modules=["Func", "Log"]
        )
        assert set(package.requires) == {"Func", "Log"}

    def test_build_with_unknown_requirement(self, node):
        with pytest.raises(LoadError):
            SwitchletPackage.build("p", "x = 1", node.environment.modules,
                                   required_modules=["NotAModule"])

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(LoadError):
            SwitchletPackage.from_bytes(b"not json at all \xff")
        with pytest.raises(LoadError):
            SwitchletPackage.from_bytes(b'{"format": "something-else"}')

    def test_name_required(self):
        with pytest.raises(LoadError):
            SwitchletPackage(name="", source="x = 1")

    def test_tampering_helper_keeps_old_digest(self):
        package = SwitchletPackage(name="p", source="x = 1")
        tampered = package.with_tampered_source("x = 2")
        assert not tampered.verify_source()

    def test_describe(self):
        package = SwitchletPackage(name="p", source="x = 1")
        assert "p" in package.describe()

    def test_one_source_string_per_distinct_package(self, node):
        environment = node.environment.modules
        first = learning_bridge_package(environment)
        assert learning_bridge_package(environment).source is first.source
        aged = learning_bridge_package(environment, aging_time=5.0)
        assert aged.source != first.source
        assert "aging_time=5.0" in aged.source
        assert learning_bridge_package(environment, aging_time=5.0).source is aged.source


# ---------------------------------------------------------------------------
# Loader basics
# ---------------------------------------------------------------------------


class TestLoader:
    def test_environment_has_the_eight_modules(self, node):
        assert set(node.environment.modules) == set(ENVIRONMENT_MODULE_NAMES)
        assert set(node.loader.available_units()) == set(ENVIRONMENT_MODULE_NAMES)

    def test_load_executes_top_level_registration(self, node):
        package = SwitchletPackage.build(
            "hello",
            "Func.register('greeting', lambda: 'hi from a switchlet')",
            node.environment.modules,
        )
        node.loader.load(package)
        assert node.func.call("greeting") == "hi from a switchlet"
        assert node.loader.is_loaded("hello")
        assert node.loader.loaded_names() == ["hello"]

    def test_load_bytes(self, node):
        package = SwitchletPackage.build(
            "from-bytes", "Func.register('k', 42)", node.environment.modules
        )
        node.loader.load_bytes(package.to_bytes())
        assert node.func.lookup("k") == 42

    def test_syntax_error_rejected(self, node):
        package = SwitchletPackage.build("bad", "def broken(:\n  pass", node.environment.modules)
        with pytest.raises(LoadError):
            node.loader.load(package)
        assert node.loader.loads_rejected == 1

    def test_runtime_error_in_top_level_rejected(self, node):
        package = SwitchletPackage.build(
            "boom", "raise ValueError('top level failure')", node.environment.modules
        )
        with pytest.raises(LoadError):
            node.loader.load(package)

    def test_counters(self, node):
        good = SwitchletPackage.build("ok", "x = 1", node.environment.modules)
        node.loader.load(good)
        assert node.loader.loads_attempted == 1
        assert node.loader.loads_succeeded == 1

    def test_load_traced(self, node):
        package = SwitchletPackage.build("traced", "x = 1", node.environment.modules)
        node.loader.load(package)
        assert node.sim.trace.count(category="switchlet.load", source="node-under-test") == 1


# ---------------------------------------------------------------------------
# Link-time checks (the Caml MD5 interface analogue)
# ---------------------------------------------------------------------------


class TestSignatureChecks:
    def test_tampered_source_rejected(self, node):
        package = SwitchletPackage.build("victim", "x = 1", node.environment.modules)
        tampered = package.with_tampered_source("Func.register('evil', lambda: 'pwned')")
        with pytest.raises(SignatureMismatch):
            node.loader.load(tampered)
        assert not node.func.registered("evil")

    def test_missing_required_module_rejected(self, node):
        package = SwitchletPackage(
            name="needs-missing",
            source="x = 1",
            requires={"SomethingElse": "0" * 32},
        )
        with pytest.raises(SignatureMismatch):
            node.loader.load(package)

    def test_wrong_interface_digest_rejected(self, node):
        # Built against an attacker's wider interface for Func.
        package = SwitchletPackage(
            name="wrong-interface",
            source="x = 1",
            requires={"Func": "0" * 32},
        )
        with pytest.raises(SignatureMismatch):
            node.loader.load(package)

    def test_digest_memo_keeps_every_check(self, node):
        """Tampering fails even when each digest involved is already memoized."""
        modules = node.environment.modules
        honest_a = SwitchletPackage.build("a", "Func.register('a', 1)", modules)
        honest_b = SwitchletPackage.build("b", "Func.register('b', 2)", modules)
        node.loader.load(honest_a)
        node.loader.load(honest_b)
        for package in (
            honest_a.with_tampered_source(honest_b.source),
            SwitchletPackage(
                name="forged-digest",
                source=honest_a.source,
                requires=dict(honest_a.requires),
                source_digest=honest_b.source_digest,
            ),
            SwitchletPackage(
                name="forged-interface",
                source=honest_a.source,
                requires={**honest_a.requires, "Func": honest_a.requires["Unixnet"]},
            ),
        ):
            with pytest.raises(SignatureMismatch):
                node.loader.load(package)
        assert node.loader.loads_rejected == 3
        assert node.loader.loaded_names() == ["a", "b"]

    def test_digest_interface_accepts_any_iterable(self):
        names = ["send", "recv", "bind"]
        digest = digest_interface(names)
        assert digest_interface(names) == digest
        assert digest_interface(tuple(names)) == digest
        assert digest_interface(iter(names)) == digest
        assert digest_interface(set(names)) == digest
        assert digest_interface(dict.fromkeys(names)) == digest
        assert digest_interface(names[:2]) != digest

    def test_package_built_on_one_node_loads_on_another(self, sim):
        node_a = _node(sim)
        node_b = ActiveNode(sim, "other-node")
        node_b.add_interface("eth0", Segment(sim, "lan-c"))
        package = SwitchletPackage.build(
            "portable", "Func.register('k', 1)", node_a.environment.modules
        )
        node_b.loader.load(package)
        assert node_b.func.lookup("k") == 1


# ---------------------------------------------------------------------------
# Name-space security: what loaded code cannot do
# ---------------------------------------------------------------------------


class TestSecurityModel:
    def _load(self, node, name, source):
        package = SwitchletPackage.build(name, source, node.environment.modules)
        return node.loader.load(package)

    def test_switchlet_cannot_open_files(self, node):
        source = (
            "try:\n"
            "    open('/etc/passwd')\n"
            "    Func.register('escaped', True)\n"
            "except NameError:\n"
            "    Func.register('blocked', True)\n"
        )
        self._load(node, "file-test", source)
        assert node.func.registered("blocked")
        assert not node.func.registered("escaped")

    def test_switchlet_cannot_import(self, node):
        source = (
            "try:\n"
            "    import os\n"
            "    Func.register('escaped', True)\n"
            "except ImportError:\n"
            "    Func.register('blocked', True)\n"
        )
        self._load(node, "import-test", source)
        assert node.func.registered("blocked")

    def test_switchlet_cannot_use_eval_or_exec(self, node):
        source = (
            "blocked = 0\n"
            "try:\n"
            "    eval('1+1')\n"
            "except NameError:\n"
            "    blocked += 1\n"
            "try:\n"
            "    exec('x = 1')\n"
            "except NameError:\n"
            "    blocked += 1\n"
            "Func.register('blocked_count', blocked)\n"
        )
        self._load(node, "eval-test", source)
        assert node.func.lookup("blocked_count") == 2

    def test_switchlet_cannot_reach_excluded_module_members(self, node):
        # Log exposes only log(); set_method/messages are loader-side.
        source = (
            "result = {}\n"
            "try:\n"
            "    Log.set_method('off')\n"
            "    result['reached'] = True\n"
            "except Exception as exc:\n"
            "    result['error'] = type(exc).__name__\n"
            "Func.register('thinning-result', result)\n"
        )
        self._load(node, "thinning-test", source)
        result = node.func.lookup("thinning-result")
        assert "reached" not in result
        assert result["error"] == "ThinningViolation"

    def test_switchlet_cannot_see_python_globals(self, node):
        source = (
            "names = []\n"
            "for name in ('globals', 'locals', 'vars', '__import__', 'compile', 'open'):\n"
            "    try:\n"
            "        eval  # placeholder; direct name check below\n"
            "    except NameError:\n"
            "        pass\n"
            "missing = 0\n"
            "try:\n"
            "    globals\n"
            "except NameError:\n"
            "    missing += 1\n"
            "try:\n"
            "    __import__\n"
            "except NameError:\n"
            "    missing += 1\n"
            "Func.register('missing-count', missing)\n"
        )
        self._load(node, "globals-test", source)
        assert node.func.lookup("missing-count") == 2

    def test_two_switchlets_share_only_registered_names(self, node):
        self._load(node, "first", "secret_value = 12345\nFunc.register('shared', 99)\n")
        source = (
            "result = {}\n"
            "try:\n"
            "    result['stolen'] = secret_value\n"
            "except NameError:\n"
            "    result['isolated'] = True\n"
            "result['shared'] = Func.lookup('shared')\n"
            "Func.register('second-result', result)\n"
        )
        self._load(node, "second", source)
        result = node.func.lookup("second-result")
        assert result.get("isolated") is True
        assert result["shared"] == 99
        assert "stolen" not in result

    def test_switchlet_cannot_mutate_environment_modules(self, node):
        source = (
            "result = {}\n"
            "try:\n"
            "    Func.register = None\n"
            "    result['mutated'] = True\n"
            "except Exception as exc:\n"
            "    result['error'] = type(exc).__name__\n"
            "Func.register('mutation-result', result)\n"
        )
        self._load(node, "mutate-test", source)
        result = node.func.lookup("mutation-result")
        assert "mutated" not in result
        assert result["error"] == "ThinningViolation"

    def test_switchlet_cannot_read_a_facade_export_table(self, node):
        # The facade has no __dict__ and no private fields: only its
        # exports (and the class-level interface) are reachable by name.
        source = (
            "result = {}\n"
            "for name in ('__dict__', '_exports', '_name'):\n"
            "    try:\n"
            "        result[name] = getattr(Unixnet, name)\n"
            "    except Exception as exc:\n"
            "        result[name] = type(exc).__name__\n"
            "try:\n"
            "    del Unixnet.send_pkt_out\n"
            "except Exception as exc:\n"
            "    result['del'] = type(exc).__name__\n"
            "Func.register('facade-probe', result)\n"
        )
        self._load(node, "facade-probe", source)
        assert node.func.lookup("facade-probe") == {
            "__dict__": "ThinningViolation",
            "_exports": "ThinningViolation",
            "_name": "ThinningViolation",
            "del": "ThinningViolation",
        }
        assert node.environment.modules["Unixnet"].send_pkt_out is not None
