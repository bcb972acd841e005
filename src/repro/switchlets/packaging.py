"""Building switchlet packages from the application classes.

The paper ships Caml byte-code files; the reproduction ships Python source.
To keep the shipped code identical to the code the test suite exercises, the
packaging layer extracts the application classes' source with
``inspect.getsource``, concatenates it with a small registration epilogue
(the "top-level forms that call a registration function" of Section 5.1.2),
and wraps the result in a :class:`~repro.core.switchlet.SwitchletPackage`
whose interface digests are computed against the target environment.

The result is genuinely loadable code: the loader compiles it with restricted
builtins and executes it against the thinned environment, and the only way it
can interact with the node afterwards is through the functions it registered.
"""

from __future__ import annotations

import inspect
import textwrap
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.switchlet import SwitchletPackage
from repro.switchlets import control as control_module
from repro.switchlets import dec_spanning_tree as dec_module
from repro.switchlets import dumb_bridge as dumb_module
from repro.switchlets import learning_bridge as learning_module
from repro.switchlets import spanning_tree as stp_module
from repro.switchlets import vlan_bridge as vlan_module

#: Environment modules every bridge switchlet is compiled against.
DEFAULT_REQUIRED_MODULES = ("Safestd", "Safeunix", "Log", "Safethread", "Func", "Unixnet")


@lru_cache(maxsize=None)
def _class_source(component: type) -> str:
    """The dedented source of one class (cached: extraction tokenizes the
    whole defining module, and every node build re-packages the same
    module-level classes)."""
    return textwrap.dedent(inspect.getsource(component))


@lru_cache(maxsize=None)
def _package_source(components: tuple, registration_source: str) -> str:
    """The shipped source of one package (cached: every bridge built from the
    same classes and registration forms ships one shared string)."""
    return component_source(components) + "\n\n" + textwrap.dedent(registration_source)


def component_source(components: Iterable[type]) -> str:
    """Concatenate the (deduplicated) source of the given classes."""
    seen = set()
    pieces = []
    for component in components:
        if component in seen:
            continue
        seen.add(component)
        pieces.append(_class_source(component))
    return "\n\n".join(pieces)


def build_package(
    name: str,
    components: Sequence[type],
    registration_source: str,
    environment: Optional[Mapping[str, object]] = None,
    required_modules: Sequence[str] = DEFAULT_REQUIRED_MODULES,
    metadata: Optional[Mapping[str, str]] = None,
) -> SwitchletPackage:
    """Assemble a switchlet package.

    Args:
        name: package name.
        components: classes whose source is shipped (order preserved,
            duplicates dropped).
        registration_source: the top-level forms appended after the class
            definitions; they run when the switchlet is loaded.
        environment: the thinned environment the package is compiled against
            (its interface digests are recorded).  ``None`` records no
            interface requirements — useful for packages built before any
            node exists, at the cost of skipping the link-time check.
        required_modules: which environment modules to record digests for.
        metadata: extra descriptive fields.
    """
    source = _package_source(tuple(components), registration_source)
    if environment is None:
        return SwitchletPackage(name=name, source=source, metadata=dict(metadata or {}))
    return SwitchletPackage.build(
        name=name,
        source=source,
        environment=environment,
        required_modules=list(required_modules),
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# The paper's switchlets
# ---------------------------------------------------------------------------


def dumb_bridge_package(
    environment: Optional[Mapping[str, object]] = None,
) -> SwitchletPackage:
    """The first switchlet: the dumb bridge / buffered repeater."""
    return build_package(
        name="dumb-bridge",
        components=dumb_module.PACKAGED_COMPONENTS,
        registration_source=dumb_module.REGISTRATION_SOURCE,
        environment=environment,
        metadata={"description": "minimal dumb bridge (buffered repeater)"},
    )


def learning_bridge_package(
    environment: Optional[Mapping[str, object]] = None,
    aging_time: Optional[float] = None,
) -> SwitchletPackage:
    """The second switchlet: the self-learning switching function."""
    registration = learning_module.REGISTRATION_SOURCE
    if aging_time is not None:
        registration = (
            "\n_app = LearningBridgeApp(Unixnet, Func, Log, Safeunix, Safestd, "
            f"aging_time={float(aging_time)!r})\n"
            "_app.start()\n"
            'Func.register("switchlet.learning-bridge", _app)\n'
        )
    return build_package(
        name="learning-bridge",
        components=learning_module.PACKAGED_COMPONENTS,
        registration_source=registration,
        environment=environment,
        metadata={"description": "self-learning bridge switching function"},
    )


def vlan_bridge_package(
    environment: Optional[Mapping[str, object]] = None,
    default_vlan: Optional[int] = None,
    aging_time: Optional[float] = None,
) -> SwitchletPackage:
    """The VLAN-aware learning bridge (802.1Q access/trunk semantics).

    Like the plain learning switchlet it replaces the dumb bridge's
    switching function; the port table is pushed afterwards through the
    ``"bridge.vlan.configure"`` access point.
    """
    registration = vlan_module.REGISTRATION_SOURCE
    if default_vlan is not None or aging_time is not None:
        arguments = ""
        if default_vlan is not None:
            arguments += f", default_vlan={int(default_vlan)!r}"
        if aging_time is not None:
            arguments += f", aging_time={float(aging_time)!r}"
        registration = (
            "\n_app = VlanLearningBridgeApp(Unixnet, Func, Log, Safeunix, Safestd"
            f"{arguments})\n"
            "_app.start()\n"
            'Func.register("switchlet.vlan-bridge", _app)\n'
        )
    return build_package(
        name="vlan-bridge",
        components=vlan_module.PACKAGED_COMPONENTS,
        registration_source=registration,
        environment=environment,
        metadata={"description": "802.1Q VLAN-aware learning bridge"},
    )


def spanning_tree_package(
    environment: Optional[Mapping[str, object]] = None,
    autostart: bool = True,
    buggy: bool = False,
    hello_time: Optional[float] = None,
    max_age: Optional[float] = None,
    forward_delay: Optional[float] = None,
) -> SwitchletPackage:
    """The third switchlet: the IEEE 802.1D spanning tree.

    Args:
        environment: target environment for interface digests.
        autostart: start the protocol at load time (``False`` gives Table 1's
            "loaded but idle" state, ready for the control switchlet).
        buggy: ship the deliberately faulty implementation used by the
            fallback experiment.
        hello_time / max_age / forward_delay: override the standard 802.1D
            timers (2 s / 20 s / 15 s).  Failure detection rides on
            ``max_age`` expiry and failover on the two ``forward_delay``
            transitions, so the failover scenarios compress these to run
            whole reconvergence episodes in seconds of simulated time.
    """
    timer_args = ""
    if hello_time is not None:
        timer_args += f", hello_time={float(hello_time)!r}"
    if max_age is not None:
        timer_args += f", max_age={float(max_age)!r}"
    if forward_delay is not None:
        timer_args += f", forward_delay={float(forward_delay)!r}"
    if buggy:
        components = stp_module.PACKAGED_COMPONENTS_BUGGY
        dormant = stp_module.REGISTRATION_SOURCE_BUGGY_DORMANT
        app_class = "BuggySpanningTreeApp"
        name = "spanning-tree-802.1d-buggy"
        description = "deliberately faulty 802.1D spanning tree (fallback experiment)"
    else:
        components = stp_module.PACKAGED_COMPONENTS
        dormant = stp_module.REGISTRATION_SOURCE_DORMANT
        app_class = "SpanningTreeApp"
        name = "spanning-tree-802.1d"
        description = "IEEE 802.1D spanning tree switchlet"
    if timer_args:
        # The dormant constants construct the app with default timers;
        # rewrite just the constructor call so the registration contract
        # (registry key, environment arguments) stays spelled in one place.
        registration = dormant.replace(
            "Safethread)", f"Safethread{timer_args})"
        )
        if autostart:
            registration = registration + "\n_app.start(listen=True)\n"
    elif not buggy:
        # Byte-exact legacy sources for the default-timer packages.
        registration = (
            stp_module.REGISTRATION_SOURCE if autostart else dormant
        )
    else:
        registration = dormant
        if autostart:
            registration = registration + "\n_app.start(listen=True)\n"
    return build_package(
        name=name,
        components=components,
        registration_source=registration,
        environment=environment,
        metadata={"description": description},
    )


def dec_spanning_tree_package(
    environment: Optional[Mapping[str, object]] = None,
) -> SwitchletPackage:
    """The DEC-format "old protocol" spanning tree (loaded and started)."""
    return build_package(
        name="spanning-tree-dec",
        components=dec_module.PACKAGED_COMPONENTS,
        registration_source=dec_module.REGISTRATION_SOURCE,
        environment=environment,
        metadata={"description": "DEC-style spanning tree (old protocol)"},
    )


def control_package(
    environment: Optional[Mapping[str, object]] = None,
    suppression_period: float = control_module.ControlApp.SUPPRESSION_PERIOD,
    validation_delay: float = control_module.ControlApp.VALIDATION_DELAY,
) -> SwitchletPackage:
    """The protocol-transition control switchlet.

    The suppression window and validation delay default to the paper's 30 s
    and 60 s but can be shortened for fast-running tests.
    """
    registration = (
        "\n_app = ControlApp(Unixnet, Func, Log, Safeunix, Safethread, "
        f"suppression_period={float(suppression_period)!r}, "
        f"validation_delay={float(validation_delay)!r})\n"
        'Func.register("switchlet.control", _app)\n'
        "_app.start()\n"
    )
    return build_package(
        name="transition-control",
        components=control_module.PACKAGED_COMPONENTS,
        registration_source=registration,
        environment=environment,
        metadata={"description": "automatic protocol transition control switchlet"},
    )


def standard_bridge_packages(
    environment: Optional[Mapping[str, object]] = None,
    include_spanning_tree: bool = True,
) -> list:
    """The incremental switchlet stack of Section 5.3, in load order."""
    packages = [dumb_bridge_package(environment), learning_bridge_package(environment)]
    if include_spanning_tree:
        packages.append(spanning_tree_package(environment, autostart=True))
    return packages
