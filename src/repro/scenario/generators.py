"""Seeded random topology generators, registered as ordinary scenarios.

Every hand-written catalog entry is a topology someone thought of; these
factories emit the ones nobody would write down.  Each generator is a pure
function of its parameters — the ``seed`` drives a private
:class:`random.Random`, so ``gen/tree`` with ``depth=3, fanout=2, seed=7``
is *one* reproducible topology and ``seed`` is an ordinary matrix axis,
sweepable exactly like a bandwidth.  The generated specs are valid
:class:`~repro.scenario.spec.ScenarioSpec` instances: they compile on every
engine configuration, round-trip through the interchange format, and feed
the scenario fuzzer (``tools/fuzz_scenarios.py``) with arbitrary shapes for
the engine-mode invariance oracle.

Shapes:

* ``gen/tree`` — a random bridge tree: each interior segment sprouts
  1..``fanout`` child segments (seeded), hosts on the leaves.  Loop-free,
  learning bridges only.
* ``gen/fattree`` — a leaf-spine Clos: every leaf bridge uplinks to a
  seeded subset of the spine segments.  Redundant paths, so the bridges
  run the spanning tree.
* ``gen/mesh`` — a random connected segment graph: a seeded spanning tree
  plus ``extra_links`` random shortcut bridges.  Spanning tree required.
* ``gen/smallworld`` — a closed bridge ring with seeded long-range shortcut
  bridges (Newman–Watts-style rewiring of the ring, which keeps the graph
  connected).  Spanning tree required.

Two structural invariants every generator maintains:

* **Tie staggering** — per-segment propagation delays are offset by
  ``2^index`` nanoseconds (the ``ring/failover`` idiom, strengthened):
  on loops, broadcasts race along multiple paths and equal cumulative
  cable delays would land order-sensitive same-instant events the
  canonical-merge contract deliberately refuses to order.  Powers of two
  make every distinct *set* of traversed cables sum to a distinct delay
  (unequal cable lengths are the physical truth anyway).  Relatedly, no
  two generated devices ever share more than one segment: parallel
  bridges between the same segment pair hear a broadcast at the same
  instant on one wire and retransmit onto the other at the same
  nanosecond — a structurally guaranteed non-commuting tie.  Staggering
  removes the *static* tie classes only: queueing feedback (a frame's
  transmit time includes waits behind other frames) can still re-align
  two causal chains onto one wire at the same nanosecond.  Those residual
  ties are deterministic per seed and are exactly the case the
  canonical-merge contract scopes out; the fuzzer detects them on the
  reference trace (same-instant multi-sender enqueues) and excuses
  relaxed-mode divergence at or after the first tie instant — see
  ``tools/fuzz_scenarios.py``.  The loopy generators therefore register
  with ``tie_prone=True``: the catalog-wide tests that compare a fabric's
  canonical records with the single engine's skip them (the fuzzer owns
  that contract with its tie-horizon refinement), while the catalog-wide
  fabric determinism test still covers them unconditionally.
* **Compressed 802.1D timers** — loopy shapes run the spanning tree with
  :data:`FAST_STP_TIMERS` by default (overridable per call), so whole
  convergence episodes fit in a few simulated seconds and a fuzz case
  stays cheap; ``ready_time`` is derived from the timers exactly as the
  ``ring/failover`` entry derives it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.lan.segment import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_DELAY
from repro.scenario.registry import register_scenario
from repro.scenario.spec import (
    BASIC_WARMUP,
    DeviceSpec,
    HostSpec,
    PortSpec,
    ScenarioSpec,
    SegmentSpec,
    SwitchletSpec,
)

#: Registered generator scenario names (the docs-coverage contract:
#: every name here must be documented in ``docs/topology-interchange.md``).
GENERATORS = ("gen/tree", "gen/fattree", "gen/mesh", "gen/smallworld")

#: Compressed 802.1D timers for generated loopy topologies: whole
#: listening -> learning -> forwarding walks in ~4 simulated seconds.
FAST_STP_TIMERS = {"hello_time": 0.5, "max_age": 2.5, "forward_delay": 1.0}


def _stp_ready_time(hello_time: float, forward_delay: float) -> float:
    """The ``ring/failover`` formula: two forwarding-delay stages plus a
    hello round of margin."""
    return 2.0 * forward_delay + 2.0 * hello_time + 1.0


def _segment(index: int, name: str, bandwidth_bps: float) -> SegmentSpec:
    # 2^index ns stagger: distinct segment sets always sum to distinct
    # path delays (exponent capped so huge swept topologies stay sane —
    # beyond the cap the uniqueness guarantee lapses, far outside the
    # fuzzed size space).
    return SegmentSpec(
        name,
        bandwidth_bps=bandwidth_bps,
        propagation_delay=DEFAULT_PROPAGATION_DELAY + (1 << min(index, 20)) * 1e-9,
    )


def _learning_stack(forward_delay: float = 0.0) -> Tuple[SwitchletSpec, ...]:
    aging = {"aging_time": forward_delay} if forward_delay else {}
    return (
        SwitchletSpec("dumb-bridge"),
        SwitchletSpec("learning-bridge", aging),
    )


def _stp_stack(
    hello_time: float, max_age: float, forward_delay: float
) -> Tuple[SwitchletSpec, ...]:
    # Learning aging is shortened to the forwarding delay (the TCN-style
    # approximation the failover scenario uses) so post-reconvergence
    # traffic reroutes instead of black-holing on stale entries.
    return _learning_stack(forward_delay) + (
        SwitchletSpec(
            "spanning-tree",
            {
                "autostart": True,
                "hello_time": hello_time,
                "max_age": max_age,
                "forward_delay": forward_delay,
            },
        ),
    )


def _bridge(
    name: str, segments: Tuple[str, ...], stack: Tuple[SwitchletSpec, ...]
) -> DeviceSpec:
    return DeviceSpec(
        name,
        kind="active-node",
        ports=tuple(
            PortSpec(f"eth{index}", segment)
            for index, segment in enumerate(segments)
        ),
        switchlets=stack,
    )


def _check_positive(**values: int) -> None:
    for key, value in values.items():
        if value < 1:
            raise ValueError(f"{key} must be at least 1 (got {value})")


@register_scenario(
    "gen/tree",
    description="seeded random bridge tree (depth x fanout), hosts on the leaves",
    axes=("depth", "fanout", "hosts_per_leaf", "seed", "bandwidth_bps"),
)
def generated_tree(
    depth: int = 2,
    fanout: int = 2,
    hosts_per_leaf: int = 1,
    seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
) -> ScenarioSpec:
    """Each interior segment sprouts 1..``fanout`` child segments through a
    learning bridge; ``hosts_per_leaf`` hosts sit on every depth-``depth``
    segment and one host on the root, so there is always end-to-end traffic
    to drive.  Loop-free by construction."""
    _check_positive(depth=depth, fanout=fanout, hosts_per_leaf=hosts_per_leaf)
    rng = random.Random(f"gen/tree:{seed}")
    segments: List[SegmentSpec] = [_segment(0, "s0", bandwidth_bps)]
    devices: List[DeviceSpec] = []
    # (segment name, depth) frontier, expanded in creation order.
    frontier: List[Tuple[str, int]] = [("s0", 0)]
    leaves: List[str] = []
    stack = _learning_stack()
    while frontier:
        parent, level = frontier.pop(0)
        if level == depth:
            leaves.append(parent)
            continue
        for _ in range(rng.randint(1, fanout)):
            index = len(segments)
            child = f"s{index}"
            segments.append(_segment(index, child, bandwidth_bps))
            devices.append(_bridge(f"b{len(devices) + 1}", (parent, child), stack))
            frontier.append((child, level + 1))
    hosts = [HostSpec("s0h1", "s0")]
    for leaf in leaves:
        hosts.extend(
            HostSpec(f"{leaf}h{index + 1}", leaf) for index in range(hosts_per_leaf)
        )
    return ScenarioSpec(
        name="gen/tree",
        label="gen-tree",
        description="seeded random bridge tree",
        segments=tuple(segments),
        hosts=tuple(hosts),
        devices=tuple(devices),
        ready_time=BASIC_WARMUP,
    )


@register_scenario(
    "gen/fattree",
    description="seeded leaf-spine Clos: leaf bridges uplink to a random spine subset",
    axes=("spines", "leaves", "hosts_per_leaf", "seed", "bandwidth_bps"),
    tie_prone=True,
)
def generated_fattree(
    spines: int = 2,
    leaves: int = 3,
    hosts_per_leaf: int = 1,
    seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    hello_time: float = FAST_STP_TIMERS["hello_time"],
    max_age: float = FAST_STP_TIMERS["max_age"],
    forward_delay: float = FAST_STP_TIMERS["forward_delay"],
) -> ScenarioSpec:
    """``spines`` spine segments, ``leaves`` leaf segments; every leaf
    uplinks to a seeded non-empty subset of the spines (spine 0 always
    included, so the fabric is connected), one two-port bridge per uplink —
    so every bridge spans a distinct (leaf, spine) pair and no two bridges
    share more than one segment (the no-parallel-paths tie invariant).
    Multiple uplinks mean redundant paths, so the bridges run the
    (compressed-timer) spanning tree."""
    _check_positive(spines=spines, leaves=leaves, hosts_per_leaf=hosts_per_leaf)
    rng = random.Random(f"gen/fattree:{seed}")
    segments = [_segment(index, f"sp{index}", bandwidth_bps) for index in range(spines)]
    stack = _stp_stack(hello_time, max_age, forward_delay)
    devices: List[DeviceSpec] = []
    hosts: List[HostSpec] = []
    for leaf in range(leaves):
        index = len(segments)
        name = f"lf{leaf}"
        segments.append(_segment(index, name, bandwidth_bps))
        uplinks = ["sp0"] + [
            f"sp{spine}" for spine in range(1, spines) if rng.random() < 0.5
        ]
        for up, spine in enumerate(uplinks):
            devices.append(
                _bridge(f"b{leaf + 1}u{up + 1}", (name, spine), stack)
            )
        hosts.extend(
            HostSpec(f"{name}h{index + 1}", name) for index in range(hosts_per_leaf)
        )
    return ScenarioSpec(
        name="gen/fattree",
        label="gen-fattree",
        description="seeded leaf-spine Clos fabric",
        segments=tuple(segments),
        hosts=tuple(hosts),
        devices=tuple(devices),
        ready_time=_stp_ready_time(hello_time, forward_delay),
    )


@register_scenario(
    "gen/mesh",
    description="seeded random connected segment mesh (spanning tree + shortcut bridges)",
    axes=("n_segments", "extra_links", "hosts_per_segment", "seed", "bandwidth_bps"),
    tie_prone=True,
)
def generated_mesh(
    n_segments: int = 4,
    extra_links: int = 2,
    hosts_per_segment: int = 1,
    seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    hello_time: float = FAST_STP_TIMERS["hello_time"],
    max_age: float = FAST_STP_TIMERS["max_age"],
    forward_delay: float = FAST_STP_TIMERS["forward_delay"],
) -> ScenarioSpec:
    """A seeded random spanning tree over ``n_segments`` segments (segment
    ``i`` bridges to a random earlier segment, so the mesh is connected)
    plus up to ``extra_links`` shortcut bridges between random *unused*
    pairs — each extra link adds one independent cycle for the spanning
    tree to break.  Pairs never repeat (the no-parallel-paths tie
    invariant), so a dense request on a small mesh yields fewer shortcuts
    than asked."""
    _check_positive(n_segments=n_segments, hosts_per_segment=hosts_per_segment)
    if extra_links < 0:
        raise ValueError(f"extra_links cannot be negative (got {extra_links})")
    rng = random.Random(f"gen/mesh:{seed}")
    segments = [_segment(index, f"m{index}", bandwidth_bps) for index in range(n_segments)]
    stack = _stp_stack(hello_time, max_age, forward_delay)
    devices = []
    used_pairs = set()
    for index in range(1, n_segments):
        parent = rng.randrange(index)
        used_pairs.add((parent, index))
        devices.append(_bridge(f"b{index}", (f"m{parent}", f"m{index}"), stack))
    free_pairs = [
        (left, right)
        for left in range(n_segments)
        for right in range(left + 1, n_segments)
        if (left, right) not in used_pairs
    ]
    for extra, (left, right) in enumerate(
        rng.sample(free_pairs, min(extra_links, len(free_pairs)))
    ):
        devices.append(_bridge(f"x{extra + 1}", (f"m{left}", f"m{right}"), stack))
    hosts = tuple(
        HostSpec(f"m{index}h{host + 1}", f"m{index}")
        for index in range(n_segments)
        for host in range(hosts_per_segment)
    )
    return ScenarioSpec(
        name="gen/mesh",
        label="gen-mesh",
        description="seeded random connected segment mesh",
        segments=tuple(segments),
        hosts=hosts,
        devices=tuple(devices),
        ready_time=(
            _stp_ready_time(hello_time, forward_delay)
            if devices
            else BASIC_WARMUP
        ),
    )


@register_scenario(
    "gen/smallworld",
    description="closed bridge ring with seeded long-range shortcut bridges",
    axes=("n_segments", "shortcut_p", "hosts_per_segment", "seed", "bandwidth_bps"),
    tie_prone=True,
)
def generated_smallworld(
    n_segments: int = 6,
    shortcut_p: float = 0.3,
    hosts_per_segment: int = 1,
    seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    hello_time: float = FAST_STP_TIMERS["hello_time"],
    max_age: float = FAST_STP_TIMERS["max_age"],
    forward_delay: float = FAST_STP_TIMERS["forward_delay"],
) -> ScenarioSpec:
    """A closed ring of ``n_segments`` bridged segments (one cycle already,
    like ``ring/failover``) rewired small-world style: each segment adds a
    long-range shortcut bridge with probability ``shortcut_p`` to a random
    non-adjacent segment.  Shortcuts are *added*, never substituted
    (the Newman–Watts variant), so the ring — and connectivity — survives
    any seed."""
    if n_segments < 3:
        raise ValueError(f"a small-world ring needs >= 3 segments (got {n_segments})")
    _check_positive(hosts_per_segment=hosts_per_segment)
    if not 0.0 <= shortcut_p <= 1.0:
        raise ValueError(f"shortcut_p {shortcut_p} outside [0, 1]")
    rng = random.Random(f"gen/smallworld:{seed}")
    segments = [
        _segment(index, f"w{index}", bandwidth_bps) for index in range(n_segments)
    ]
    stack = _stp_stack(hello_time, max_age, forward_delay)
    devices = [
        _bridge(f"b{index + 1}", (f"w{index}", f"w{(index + 1) % n_segments}"), stack)
        for index in range(n_segments)
    ]
    shortcuts = 0
    used_pairs = set()
    for index in range(n_segments):
        if rng.random() >= shortcut_p:
            continue
        adjacent = {index, (index + 1) % n_segments, (index - 1) % n_segments}
        candidates = [
            other
            for other in range(n_segments)
            if other not in adjacent
            and tuple(sorted((index, other))) not in used_pairs
        ]
        if not candidates:
            continue
        shortcuts += 1
        target = rng.choice(candidates)
        used_pairs.add(tuple(sorted((index, target))))
        devices.append(_bridge(f"x{shortcuts}", (f"w{index}", f"w{target}"), stack))
    hosts = tuple(
        HostSpec(f"w{index}h{host + 1}", f"w{index}")
        for index in range(n_segments)
        for host in range(hosts_per_segment)
    )
    return ScenarioSpec(
        name="gen/smallworld",
        label="gen-smallworld",
        description="small-world rewired bridge ring",
        segments=tuple(segments),
        hosts=hosts,
        devices=tuple(devices),
        ready_time=_stp_ready_time(hello_time, forward_delay),
    )


#: Name -> bounded parameter space the fuzzer draws from.  Values are
#: (low, high) inclusive integer ranges; the fuzzer keeps topologies small
#: so one oracle case stays cheap.
FUZZ_PARAM_SPACE: Dict[str, Dict[str, Tuple[int, int]]] = {
    "gen/tree": {"depth": (1, 2), "fanout": (1, 3), "hosts_per_leaf": (1, 2)},
    "gen/fattree": {"spines": (1, 3), "leaves": (2, 4), "hosts_per_leaf": (1, 2)},
    "gen/mesh": {
        "n_segments": (2, 6),
        "extra_links": (0, 2),
        "hosts_per_segment": (1, 2),
    },
    "gen/smallworld": {"n_segments": (3, 6), "hosts_per_segment": (1, 2)},
}
