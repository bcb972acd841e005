"""The paper's experimental configurations, as thin wrappers over the fabric.

Three two-host configurations (Figures 7 and 8):

* **direct** — two hosts on one 100 Mb/s LAN (the "best case" baseline),
* **repeater** — two LANs joined by the C buffered repeater,
* **bridged** — two LANs joined by the active bridge running the switchlet
  stack (dumb → learning → spanning tree),
* **static** — two LANs joined by a fixed-function learning bridge (the
  DEC-LANbridge-like device; used by the ablation benchmark),

plus the Section 7.5 **ring**: a chain of active bridges between the two
NICs of a measurement host, each bridge running the DEC protocol with the
IEEE protocol loaded-but-idle and the control switchlet armed.

Since the declarative scenario fabric landed (:mod:`repro.scenario`), every
configuration here is a registered :class:`~repro.scenario.spec.ScenarioSpec`
(``pair/direct``, ``pair/repeater``, ``pair/active-bridge``,
``pair/static-bridge``, ``ring``) compiled through
:func:`~repro.scenario.runner.run_scenario`; these functions remain as the
stable, ergonomic entry points the benchmarks and tests have always used.
Each takes ``trace_sinks``: ``None`` for the default trace store, or a
one-element list holding the :class:`~repro.sim.trace.ListSink` or
:class:`~repro.sim.trace.RingBufferSink` to write instead (see
:class:`~repro.sim.engine.Simulator`).
"""

from __future__ import annotations

from typing import Optional

from repro.costs.model import CostModel
from repro.scenario import run_scenario
from repro.scenario.compile import PairSetup, RingSetup
from repro.scenario.spec import BASIC_WARMUP, SPANNING_TREE_WARMUP

__all__ = [
    "PairSetup",
    "RingSetup",
    "SPANNING_TREE_WARMUP",
    "BASIC_WARMUP",
    "build_direct_pair",
    "build_repeater_pair",
    "build_bridged_pair",
    "build_static_bridge_pair",
    "build_ring",
    "PAIR_BUILDERS",
]


# ---------------------------------------------------------------------------
# Two-host configurations
# ---------------------------------------------------------------------------


def build_direct_pair(
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
) -> PairSetup:
    """Two hosts on a single LAN (Figure 8's baseline setup)."""
    return run_scenario(
        "pair/direct", seed=seed, cost_model=cost_model, trace_sinks=trace_sinks
    ).as_pair()


def build_repeater_pair(
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
) -> PairSetup:
    """Two LANs joined by the C buffered repeater."""
    return run_scenario(
        "pair/repeater", seed=seed, cost_model=cost_model, trace_sinks=trace_sinks
    ).as_pair()


def build_bridged_pair(
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    include_spanning_tree: bool = True,
    include_learning: bool = True,
    trace_sinks=None,
) -> PairSetup:
    """Two LANs joined by the active bridge (Figure 7's bridging setup).

    The bridge is programmed exactly as in Section 5.3: the dumb bridge
    switchlet, then (optionally) the learning switchlet, then (optionally)
    the 802.1D spanning-tree switchlet.
    """
    params = {}
    if not include_spanning_tree:
        params["include_spanning_tree"] = False
    if not include_learning:
        params["include_learning"] = False
    return run_scenario(
        "pair/active-bridge",
        seed=seed,
        cost_model=cost_model,
        trace_sinks=trace_sinks,
        params=params,
    ).as_pair()


def build_static_bridge_pair(
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
) -> PairSetup:
    """Two LANs joined by a fixed-function learning bridge (ablation baseline)."""
    return run_scenario(
        "pair/static-bridge", seed=seed, cost_model=cost_model, trace_sinks=trace_sinks
    ).as_pair()


#: The three configurations of the paper's Figures 9 and 10, by label.
PAIR_BUILDERS = {
    "direct": build_direct_pair,
    "c-repeater": build_repeater_pair,
    "active-bridge": build_bridged_pair,
}


# ---------------------------------------------------------------------------
# The Section 7.5 ring
# ---------------------------------------------------------------------------


def build_ring(
    n_bridges: int = 3,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    with_control: bool = True,
    suppression_period: float = 30.0,
    validation_delay: float = 60.0,
    buggy_new_protocol: bool = False,
    trace_sinks=None,
) -> RingSetup:
    """A chain of active bridges between two end segments.

    Each bridge runs: dumb bridge, learning bridge, the DEC spanning tree
    (started), the IEEE spanning tree (loaded, idle), and — when
    ``with_control`` is true — the transition control switchlet.  The
    measurement host of Section 7.5 closes the chain into a ring with its two
    NICs but does not forward, so the topology the bridges see is loop-free.

    Args:
        n_bridges: number of bridges in the chain (the paper uses three).
        buggy_new_protocol: ship the deliberately faulty 802.1D variant as
            the new protocol, to exercise the automatic fallback.
    """
    return run_scenario(
        "ring",
        seed=seed,
        cost_model=cost_model,
        trace_sinks=trace_sinks,
        params={
            "n_bridges": n_bridges,
            "with_control": with_control,
            "suppression_period": suppression_period,
            "validation_delay": validation_delay,
            "buggy_new_protocol": buggy_new_protocol,
        },
    ).as_ring()
