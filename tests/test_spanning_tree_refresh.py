"""The spanning-tree switchlet's shortcuts are exact.

A PDU that repeats a port's stored priority vector only refreshes the port's
message age (no decode when the bytes repeat, never a recompute), and an
unchanged PDU is sent as the port's cached bytes.  These tests drive every
shipped spanning-tree class next to a reference that keeps the plain path —
decode every PDU, recompute after every store, encode every send — and
compare everything the two can be seen to do after every step.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.safeunix import SockAddr
from repro.core.unixnet import Packet
from repro.switchlets.bpdu import ConfigBpdu, DecBpdu
from repro.switchlets.dec_spanning_tree import DecSpanningTreeApp
from repro.switchlets.framefmt import FrameFmt
from repro.switchlets.spanning_tree import BuggySpanningTreeApp, SpanningTreeApp


class _Plain:
    """The reference path: decode, recompute and encode every time."""

    BUGGY_ELECTION = False

    def deliver_packet(self, packet):
        if not self.running:
            return
        if FrameFmt.ethertype(packet.pkt) != self.ETHERTYPE:
            self.bpdus_ignored += 1
            return
        try:
            pdu = self._parse_pdu(FrameFmt.payload(packet.pkt))
        except ValueError:
            self.bpdus_ignored += 1
            return
        self._handle_pdu(packet.iport, pdu, packet.pkt)

    def _handle_pdu(self, in_port, pdu, pkt):
        if in_port not in self.ports:
            self.bpdus_ignored += 1
            return
        self.bpdus_received += 1
        port = self.ports[in_port]
        received_vector = (pdu.root_id(), pdu.root_path_cost, pdu.bridge_id(), pdu.port_id)
        stored = port["info"]
        if stored is None:
            should_store = received_vector < self._designated_vector(in_port)
        else:
            stored_vector = self._stored_vector(stored)
            should_store = stored_vector[2] == received_vector[2] or received_vector < stored_vector
        if should_store:
            port["info"] = {
                "root_priority": pdu.root_priority,
                "root_mac": bytes(pdu.root_mac),
                "cost": pdu.root_path_cost,
                "bridge_priority": pdu.bridge_priority,
                "bridge_mac": bytes(pdu.bridge_mac),
                "port_id": pdu.port_id,
                "received_at": self.safeunix.gettimeofday(),
                "max_age": pdu.max_age,
            }
            changed = self._recompute()
            if in_port == self.root_port or changed:
                self._transmit_on_designated_ports()
        elif port["role"] == self.ROLE_DESIGNATED:
            self._send_pdu(in_port)

    def _recompute(self):
        self.recomputes += 1
        previous = (self.root_id(), self.root_port,
                    tuple(sorted((n, p["role"]) for n, p in self.ports.items())))
        best_root = self.bridge_id()
        for port in self.ports.values():
            info = port["info"]
            if info is None:
                continue
            claimed = (info["root_priority"], info["root_mac"])
            if (claimed > best_root) if self.BUGGY_ELECTION else (claimed < best_root):
                best_root = claimed
        self.root_priority, self.root_mac = best_root
        if self.is_root():
            self.root_port = None
            self.root_path_cost = 0
        else:
            best_port = None
            best_key = None
            for name in sorted(self.ports):
                info = self.ports[name]["info"]
                if info is None or (info["root_priority"], info["root_mac"]) != best_root:
                    continue
                key = (info["cost"] + self.PATH_COST,
                       (info["bridge_priority"], info["bridge_mac"]),
                       info["port_id"],
                       self.ports[name]["port_id"])
                if best_key is None or key < best_key:
                    best_key = key
                    best_port = name
            self.root_port = best_port
            self.root_path_cost = best_key[0] if best_key is not None else 0
        # Role then state, port by port (the faulty variant's original shape).
        for name in sorted(self.ports):
            port = self.ports[name]
            if name == self.root_port:
                port["role"] = self.ROLE_ROOT
            elif port["info"] is None or self.BUGGY_ELECTION:
                port["role"] = self.ROLE_DESIGNATED
            elif self._designated_vector(name) < self._stored_vector(port["info"]):
                port["role"] = self.ROLE_DESIGNATED
            else:
                port["role"] = self.ROLE_BLOCKED
            self._update_port_state(name)
        current = (self.root_id(), self.root_port,
                   tuple(sorted((n, p["role"]) for n, p in self.ports.items())))
        return current != previous

    def _send_pdu(self, port_name):
        pdu = self._make_pdu(port_name)
        source_mac = bytes(self.unixnet.interface_mac(port_name).octets)
        pkt = FrameFmt.build(FrameFmt.str_to_mac(self.MULTICAST_ADDR), source_mac,
                             self.ETHERTYPE, pdu.encode())
        self.func.call(self.SEND_OUT_KEY, port_name, pkt)
        self.bpdus_sent += 1

    def _originate_hellos(self):
        if self.is_root():
            for name in sorted(self.ports):
                self._send_pdu(name)

    def _transmit_on_designated_ports(self):
        for name in sorted(self.ports):
            if self.ports[name]["role"] == self.ROLE_DESIGNATED:
                self._send_pdu(name)


class _PlainIeee(_Plain, SpanningTreeApp):
    pass


class _PlainDec(_Plain, DecSpanningTreeApp):
    pass


class _PlainBuggy(_Plain, BuggySpanningTreeApp):
    BUGGY_ELECTION = True


class _Mac:
    def __init__(self, octets):
        self.octets = octets


class _Timer:
    def __init__(self, period, fn):
        self.period = period
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Env:
    """All five environment modules at once: a manual clock, timers, a sent log."""

    PORTS = ("eth0", "eth1")

    def __init__(self):
        self.now = 0.0
        self.sent = []
        self.logs = []
        self._timers = []
        self._seq = 0

    # Unixnet
    def interface_mac(self, name):
        return _Mac(bytes([2, 0, 0, 0, 0, 0x10 + self.PORTS.index(name)]))

    def bind_addr(self, address):
        return address

    def set_handler_in(self, iport, handler):
        pass

    def unbind_addr(self, iport):
        pass

    # Func
    def call(self, key, *args):
        if key == SpanningTreeApp.PORTS_KEY:
            return list(self.PORTS)
        if key == SpanningTreeApp.SEND_OUT_KEY:
            self.sent.append(args)
        return None

    # Log
    def log(self, message):
        self.logs.append(message)

    # Safeunix
    def gettimeofday(self):
        return self.now

    # Safethread
    def delay(self, seconds, fn):
        return self._arm(self.now + seconds, _Timer(None, fn))

    def every(self, seconds, fn):
        return self._arm(self.now + seconds, _Timer(seconds, fn))

    def _arm(self, due, timer):
        self._seq += 1
        heapq.heappush(self._timers, (due, self._seq, timer))
        return timer

    def advance(self, seconds):
        until = self.now + seconds
        while self._timers and self._timers[0][0] <= until:
            due, _, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            self.now = due
            if timer.period is not None:
                self._arm(due + timer.period, timer)
            timer.fn()
        self.now = until


def _mac(last):
    return bytes([2, 0, 0, 0, 0, last])


#: Received priority vectors: (root priority, root MAC, root path cost,
#: bridge priority, bridge MAC, port id, message age, max age).  The bridge
#: under test is 0x8000/02:..:10.  Pairs share a vector and differ only in
#: max age (0/1, 2/4), or share the designated bridge and differ in cost
#: (2/3); 5 claims a worse root than ours, 6 and 7 a better one.
_POOL = (
    (0x8000, _mac(0x05), 0, 0x8000, _mac(0x05), 1, 0.0, 20.0),
    (0x8000, _mac(0x05), 0, 0x8000, _mac(0x05), 1, 0.0, 6.0),
    (0x8000, _mac(0x05), 19, 0x8000, _mac(0x06), 2, 1.0, 20.0),
    (0x8000, _mac(0x05), 38, 0x8000, _mac(0x06), 2, 1.0, 20.0),
    (0x8000, _mac(0x05), 19, 0x8000, _mac(0x06), 2, 1.0, 6.0),
    (0x8000, _mac(0x20), 0, 0x8000, _mac(0x20), 1, 0.0, 20.0),
    (0x7000, _mac(0x30), 0, 0x7000, _mac(0x30), 1, 0.0, 20.0),
    (0x7000, _mac(0x30), 19, 0x8000, _mac(0x06), 1, 1.0, 20.0),
)

_PDU = st.tuples(st.just("pdu"), st.sampled_from(_Env.PORTS), st.integers(0, len(_POOL) - 1))
_STEPS = st.lists(
    st.one_of(
        _PDU,
        _PDU,
        _PDU,
        st.tuples(st.just("advance"), st.sampled_from((0.5, 2.0, 7.0, 21.0))),
        st.tuples(st.sampled_from(("suspend", "resume"))),
        st.tuples(st.just("junk"), st.sampled_from(_Env.PORTS)),
    ),
    max_size=40,
)

_VARIANTS = (
    (SpanningTreeApp, _PlainIeee, ConfigBpdu),
    (DecSpanningTreeApp, _PlainDec, DecBpdu),
    (BuggySpanningTreeApp, _PlainBuggy, ConfigBpdu),
)


def _packet(app, pdu_class, port, index):
    root_priority, root_mac, cost, bridge_priority, bridge_mac, port_id, age, max_age = _POOL[index]
    payload = pdu_class(root_priority, root_mac, cost, bridge_priority, bridge_mac, port_id,
                        message_age=age, max_age=max_age).encode()
    pkt = FrameFmt.build(FrameFmt.str_to_mac(app.MULTICAST_ADDR), bridge_mac, app.ETHERTYPE, payload)
    return Packet(len(pkt), SockAddr(port, FrameFmt.mac_to_str(bridge_mac)), pkt, port)


def _junk(app, port):
    pkt = FrameFmt.build(FrameFmt.str_to_mac(app.MULTICAST_ADDR), _mac(0x07), app.ETHERTYPE, b"\xff" * 40)
    return Packet(len(pkt), SockAddr(port, "02:00:00:00:00:07"), pkt, port)


def _observe(app, env):
    stored = {}
    for name, port in app.ports.items():
        info = port["info"]
        stored[name] = None if info is None else (
            app._stored_vector(info), info["received_at"], info["max_age"])
    counters = (app.bpdus_sent, app.bpdus_received, app.bpdus_ignored)
    return list(env.sent), app.snapshot(), stored, counters, list(env.logs)


def _run(app_class, plain_class, pdu_class, steps):
    pair = []
    for cls in (app_class, plain_class):
        env = _Env()
        app = cls(env, env, env, env, env)
        app.start(listen=True)
        pair.append((app, env))
    assert _observe(*pair[0]) == _observe(*pair[1])
    for step in steps:
        for app, env in pair:
            if step[0] == "pdu":
                app.deliver_packet(_packet(app, pdu_class, step[1], step[2]))
            elif step[0] == "junk":
                app.deliver_packet(_junk(app, step[1]))
            elif step[0] == "advance":
                env.advance(step[1])
            else:
                getattr(app, step[0])()
        assert _observe(*pair[0]) == _observe(*pair[1]), step
    return pair[0][0]


@pytest.mark.parametrize("app_class, plain_class, pdu_class", _VARIANTS,
                         ids=("ieee", "dec", "buggy"))
@settings(max_examples=150, deadline=None)
@given(steps=_STEPS)
# A repeated PDU must restart the message age: without the refresh the
# information expires at t=22 and the tree changes.
@example(steps=[("pdu", "eth0", 0), ("advance", 7.0), ("advance", 7.0), ("pdu", "eth0", 0),
                ("advance", 7.0), ("advance", 0.5)])
# A cost change from the same designated bridge on the root port keeps the
# root and the roles but changes what the bridge advertises on eth1.
@example(steps=[("pdu", "eth0", 2), ("pdu", "eth0", 3), ("pdu", "eth0", 4), ("pdu", "eth0", 2)])
def test_shortcuts_match_the_plain_path(app_class, plain_class, pdu_class, steps):
    _run(app_class, plain_class, pdu_class, steps)


def test_repeated_pdus_skip_recompute():
    steps = [("pdu", "eth0", 2)] * 5 + [("pdu", "eth0", 4)] * 5
    app = _run(SpanningTreeApp, _PlainIeee, ConfigBpdu, steps)
    # start() and the first store recompute; the nine repeats only refresh.
    assert app.stats()["recomputes"] == 2
    assert app.bpdus_received == 10
