"""Executable model of the switch infrastructure.

Forwards concrete packets through per-switch flow tables, applies flow
modifications, and records everything that happens: a per-switch ordered
event stream (the controller's input) plus a delivery log of packets
handed to clients at access points. Time is a discrete tick counter owned
by the scenario driver; the simulator itself never advances it.

Packets, switch events, deliveries and trace hops are named tuples:
immutable, equal by value and built as one tuple each, since a run makes
one per injected packet, per event, per delivery and per walked port.

Delivery semantics: lookups ignore the ingress port, so a packet's fate
at a switch depends only on its (switch, header) state, and one injection
walks each reachable state once. A client receives one copy per
state-to-access-point edge and the controller one packet-in per
to-controller state, however many paths lead there. A branch that comes
back to a state on its own path is a forwarding loop and is cut with a
"loop" trace; a branch that reaches a state another branch already walked
merges into it silently. So a header reaches exactly the access points
that ``verify.reachable_endpoints`` and ``oracle.state_walk`` say it
reaches.

The walk is one loop over an explicit stack, so its cost per state is a
handful of dict and set operations plus one scan of the switch's rules
(``FlowTable.match_header``). A rule that ``Topology.check_rule`` finds
unfit for its switch is refused when applied, so a walk leaves only by
access points and linked ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .topology import AccessPoint, FlowRule, FlowTable, Topology

State = tuple[str, int]  # (switch, header): all a lookup depends on


class Packet(NamedTuple):
    header: int
    payload: bytes = b""


class SwitchEvent(NamedTuple):
    """One entry of a switch's ordered event stream."""

    seq: int
    tick: int
    switch: str
    kind: str  # "flowmod" | "packet_in"
    op: str = ""  # flowmod: "add" | "remove"
    rule: FlowRule | None = None
    noop: bool = False  # flowmod: removal of an absent rule
    in_port: str = ""  # packet_in
    packet: Packet | None = None  # packet_in

    def line(self, width: int) -> str:
        head = f"seq={self.seq} t={self.tick} sw={self.switch}"
        if self.kind == "flowmod":
            s = f"{head} flowmod {self.op} {self.rule}"
            if self.noop:
                s += " noop=1"
            return s
        hdr = format(self.packet.header, f"0{width}b")
        return f"{head} packet_in port={self.in_port} header={hdr} payload_len={len(self.packet.payload)}"


class Delivery(NamedTuple):
    """A packet handed to a client at one of its access points."""

    tick: int
    client: str
    switch: str
    port: str
    packet: Packet

    def line(self, width: int) -> str:
        hdr = format(self.packet.header, f"0{width}b")
        return (
            f"t={self.tick} client={self.client} at={self.switch}:{self.port} "
            f"header={hdr} payload_len={len(self.packet.payload)}"
        )


class TraceHop(NamedTuple):
    """One hop of a trace; a named tuple because every walked port makes one."""

    switch: str
    in_port: str
    rule: FlowRule | None
    action: str  # "fwd:<port>" | "drop" | "ctrl" | "loop"


@dataclass
class TracePath:
    hops: list[TraceHop]
    outcome: str  # "drop" | "egress" | "controller" | "loop"
    egress: AccessPoint | None = None
    header: int = 0  # header as it left the last hop


class Network:
    """Live network state: topology, flow tables, event and delivery logs."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.tables: dict[str, FlowTable] = {sw: FlowTable() for sw in topo.switch_ports}
        self.tick = 0
        self.events: list[SwitchEvent] = []
        self.deliveries: list[Delivery] = []
        self.seq: dict[str, int] = {sw: 0 for sw in topo.switch_ports}

    def _emit(self, switch: str, *fields, **named) -> SwitchEvent:
        """Log the next event of ``switch`` with its seq and the tick;
        ``fields`` and ``named`` are the event's fields from ``kind`` on."""
        seq = self.seq[switch] = self.seq[switch] + 1
        ev = SwitchEvent(seq, self.tick, switch, *fields, **named)
        self.events.append(ev)
        return ev

    def apply_flow_mod(self, switch: str, op: str, rule: FlowRule) -> SwitchEvent:
        """Apply an add/remove to a switch table; the event reflects applied state."""
        self.topo.check_rule(switch, rule)
        if op not in ("add", "remove"):  # any other op would remove the rule
            raise ValueError(f"flowmod op must be add or remove, got {op!r}")
        old = self.tables[switch]
        new = self.tables[switch] = old.add(rule) if op == "add" else old.remove(rule)
        return self._emit(switch, "flowmod", op, rule, new is old)

    def forward(self, packet: Packet, at: tuple[str, str]) -> list[TracePath]:
        """Predict where a packet injected at an access point goes (no side effects)."""
        self.topo.access_point(*at)  # refuses any other endpoint
        return self._walk(packet.header, at[0], at[1])

    def inject(self, packet: Packet, at: tuple[str, str]) -> list[TracePath]:
        """Inject a packet at an access point; emits packet-ins and deliveries."""
        self.topo.access_point(*at)  # refuses any other endpoint
        return self._run_live(packet, at[0], at[1])

    def packet_out(self, switch: str, port: str, packet: Packet) -> None:
        """Send a packet out of a switch port, as the controller would.

        At an access point the attached client receives it directly; at an
        internal port the packet enters the neighbor switch pipeline.
        """
        if port not in self.topo.switch_ports.get(switch, ()):
            raise ValueError(f"switch {switch} has no port {port}")
        ap = self.topo.access_point_at(switch, port)
        if ap is not None:
            self.deliveries.append(Delivery(self.tick, ap.client, switch, port, packet))
        else:
            peer = self.topo.peer(switch, port)
            self._run_live(packet, peer[0], peer[1])

    # -- packet walk ---------------------------------------------------

    def _run_live(self, packet: Packet, switch: str, in_port: str) -> list[TracePath]:
        paths = self._walk(packet.header, switch, in_port)
        for path in paths:
            if path.outcome != "egress" and path.outcome != "controller":
                continue
            # packets are immutable values, so a copy left unrewritten is the packet itself
            out = packet if path.header == packet.header else Packet(path.header, packet.payload)
            if path.outcome == "egress":
                ap = path.egress
                self.deliveries.append(Delivery(self.tick, ap.client, ap.switch, ap.port, out))
            else:
                last = path.hops[-1]
                self._emit(last.switch, "packet_in", in_port=last.in_port, packet=out)
        return paths

    def _walk(self, header: int, switch: str, in_port: str) -> list[TracePath]:
        """Depth-first multicast walk over (switch, header) states.

        Lookups ignore the ingress port, so a packet's fate depends only on
        its (switch, header) state: each state is looked up and expanded at
        most once per walk. Branches are followed in rule-port order and
        every leaf becomes one linear trace:

        - egress: one copy per state-to-access-point edge, not per path;
        - drop or controller: once per state that ends there, carrying the
          ingress port of the first branch to arrive;
        - loop: a branch re-enters a state on its own path (a forwarding
          loop).

        A branch that reaches a state another branch already expanded
        merges silently.
        """
        tables, ap_at, peer_of = self.tables, self.topo._ap_at, self.topo._peer
        paths: list[TracePath] = []
        hops: list[TraceHop] = []  # forwarding hops from the injection point to the top state
        on_path: set[State] = set()
        expanded: set[State] = set()  # a superset of on_path
        stack: list[tuple] = []  # open states: (state, in_port, rule, header out, port iterator)
        arrival: tuple[str, str, int] | None = (switch, in_port, header)  # next to enter: switch, in_port, header
        while True:
            if arrival is not None:
                sw, port, h = arrival
                arrival = None
                state = (sw, h)
                if state in expanded:
                    if state in on_path:
                        paths.append(TracePath(hops + [TraceHop(sw, port, None, "loop")], "loop", header=h))
                else:
                    expanded.add(state)
                    rule = tables[sw].match_header(h)
                    kind = "drop" if rule is None else rule.action.kind
                    if kind == "fwd" or kind == "rewrite":
                        on_path.add(state)
                        h2 = rule.action.rewrite.apply(h) if kind == "rewrite" else h
                        stack.append((state, port, rule, h2, iter(rule.action.ports)))
                        continue
                    outcome = "drop" if kind == "drop" else "controller"
                    paths.append(TracePath(hops + [TraceHop(sw, port, rule, kind)], outcome, header=h))
                if stack:
                    hops.pop()  # the hop into the state that was not pushed
            if not stack:
                return paths
            state, port, rule, h2, out_ports = stack[-1]
            out_port = next(out_ports, None)
            if out_port is None:
                stack.pop()
                on_path.remove(state)
                if stack:
                    hops.pop()
                continue
            sw = state[0]
            hop = TraceHop(sw, port, rule, f"fwd:{out_port}")
            ap = ap_at.get((sw, out_port))
            if ap is not None:
                paths.append(TracePath(hops + [hop], "egress", egress=ap, header=h2))
                continue
            peer = peer_of[sw, out_port]  # every port is an access point or linked
            hops.append(hop)
            arrival = (peer[0], peer[1], h2)
