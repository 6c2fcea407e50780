"""Executable model of the switch infrastructure.

Forwards concrete packets through per-switch flow tables, applies flow
modifications, and records everything that happens: a per-switch ordered
event stream (the controller's input) plus a delivery log of packets
handed to clients at access points. Time is a discrete tick counter owned
by the scenario driver; the simulator itself never advances it.

Packets, switch events and deliveries are named tuples: immutable,
equal by value and built as one tuple each, since a run makes one per
injected packet, per event and per delivery.

Delivery semantics: lookups ignore the ingress port, so a packet's fate
at a switch depends only on its (switch, header) state, and one injection
expands each reachable state once. A client receives one copy per
state-to-access-point edge and the controller one packet-in per
to-controller state, however many paths lead there. A branch that
reaches an expanded state stops there, whether it came back on its own
path (a forwarding loop) or met another branch (a merge). So a header
reaches exactly the access points that ``verify.reachable_endpoints`` and
``oracle.state_walk`` say it reaches.

The walk makes the logs' entries as it goes and keeps no paths: it is one
loop over an explicit stack, so its cost per state is a few tuple and set
operations plus one scan of the switch's rules
(``FlowTable.match_header``). A rule that ``Topology.check_rule`` finds
unfit for its switch is refused when applied, so a walk leaves only by
access points and linked ports.
"""

from __future__ import annotations

from typing import NamedTuple

from .topology import FlowRule, FlowTable, Topology

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

    def inject(self, packet: Packet, at: tuple[str, str]) -> list[Delivery | SwitchEvent]:
        """Inject a packet at an access point; logs its deliveries and
        packet-ins and returns them, in the order the walk made them."""
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

    def _run_live(self, packet: Packet, switch: str, in_port: str) -> list[Delivery | SwitchEvent]:
        """Walk a packet arriving at ``switch`` by ``in_port`` depth first, in
        rule-port order; a packet-in carries the first arriving branch's port."""
        tables, ap_at, peer_of = self.tables, self.topo._ap_at, self.topo._peer
        header, payload, tick, deliveries = packet.header, packet.payload, self.tick, self.deliveries
        made: list[Delivery | SwitchEvent] = []
        expanded: set[State] = set()
        # arrivals (switch, in_port, header) and deliveries; children are
        # pushed in reverse port order, so they pop in recursive order
        stack: list[tuple] = [(switch, in_port, header)]
        while stack:
            item = stack.pop()
            if type(item) is Delivery:
                deliveries.append(item)
                made.append(item)
                continue
            sw, port, h = item
            state = (sw, h)
            if state in expanded:
                continue
            expanded.add(state)
            rule = tables[sw].match_header(h)
            if rule is None or rule.action.kind == "drop":
                continue
            action = rule.action
            h2 = action.rewrite.apply(h) if action.kind == "rewrite" else h
            # packets are immutable values, so a copy left unrewritten is the packet itself
            out = packet if h2 == header else Packet(h2, payload)
            if action.kind == "ctrl":
                made.append(self._emit(sw, "packet_in", in_port=port, packet=out))
                continue
            for out_port in reversed(action.ports):
                ap = ap_at.get((sw, out_port))
                if ap is None:
                    peer = peer_of[sw, out_port]  # every port is an access point or linked
                    stack.append((peer[0], peer[1], h2))
                else:
                    stack.append(Delivery(tick, ap.client, sw, out_port, out))
        return made
