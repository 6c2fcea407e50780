"""Seeded generators for the benchmark's width-16 topologies and scenarios.

Every generator is a pure function of the seed: it returns the
topology document and the scenario script as text, exactly as a user
would hand them to ``routecheck run``. Sizes (switch, access-point and
rule counts) are fixed per workload; the seed only moves where things
sit and which bits the rules care about, so one seed is as hard as the
next.

Header layout (bit 0 = most significant, as in topology ``field``)::

    0-3    reserved: 1111 is the protocol's magic pattern, data uses 0xxx
    4-9    dst    destination access-point id
    10-11  class  traffic class; 11 is the flood class on dataplane-flood
    12-15  free
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

WIDTH = 16
DST_START, DST_BITS = 4, 6
CLASS_START = 10
QUERY_KINDS = ("isolation", "sources", "geo", "summary")
# queries sit more than the controller's 8-tick challenge timeout apart,
# so exactly one is outstanding at a time
QUERY_SPACING = 10


def pattern(bits: dict[int, int]) -> str:
    """Ternary text with the given {position: bit} fixed, 'x' elsewhere."""
    return "".join(str(bits[i]) if i in bits else "x" for i in range(WIDTH))


def dst_bits(dst: int) -> dict[int, int]:
    return {DST_START + i: (dst >> (DST_BITS - 1 - i)) & 1 for i in range(DST_BITS)}


def header(bits: dict[int, int], rng: random.Random) -> str:
    """A concrete data header: fixed bits as given, bit 0 clear, rest random."""
    fixed = {0: 0, **bits}
    return "".join(str(fixed[i]) if i in fixed else str(rng.randrange(2)) for i in range(WIDTH))


@dataclass
class Builder:
    """Topology under construction: ports are allocated as links and APs attach."""

    switches: list[str] = field(default_factory=list)
    ports: dict[str, int] = field(default_factory=dict)
    links: list[tuple[str, str, str, str]] = field(default_factory=list)
    aps: list[tuple[str, str, str]] = field(default_factory=list)  # (switch, port, client)
    regions: dict[str, str] = field(default_factory=dict)
    adj: dict[str, dict[str, str]] = field(default_factory=dict)  # sw -> {neighbor: local port}
    nokey: list[str] = field(default_factory=list)

    def switch(self, name: str, region: str) -> str:
        self.switches.append(name)
        self.ports[name] = 0
        self.regions[name] = region
        self.adj[name] = {}
        return name

    def _port(self, sw: str) -> str:
        self.ports[sw] += 1
        return str(self.ports[sw])

    def link(self, a: str, b: str) -> None:
        if b in self.adj[a] or a == b:
            return
        pa, pb = self._port(a), self._port(b)
        self.links.append((a, pa, b, pb))
        self.adj[a][b] = pa
        self.adj[b][a] = pb

    def attach(self, sw: str, client: str) -> tuple[str, str, str]:
        ap = (sw, self._port(sw), client)
        self.aps.append(ap)
        return ap

    def next_hops(self, dst_sw: str, allowed: set[str] | None = None) -> dict[str, str]:
        """Port toward dst_sw on a shortest path, for every switch that reaches it.

        Ties go to the switch created first, never to the name, so renamed
        copies of a network route identically.
        """
        allowed = allowed or set(self.switches)
        hops: dict[str, str] = {}
        seen = {dst_sw}
        frontier = deque([dst_sw])
        while frontier:
            sw = frontier.popleft()
            for nb in sorted(self.adj[sw], key=self.switches.index):
                if nb in seen or nb not in allowed:
                    continue
                seen.add(nb)
                hops[nb] = self.adj[nb][sw]
                frontier.append(nb)
        return hops

    def text(self) -> str:
        lines = [f"headerwidth {WIDTH}", f"field dst {DST_START} {DST_START + DST_BITS - 1}",
                 f"field class {CLASS_START} {CLASS_START + 1}"]
        lines += [f"switch {sw} ports {self.ports[sw]}" for sw in self.switches]
        lines += [f"link {a}:{pa} {b}:{pb}" for a, pa, b, pb in self.links]
        lines += [f"access {sw}:{p} client {c}" for sw, p, c in self.aps]
        lines += [f"location {sw} {self.regions[sw]}" for sw in self.switches]
        lines += [f"nokey {c}" for c in self.nokey]
        return "\n".join(lines) + "\n"


def route_rules(b: Builder, dst_of: dict[tuple[str, str, str], int],
                allowed: set[str] | None = None) -> list[tuple[str, dict[int, int], str]]:
    """Destination routing: per AP, one exact-dst rule on every switch that reaches it.

    Returns (switch, match bits, action) triples in a stable order.
    """
    out = []
    for ap in sorted(dst_of, key=lambda a: dst_of[a]):
        sw, port, _ = ap
        match = dst_bits(dst_of[ap])
        out.append((sw, match, f"fwd:{port}"))
        for other, out_port in b.next_hops(sw, allowed).items():
            out.append((other, match, f"fwd:{out_port}"))
    return out


def flowmod(tick: int, op: str, sw: str, prio: int, match: str, action: str) -> str:
    return f"@{tick} flowmod {op} {sw} prio={prio} match={match} action={action}"


def _instance_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"routecheck-bench:{workload}:{seed}")


class Relabel:
    """A seed-drawn isomorphism: switch and client names, and header values.

    Renaming switches and clients and XOR-ing every rule and header with
    one mask leave the overlap structure of all rules, and the order in
    which the engine meets them, unchanged, so every copy costs the same
    work while the text differs. (Permuting bit positions would also keep
    the structure but reorder the engine's term lists, which moves its
    cost by about a fifth.)
    """

    def __init__(self, rng: random.Random, switches: int, clients: int):
        self.switch = [f"s{i}" for i in range(switches)]
        self.client = [f"c{i}" for i in range(clients)]
        rng.shuffle(self.switch)
        rng.shuffle(self.client)
        self.mask = {p: rng.randrange(2) for p in range(DST_START, WIDTH)}

    def bits(self, bits: dict[int, int]) -> dict[int, int]:
        return {p: v ^ self.mask.get(p, 0) for p, v in bits.items()}


# -- query-static ------------------------------------------------------------

QS_SWITCHES = 6  # a ring plus every diameter
QS_CLIENTS = 3
QS_APS_PER_CLIENT = 2
QS_ACLS_PER_SWITCH = 2
QS_ACL_CARE_BITS = 2
QS_QUERIES = 12
QS_DESIGN_SEED = "query-static-design-0"


def query_static(seed: int) -> tuple[str, str]:
    """Ring-with-diameters network, dst routing plus random ternary ACL drops.

    The network design (AP placement, ACL patterns) is drawn once from a
    fixed design seed; the workload seed draws an isomorphic copy of it
    and the data traffic. The snapshot never changes after tick 0, and
    queries rotate through all four kinds and all clients, one
    outstanding at a time.
    """
    design = random.Random(QS_DESIGN_SEED)
    rng = _instance_rng("query-static", seed)
    lab = Relabel(rng, QS_SWITCHES, QS_CLIENTS)
    b = Builder()
    sws = [b.switch(lab.switch[i], f"r{i % 3}") for i in range(QS_SWITCHES)]
    for i in range(QS_SWITCHES):
        b.link(sws[i], sws[(i + 1) % QS_SWITCHES])
        b.link(sws[i], sws[(i + QS_SWITCHES // 2) % QS_SWITCHES])
    clients = lab.client
    aps = [b.attach(design.choice(sws), c) for c in clients for _ in range(QS_APS_PER_CLIENT)]
    dst_of = dict(zip(aps, range(len(aps))))

    routes = route_rules(b, dst_of)
    lines = [flowmod(0, "add", sw, 10, pattern(lab.bits(m)), a) for sw, m, a in routes]
    for sw in sws:
        for _ in range(QS_ACLS_PER_SWITCH):
            pos = design.sample(range(CLASS_START, WIDTH), QS_ACL_CARE_BITS)
            acl = {p: design.randrange(2) for p in pos}
            lines.append(flowmod(0, "add", sw, 20, pattern(lab.bits(acl)), "drop"))
    tick = 0
    for i in range(QS_QUERIES):
        tick = 4 + QUERY_SPACING * i
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        client = clients[(i // len(QUERY_KINDS) + i) % len(clients)]
        lines.append(f"@{tick} query client={client} kind={kind}")
        src, dst = rng.sample(aps, 2)
        lines.append(f"@{tick + 1} inject {src[0]}:{src[1]} header={header(lab.bits(dst_bits(dst_of[dst])), rng)}")
    lines.append(f"horizon {tick + QUERY_SPACING}")
    return b.text(), "\n".join(lines) + "\n"


# -- config-churn ------------------------------------------------------------

CC_ARCS = 4  # clients, each owning an arc of the ring
CC_ARC_LEN = 4
CC_APS_PER_CLIENT = 2
CC_HORIZON = 1000
CC_FLAPS_PER_TICK = 2
CC_FLAP_HOLD = 3  # ticks an override stays before it is removed
CC_DESIGN_SEED = "config-churn-design-0"


def config_churn(seed: int) -> tuple[str, str]:
    """Per-client ring arcs under constant route flaps and all four attacks.

    Clients are isolated by construction (a switch routes only its own
    arc's destinations), so every isolation or geo finding the run raises
    is caused by an attack. The design (AP placement, attacked switches)
    and flap schedule are fixed; the seed draws an isomorphic copy and the
    data traffic.
    """
    design = random.Random(CC_DESIGN_SEED)
    rng = _instance_rng("config-churn", seed)
    lab = Relabel(rng, CC_ARCS * CC_ARC_LEN, CC_ARCS)
    b = Builder()
    clients = lab.client
    # one region per switch: the divert template detours through the
    # name-sorted first switch of its region, which renaming must not move
    arcs = [[b.switch(lab.switch[a * CC_ARC_LEN + j], f"r{a}{j}") for j in range(CC_ARC_LEN)]
            for a in range(CC_ARCS)]
    ring = [sw for arc in arcs for sw in arc]
    for i, sw in enumerate(ring):
        b.link(sw, ring[(i + 1) % len(ring)])
    for arc in arcs:
        b.link(arc[0], arc[-1])  # an intra-arc chord keeps every arc routable on its own
    aps_of = {c: [b.attach(design.choice(arc), c) for _ in range(CC_APS_PER_CLIENT)] for c, arc in zip(clients, arcs)}
    hidden = b.attach(design.choice([sw for arc in arcs[2:] for sw in arc]), "mallory")
    b.nokey.append("mallory")
    dst_of = dict(zip([ap for c in clients for ap in aps_of[c]], range(CC_ARCS * CC_APS_PER_CLIENT)))
    routes = []
    for c, arc in zip(clients, arcs):
        own = {ap: dst_of[ap] for ap in aps_of[c]}
        routes += [(sw, pattern(lab.bits(m)), a) for sw, m, a in route_rules(b, own, allowed=set(arc))]
    lines = [flowmod(0, "add", sw, 10, m, a) for sw, m, a in routes]

    # benign flaps: a higher-priority copy of a route rule comes and goes;
    # the schedule is part of the design so every query meets the same tables
    for t in range(2, CC_HORIZON - CC_FLAP_HOLD):
        for sw, m, a in design.sample(routes, CC_FLAPS_PER_TICK):
            lines.append(flowmod(t, "add", sw, 50, m, a))
            lines.append(flowmod(t + CC_FLAP_HOLD, "remove", sw, 50, m, a))

    victim, other = clients[0], clients[1]
    third = CC_HORIZON // 3
    join_t, div_t = third, third + 40
    # join: mallory's hidden point is patched into the victim's first site
    lines.append(f"@{join_t} attack join client={victim} hidden={hidden[0]}:{hidden[1]} "
                 f"match={pattern(lab.bits({0: 0, DST_START: 1}))}")
    # divert: the other client's traffic detours through the third arc
    via = b.regions[arcs[2][1]]
    lines.append(f"@{div_t} attack divert client={other} via={via} match={pattern({0: 0})}")
    # suppress: the next events of one switch never reach the controller
    lines.append(f"@{div_t + 40} attack suppress sw={design.choice(ring)} count=2")
    # transient: a drop rule on a short duty cycle, to the horizon
    tr_match = pattern(lab.bits({0: 0, CLASS_START: 0, CLASS_START + 1: 1}))
    lines.append(f"@{2 * third} attack transient flowmod add {design.choice(ring)} prio=90 "
                 f"match={tr_match} action=drop f=0.3 period=10")
    # queries expose the join and the divert (geo needs a baseline first);
    # none falls inside the transient's run, whose on-ticks follow the run
    # seed, so every copy's queries read the same tables. A geo query is
    # cheap enough that a poll inside its window (the poll schedule follows
    # the run seed) moves it by a third, so geo is asked more often, to keep
    # its median off any one query's luck.
    for t, client, kind in [
        *[(div_t + 80 + 40 * i, other, "geo") for i in range(4)],
        (div_t - 20, other, "geo"),
        (join_t + 4, victim, "isolation"),
        (div_t + 4, other, "geo"),
        (div_t + 4 + QUERY_SPACING, victim, "sources"),
        (div_t + 4 + 2 * QUERY_SPACING, other, "summary"),
        (2 * third - 60, victim, "isolation"),
        (2 * third - 50, other, "geo"),
        (2 * third - 40, victim, "sources"),
        (2 * third - 30, other, "summary"),
    ]:
        lines.append(f"@{t} query client={client} kind={kind}")
    for t in range(5, CC_HORIZON, 7):
        src, dst = rng.sample(aps_of[rng.choice(clients)], 2)
        lines.append(f"@{t} inject {src[0]}:{src[1]} header={header(lab.bits(dst_bits(dst_of[dst])), rng)}")
    lines.append(f"horizon {CC_HORIZON}")
    return b.text(), "\n".join(sorted(lines, key=_tick_key)) + "\n"


def _tick_key(line: str) -> int:
    return int(line.split()[0][1:]) if line.startswith("@") else 1 << 30


# -- dataplane-flood -----------------------------------------------------------

DF_MESH = 6
DF_CLIENTS = 3
DF_QUERIES = 32
DF_TICKS = 640
DF_PACKETS_PER_TICK = 6
DF_FLOOD_SHARE = 0.05


def dataplane_flood(seed: int) -> tuple[str, str]:
    """Unicast traffic on a full mesh; midway every switch gets a flood rule.

    One access point per switch, owned round-robin by the clients. Queries
    run before the flood rules appear, so the header-space engine does
    little; after them, flood-class packets walk every simple path of the
    mesh.
    """
    rng = _instance_rng("dataplane-flood", seed)
    lab = Relabel(rng, DF_MESH, DF_CLIENTS)
    b = Builder()
    sws = [b.switch(lab.switch[i], f"r{i % 3}") for i in range(DF_MESH)]
    for i in range(DF_MESH):
        for j in range(i + 1, DF_MESH):
            b.link(sws[i], sws[j])
    clients = lab.client
    aps = [b.attach(sw, clients[i % DF_CLIENTS]) for i, sw in enumerate(sws)]
    dst_of = dict(zip(aps, range(len(aps))))
    lines = [flowmod(0, "add", sw, 10, pattern(lab.bits(m)), a) for sw, m, a in route_rules(b, dst_of)]
    for i in range(DF_QUERIES):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        lines.append(f"@{2 + QUERY_SPACING * i} query client={clients[i % DF_CLIENTS]} kind={kind}")
    flood_t = DF_TICKS // 2
    flood_bits = {CLASS_START: 1, CLASS_START + 1: 1}
    for sw in sws:
        ports = [b.adj[sw][nb] for nb in b.adj[sw]] + [p for s, p, _ in aps if s == sw]
        lines.append(flowmod(flood_t, "add", sw, 30, pattern(lab.bits({0: 0, **flood_bits})), "fwd:" + ",".join(ports)))
    late = (DF_TICKS - 1 - flood_t) * DF_PACKETS_PER_TICK
    flooded_ids = set(rng.sample(range(late), round(late * DF_FLOOD_SHARE)))
    for t in range(1, DF_TICKS):
        for k in range(DF_PACKETS_PER_TICK):
            src, dst = rng.sample(aps, 2)
            flooded = t > flood_t and (t - flood_t - 1) * DF_PACKETS_PER_TICK + k in flooded_ids
            bits = {**dst_bits(dst_of[dst]), **(flood_bits if flooded else {CLASS_START: 0})}
            lines.append(f"@{t} inject {src[0]}:{src[1]} header={header(lab.bits(bits), rng)}")
    lines.append(f"horizon {DF_TICKS + QUERY_SPACING}")
    return b.text(), "\n".join(sorted(lines, key=_tick_key)) + "\n"


GENERATORS = {
    "query-static": query_static,
    "config-churn": config_churn,
    "dataplane-flood": dataplane_flood,
}
