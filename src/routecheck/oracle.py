"""Brute-force equivalence harness for the logical verification engine.

The oracle side never touches the wildcard algebra: for one concrete
header it walks the (switch, header) state graph that the flow tables
induce and collects every access point the packet can leave at. Cycles
simply stop contributing, exactly like packets that loop forever. The
harness generates random desk-scale networks and checks, exhaustively
over all headers, that the engine's per-header reachability equals the
walk's. Above the widths that can be enumerated, ``check_case_sampled``
makes the same comparison on the headers where an error shows first:
the corners of every rule match, one bit off each corner, and random
headers.

Deliberate bug injection (``mutation``) perturbs the snapshot the engine
sees, but not the ground truth, to prove that the harness actually
catches analysis errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .hspace import HeaderSpace, Ternary
from .sim import Network
from .snapshots import Snapshot, snapshot_of
from .topology import AccessPoint, Action, FlowRule, FlowTable, Topology, load_topology
from .verify import reachable_endpoints

MUTATIONS = ("ignore-priority", "ignore-rewrite", "drop-top-rule")
SAMPLED_RANDOMS = 20  # random headers per access point in check_case_sampled
MAX_ENUMERATED_WIDTH = 10  # run_cases checks every header up to this width
MAX_SAMPLED_WIDTH = 16  # and samples headers up to this one, the product width


@dataclass
class OracleCase:
    index: int
    seed: str
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def random_topology_text(rng: random.Random, width: int, max_switches: int) -> str:
    """A random connected topology with at least two access points."""
    n = rng.randint(2, max_switches)
    names = [f"o{i}" for i in range(1, n + 1)]
    links: list[tuple[int, int]] = []
    for i in range(1, n):
        links.append((rng.randrange(i), i))  # random spanning tree
    extra = rng.randint(0, min(2, n * (n - 1) // 2 - (n - 1)))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in links and (b, a) not in links:
            links.append((a, b))

    port_count = [0] * n
    link_ports: list[tuple[int, int, int, int]] = []
    for a, b in links:
        port_count[a] += 1
        port_count[b] += 1
        link_ports.append((a, port_count[a], b, port_count[b]))

    access: list[tuple[int, int, str]] = []
    client_names = ["c1", "c2", "c3", "c4"]
    ci = 0
    for i in range(n):
        k = rng.randint(0, 2)
        if port_count[i] == 0:
            k = max(k, 1)
        for _ in range(k):
            port_count[i] += 1
            access.append((i, port_count[i], client_names[ci % len(client_names)]))
            ci += 1
    while len(access) < 2:
        i = rng.randrange(n)
        port_count[i] += 1
        access.append((i, port_count[i], client_names[ci % len(client_names)]))
        ci += 1

    lines = [f"headerwidth {width}"]
    for i, name in enumerate(names):
        lines.append(f"switch {name} ports {port_count[i]}")
    for a, pa, b, pb in link_ports:
        lines.append(f"link {names[a]}:{pa} {names[b]}:{pb}")
    for i, p, client in access:
        lines.append(f"access {names[i]}:{p} client {client}")
    regions = ["r1", "r2", "r3"]
    for i, name in enumerate(names):
        lines.append(f"location {name} {regions[i % len(regions)]}")
    return "\n".join(lines) + "\n"


def _random_ternary(rng: random.Random, width: int) -> Ternary:
    care = value = 0
    for _ in range(width):
        care <<= 1
        value <<= 1
        r = rng.random()
        if r < 0.4:
            pass  # wildcard
        else:
            care |= 1
            if r < 0.7:
                value |= 1
    return Ternary(width, care, value)


def random_rules(rng: random.Random, topo: Topology, switch: str, max_rules: int) -> list[FlowRule]:
    ports = topo.switch_ports[switch]
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        match = _random_ternary(rng, topo.width)
        r = rng.random()
        if r < 0.62:
            k = 2 if (len(ports) > 1 and rng.random() < 0.2) else 1
            chosen = tuple(rng.sample(ports, k))
            action = Action("fwd", chosen)
        elif r < 0.74:
            mask = 0
            for _ in range(topo.width):
                mask = (mask << 1) | (1 if rng.random() < 0.2 else 0)
            if mask == 0:
                mask = 1
            value = rng.getrandbits(topo.width)
            action = Action("rewrite", (rng.choice(ports),), Ternary(topo.width, mask, value))
        elif r < 0.92:
            action = Action("drop")
        else:
            action = Action("ctrl")
        rules.append(FlowRule(priority=rng.randint(0, 7), match=match, action=action))
    return rules


def random_network(seed: str, width: int = 8, max_switches: int = 6, max_rules: int = 12) -> tuple[Topology, Network]:
    rng = random.Random(seed)
    topo = load_topology(random_topology_text(rng, width, max_switches))
    net = Network(topo)
    for sw in topo.switch_ports:
        for rule in random_rules(rng, topo, sw, max_rules):
            net.apply_flow_mod(sw, "add", rule)
    return topo, net


# -- the per-header oracle -------------------------------------------------


def state_walk(topo: Topology, snap: Snapshot):
    """Exact per-header behaviour by walking the (switch, header) graph.

    Returns walk(access_point, header) -> (frozenset of egress aliases,
    frozenset of switches visited). Independent of the wildcard algebra:
    plain integer matching plus graph search, with cycles handled by the
    visited set.
    """
    tables = {sw: snap.tables[sw].rules for sw in topo.switch_ports}

    def walk(ap: AccessPoint, header: int) -> tuple[frozenset[str], frozenset[str]]:
        egress: set[str] = set()
        visited: set[str] = set()
        stack = [(ap.switch, header)]
        seen: set[tuple[str, int]] = set()
        while stack:
            sw, h = stack.pop()
            if (sw, h) in seen:
                continue
            seen.add((sw, h))
            visited.add(sw)
            rule = next((r for r in tables[sw] if r.match.matches(h)), None)
            if rule is None or rule.action.kind in ("drop", "ctrl"):
                continue
            h2 = rule.action.rewrite.apply(h) if rule.action.kind == "rewrite" else h
            for port in rule.action.ports:
                out = topo.access_point_at(sw, port)
                if out is not None:
                    egress.add(out.alias)
                    continue
                peer = topo.peer(sw, port)
                if peer is not None:
                    stack.append((peer[0], h2))
        return frozenset(egress), frozenset(visited)

    return walk


# -- mutations (deliberate analysis bugs) -----------------------------------


def mutate_snapshot(snap: Snapshot, mutation: str) -> Snapshot:
    """A copy of `snap` with one analysis bug planted in its flow tables.

    The engine trusts a table's rule order as lookup order, so
    ``ignore-priority`` (each table's rules reversed) makes it match rules
    lowest priority first.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; choose from {', '.join(MUTATIONS)}")
    tables = {}
    for sw, table in snap.tables.items():
        rules = table.rules
        if mutation == "ignore-priority":
            tables[sw] = FlowTable(tuple(reversed(rules)))
        elif mutation == "ignore-rewrite":
            fixed = []
            for r in rules:
                if r.action.kind == "rewrite":
                    fixed.append(FlowRule(r.priority, r.match, Action("fwd", r.action.ports)))
                else:
                    fixed.append(r)
            tables[sw] = FlowTable(tuple(fixed))
        else:  # drop-top-rule
            tables[sw] = FlowTable(rules[1:])
    return Snapshot(version=snap.version, tick=snap.tick, tables=tables)


# -- case runner -------------------------------------------------------------


def _compare(topo: Topology, net: Network, mutation: str | None, headers) -> list[str]:
    """Up to five mismatches between the walk over `net`'s tables and the
    engine's reach over them (with `mutation` planted), on the headers that
    a fresh ``headers()`` call gives for each access point in turn."""
    truth = snapshot_of(net)
    analyzed = mutate_snapshot(truth, mutation) if mutation else truth
    walk = state_walk(topo, truth)
    full = HeaderSpace.full(topo.width)
    mismatches = []
    for ap in topo.access_points:
        entries = reachable_endpoints(topo, analyzed, ap, full).entries
        for h in headers():
            expect = walk(ap, h)[0]
            got = frozenset(e.egress.alias for e in entries if e.sent.member(h))
            if got != expect:
                mismatches.append(
                    f"from={ap.alias} header={h:0{topo.width}b} engine={sorted(got)} oracle={sorted(expect)}"
                )
                if len(mismatches) >= 5:
                    return mismatches
    return mismatches


def check_case(topo: Topology, net: Network, mutation: str | None = None) -> list[str]:
    """Compare engine reachability against the walk oracle for all headers.

    Returns mismatch descriptions, empty when the case passes.
    """
    every = range(1 << topo.width)
    return _compare(topo, net, mutation, lambda: every)


def check_case_sampled(topo: Topology, net: Network, rng: random.Random, mutation: str | None = None) -> list[str]:
    """``check_case`` on sampled headers, for widths too large to enumerate.

    From every access point it checks both corners of every rule match
    (wildcards all 0, all 1), each corner with one bit flipped, and
    ``SAMPLED_RANDOMS`` headers drawn from `rng`: priority shadowing,
    rewrites and residual splits go wrong first at those corners.
    """
    width = topo.width
    full_mask = (1 << width) - 1
    corners = set()
    for table in net.tables.values():
        for r in table.rules:
            corners |= {r.match.value, r.match.value | full_mask & ~r.match.care}
    fixed = sorted(corners | {c ^ 1 << i for c in corners for i in range(width)})
    return _compare(topo, net, mutation, lambda: fixed + [rng.getrandbits(width) for _ in range(SAMPLED_RANDOMS)])


def run_cases(
    count: int,
    seed: int,
    width: int = 8,
    max_switches: int = 6,
    max_rules: int = 12,
    mutation: str | None = None,
) -> list[OracleCase]:
    """Referee `count` random networks, each seeded from `seed` and its index.

    Up to ``MAX_ENUMERATED_WIDTH`` a case checks every header; above it, up
    to ``MAX_SAMPLED_WIDTH``, ``check_case_sampled`` checks the headers it
    picks, drawn from a generator seeded from the case seed. Each argument
    out of range is refused naming its ``routecheck oracle`` option.
    """
    for option, value, least in (
        ("--count", count, 0),
        ("--width", width, 1),
        ("--switches", max_switches, 2),
        ("--rules", max_rules, 0),
    ):
        if value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    if width > MAX_SAMPLED_WIDTH:
        raise ValueError(f"--width must be at most {MAX_SAMPLED_WIDTH}, got {width}")
    cases = []
    for i in range(count):
        case_seed = f"{seed}:oracle:{i}"
        topo, net = random_network(case_seed, width=width, max_switches=max_switches, max_rules=max_rules)
        if width <= MAX_ENUMERATED_WIDTH:
            mismatches = check_case(topo, net, mutation=mutation)
        else:
            mismatches = check_case_sampled(topo, net, random.Random(f"{case_seed}:headers"), mutation=mutation)
        cases.append(OracleCase(index=i, seed=case_seed, mismatches=mismatches))
    return cases
