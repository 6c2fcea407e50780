"""Scenario scripts: timed directives plus adversary templates.

Grammar (one directive per line, ``#`` starts a comment)::

    horizon <ticks>
    @<tick> flowmod add <sw> prio=<p> match=<ternary> action=fwd:<ports>|rewrite:<mask>/<value>:<ports>|drop|ctrl
    @<tick> flowmod remove <sw> prio=<p> match=<ternary> action=<...>
    @<tick> inject <sw>:<port> header=<bits>
    @<tick> query client=<id> kind=isolation|sources|geo|summary [at=<sw>:<port>]
    @<tick> attack join client=<id> hidden=<sw>:<port> [match=<ternary>] [prio=<p>]
    @<tick> attack divert client=<id> via=<region> [match=<ternary>] [prio=<p>]
    @<tick> attack transient flowmod add <sw> prio=<p> match=<ternary> action=<...> f=<frac> period=<ticks>
    @<tick> attack suppress sw=<id> count=<n>

A key may appear once per line, and only where its directive's grammar
names it. The token helpers and the flowmod rule reader live in
``topology``, beside ``FlowRule.__str__``.

Each directive is a ``Directive`` named tuple, immutable and equal by
value, built once per script line or expanded template step. Templates
expand into concrete flowmod directives before execution. A join or
divert builds its route's flowmods when its line is read, which also
refuses one that cannot expand, and ``expand`` reuses them. The
transient template keeps the rule installed for exactly round(f*period)
ticks per period, at a per-period random offset drawn from the run seed,
so each period carries the same duty cycle while the on-window placement
stays unpredictable. ``suppress`` withholds the next n events of a switch
from the verification controller (the switch still applies them), which
is how event-loss attacks are staged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .hspace import Ternary
from .sim import Network, Packet
from .topology import AccessPoint, Action, FlowRule, Topology
from .topology import check_keys, key_values, number, numbered_lines, parse_flowmod, split_endpoint
from .wire import KIND_CODES

QUERY_KINDS = tuple(KIND_CODES)
DEFAULT_ATTACK_PRIORITY = 100
SETTLE_TICKS = 12


class ScenarioError(ValueError):
    """Malformed script or directive referencing missing topology elements."""


class Directive(NamedTuple):
    """One timed directive; a named tuple because every script line and
    every expanded template step makes one."""

    tick: int
    kind: str  # "flowmod" | "inject" | "query" | "suppress"
    op: str = ""
    switch: str = ""
    rule: FlowRule | None = None
    port: str = ""
    header: int = 0
    client: str = ""
    query_kind: str = ""
    count: int = 0


@dataclass(frozen=True)
class TransientSpec:
    tick: int
    switch: str
    rule: FlowRule
    duty: float
    period: int


@dataclass(frozen=True)
class JoinSpec:
    tick: int
    client: str
    hidden: tuple[str, str]
    flowmods: tuple[Directive, ...]  # the route's rules, built once by ``join_spec``


@dataclass(frozen=True)
class DivertSpec:
    tick: int
    client: str
    via: str
    flowmods: tuple[Directive, ...]  # the route's rules, built once by ``divert_spec``


@dataclass
class Script:
    directives: list[Directive] = field(default_factory=list)
    transients: list[TransientSpec] = field(default_factory=list)
    joins: list[JoinSpec] = field(default_factory=list)
    diverts: list[DivertSpec] = field(default_factory=list)
    horizon_hint: int | None = None

    def base_horizon(self) -> int:
        ticks = [d.tick for d in self.directives]
        ticks += [s.tick for s in self.joins + self.diverts + self.transients]
        last = max(ticks) if ticks else 0
        return max(self.horizon_hint or 0, last + SETTLE_TICKS)


def _client(kv: dict[str, str], topo: Topology) -> str:
    client = kv.get("client", "")
    topo.client_aps(client)  # refuses an unknown client
    return client


def _attack_match(kv: dict[str, str], topo: Topology) -> tuple[Ternary, int]:
    """The ``match=`` (default: every header) and ``prio=`` of a join or divert line."""
    match = Ternary.parse(kv["match"]) if "match" in kv else Ternary.wildcard(topo.width)
    return match, number(int, kv.get("prio", str(DEFAULT_ATTACK_PRIORITY)), "prio=")


def parse_scenario(text: str, topo: Topology) -> Script:
    """The script ``text`` describes, read in one pass over its lines; a
    refusal is a ScenarioError that names its line."""
    script = Script()
    add = script.directives.append
    width = topo.width
    parsed: dict[tuple[str, ...], FlowRule] = {}  # see topology.parse_flowmod
    points: dict[str, AccessPoint] = {}  # inject endpoint token -> the access point it names
    for lineno, line in numbered_lines(text):
        toks = line.split()
        try:
            if toks[0] == "horizon":
                if len(toks) != 2:
                    raise ScenarioError("horizon takes one argument")
                script.horizon_hint = number(int, toks[1], "horizon")
                continue
            if not toks[0].startswith("@"):
                raise ScenarioError("directives start with @<tick>")
            try:
                tick = int(toks[0][1:])
            except ValueError:
                raise ScenarioError(f"bad tick {toks[0]!r}") from None
            if tick < 0:
                raise ScenarioError("tick must be non-negative")
            if len(toks) < 2:
                raise ScenarioError("empty directive")
            kw = toks[1]

            if kw == "flowmod":
                op, switch, rule = parse_flowmod(toks[2:], topo, parsed)
                add(Directive(tick, "flowmod", op, switch, rule))
            elif kw == "inject":
                if len(toks) != 4:
                    raise ScenarioError("expected inject <sw>:<port> header=<bits>")
                ap = points.get(toks[2])
                if ap is None:
                    ap = points[toks[2]] = topo.access_point(*split_endpoint(toks[2]))
                tok = toks[3]
                bits = tok[7:] if tok.startswith("header=") else key_values(toks[3:]).get("header", "")
                if len(bits) != width or bits.strip("01"):
                    raise ScenarioError(f"header must be {width} bits of 0/1")
                # positional: keywords cost about 0.5 us more a line, and inject scripts run to thousands of lines
                add(Directive(tick, "inject", "", ap.switch, None, ap.port, int(bits, 2)))
            elif kw == "query":
                kv = key_values(toks[2:])
                client = _client(kv, topo)
                if client in topo.unkeyed:
                    raise ScenarioError(f"unkeyed client {client} cannot query")
                kind = kv.get("kind", "")
                if kind not in QUERY_KINDS:
                    raise ScenarioError(f"query kind must be one of {', '.join(QUERY_KINDS)}")
                sw = port = ""
                if "at" in kv:
                    sw, port = topo.access_point_of(client, kv["at"]).key()
                check_keys(kv, ("client", "kind", "at"))
                add(Directive(tick, "query", switch=sw, port=port, client=client, query_kind=kind))
            elif kw == "attack":
                if len(toks) < 3:
                    raise ScenarioError("attack needs a template name")
                template = toks[2]
                if template == "join":
                    kv = key_values(toks[3:])
                    client = _client(kv, topo)
                    if "hidden" not in kv:
                        raise ScenarioError("join needs hidden=<sw>:<port>")
                    hidden = topo.access_point(*split_endpoint(kv["hidden"])).key()
                    match, prio = _attack_match(kv, topo)
                    check_keys(kv, ("client", "hidden", "match", "prio"))
                    script.joins.append(join_spec(tick, client, hidden, match, prio, topo))
                elif template == "divert":
                    kv = key_values(toks[3:])
                    client = _client(kv, topo)
                    via = kv.get("via", "")
                    if via not in set(topo.locations.values()):
                        raise ScenarioError(f"no switch located in region {via!r}")
                    match, prio = _attack_match(kv, topo)
                    check_keys(kv, ("client", "via", "match", "prio"))
                    script.diverts.append(divert_spec(tick, client, via, match, prio, topo))
                elif template == "transient":
                    if len(toks) < 4 or toks[3] != "flowmod":
                        raise ScenarioError("transient wraps a flowmod directive")
                    tail = toks[4:]
                    extras = key_values([tok for tok in tail if tok.startswith(("f=", "period="))])
                    core = [tok for tok in tail if not tok.startswith(("f=", "period="))]
                    if "f" not in extras or "period" not in extras:
                        raise ScenarioError("transient needs f= and period=")
                    op, switch, rule = parse_flowmod(core, topo, parsed)
                    if op != "add":
                        raise ScenarioError("transient template installs rules (op must be add)")
                    duty = number(float, extras["f"], "f=")
                    period = number(int, extras["period"], "period=")
                    if not (0.0 < duty < 1.0):
                        raise ScenarioError("duty cycle must satisfy 0 < f < 1")
                    if period < 2:
                        raise ScenarioError("period must be at least 2 ticks")
                    script.transients.append(TransientSpec(tick, switch, rule, duty, period))
                elif template == "suppress":
                    kv = key_values(toks[3:])
                    sw = kv.get("sw", "")
                    if sw not in topo.switch_ports:
                        raise ScenarioError(f"unknown switch {sw!r}")
                    count = number(int, kv.get("count", "1"), "count=")
                    if count < 1:
                        raise ScenarioError("suppress count must be positive")
                    check_keys(kv, ("sw", "count"))
                    add(Directive(tick, "suppress", switch=sw, count=count))
                else:
                    raise ScenarioError(f"unknown attack template {template!r}")
            else:
                raise ScenarioError(f"unknown directive {kw!r}")
        except ValueError as e:
            raise ScenarioError(f"line {lineno}: {e}") from None
    return script


# -- template expansion ------------------------------------------------


def _route_flowmods(
    tick: int, match: Ternary, priority: int, hops: list[tuple[str, str]], topo: Topology
) -> tuple[Directive, ...]:
    """One forwarding flowmod per distinct (switch, out port) hop of a route, in route order;
    each rule is checked against its switch, which refuses a ``match=`` of another width."""
    out = []
    for sw, port in dict.fromkeys(hops):
        rule = FlowRule(priority, match, Action("fwd", (port,)))
        topo.check_rule(sw, rule)
        out.append(Directive(tick, "flowmod", "add", sw, rule))
    return tuple(out)


def join_spec(
    tick: int, client: str, hidden: tuple[str, str], match: Ternary, priority: int, topo: Topology
) -> JoinSpec:
    """A join template with its route's flowmods: from ``hidden`` to the
    client's first access point. One that cannot expand is refused here,
    not at run time."""
    target = topo.client_aps(client)[0]
    route = topo.path_between(hidden[0], target.switch)
    if route is None:
        raise ScenarioError(f"no path from hidden point {hidden[0]} to {target.switch}")
    flowmods = _route_flowmods(tick, match, priority, route + [target.key()], topo)
    return JoinSpec(tick, client, hidden, flowmods)


def divert_spec(tick: int, client: str, via: str, match: Ternary, priority: int, topo: Topology) -> DivertSpec:
    """A divert template with its route's flowmods: from the client's first
    access point through the first switch of region ``via`` to its second.
    One that cannot expand is refused here, not at run time."""
    aps = topo.client_aps(client)
    if len(aps) < 2:
        raise ScenarioError(f"divert needs a client with at least two access points, {client} has {len(aps)}")
    a1, a2 = aps[0], aps[1]
    det = min(sw for sw, region in topo.locations.items() if region == via)
    leg1 = topo.path_between(a1.switch, det)
    leg2 = topo.path_between(det, a2.switch)
    if leg1 is None or leg2 is None:
        raise ScenarioError(f"no path through region {via} for client {client}")
    flowmods = _route_flowmods(tick, match, priority, leg1 + leg2 + [a2.key()], topo)
    return DivertSpec(tick, client, via, flowmods)


def transient_pattern(spec: TransientSpec, horizon: int, rng: random.Random) -> list[bool]:
    """Per-tick presence of the transient rule from its start tick to horizon.

    Each period keeps the rule installed for exactly round(f*period) ticks
    at a random in-period offset (wrapping inside the period).
    """
    on_per_period = round(spec.duty * spec.period)
    on_per_period = min(max(on_per_period, 1), spec.period - 1)
    present = [False] * (horizon + 1)
    t = spec.tick
    while t <= horizon:
        offset = rng.randrange(spec.period)
        for j in range(on_per_period):
            tt = t + (offset + j) % spec.period
            if tt <= horizon:
                present[tt] = True
        t += spec.period
    return present


def _expand_transient(spec: TransientSpec, horizon: int, rng: random.Random) -> list[Directive]:
    present = transient_pattern(spec, horizon, rng)
    out = []
    prev = False
    for t in range(spec.tick, horizon + 1):
        if present[t] and not prev:
            out.append(Directive(t, "flowmod", "add", spec.switch, spec.rule))
        elif prev and not present[t]:
            out.append(Directive(t, "flowmod", "remove", spec.switch, spec.rule))
        prev = present[t]
    return out


def expand(script: Script, rng: random.Random, horizon: int) -> list[Directive]:
    """Every directive of the script, templates expanded, in tick order;
    within a tick: script lines, joins, diverts, transients."""
    out = list(script.directives)
    for spec in script.joins + script.diverts:
        out.extend(spec.flowmods)
    for spec in script.transients:
        out.extend(_expand_transient(spec, horizon, rng))
    out.sort(key=lambda d: d.tick)
    return out


# -- execution ---------------------------------------------------------


def run_scenario(script: Script, net: Network, seed: int, controller=None, agents=None):
    """Execute a script tick by tick; returns (events, deliveries).

    Deterministic given topology, script and seed. When a controller is
    supplied it sees every switch event (minus adversary-suppressed ones)
    and every tick boundary, and at the horizon tick it closes the sessions
    still open; client agents receive deliveries at their access points
    and may send packets on the next tick.
    """
    agents = agents or {}
    rng = random.Random(f"{seed}:scenario")
    horizon = script.base_horizon()
    directives = expand(script, rng, horizon)
    if any(d.kind == "query" for d in directives) and controller is None:
        raise ScenarioError("query directives need a running verification controller")

    by_tick: dict[int, list[Directive]] = {}
    for d in directives:
        by_tick.setdefault(d.tick, []).append(d)

    suppress: dict[str, int] = {}
    pending: list[tuple[int, str, str, Packet]] = []  # (tick, sw, port, packet)
    seen_ev = 0
    seen_del = 0

    def send_later(tick: int, sw: str, port: str, packet: Packet) -> None:
        pending.append((tick, sw, port, packet))

    def drain(tick: int) -> None:
        nonlocal seen_ev, seen_del
        while len(net.events) > seen_ev or len(net.deliveries) > seen_del:
            new_events = net.events[seen_ev:]
            seen_ev = len(net.events)
            if new_events and controller is not None:
                passed = []
                for ev in new_events:
                    if suppress.get(ev.switch, 0) > 0:
                        suppress[ev.switch] -= 1
                        continue
                    passed.append(ev)
                if passed:
                    controller.on_events(passed, net)
            new_deliveries = net.deliveries[seen_del:]
            seen_del = len(net.deliveries)
            for d in new_deliveries:
                agent = agents.get(d.client)
                if agent is not None:
                    agent.on_delivery(d, tick, send_later)

    for tick in range(horizon + 1):
        net.tick = tick
        due_sends = [p for p in pending if p[0] == tick]
        pending[:] = [p for p in pending if p[0] != tick]
        for (_, sw, port, packet) in due_sends:
            net.inject(packet, (sw, port))
        for d in by_tick.get(tick, ()):
            if d.kind == "flowmod":
                net.apply_flow_mod(d.switch, d.op, d.rule)
            elif d.kind == "inject":
                net.inject(Packet(d.header), (d.switch, d.port))
            elif d.kind == "suppress":
                suppress[d.switch] = suppress.get(d.switch, 0) + d.count
            elif d.kind == "query":
                agent = agents.get(d.client)
                if agent is None:
                    raise ScenarioError(f"no agent for client {d.client} (unkeyed clients cannot query)")
                at = (d.switch, d.port) if d.switch else None
                packet, point = agent.make_query(d.query_kind, at=at)
                net.inject(packet, point)
            drain(tick)
        drain(tick)
        if controller is not None:
            controller.on_tick(tick, net)
            if tick == horizon:
                controller.close_sessions(tick, net)
            drain(tick)

    return list(net.events), list(net.deliveries)
