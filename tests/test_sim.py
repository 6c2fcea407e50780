"""Data-plane simulator: forwarding, flow mods, packet-out, event stream."""

import hashlib
import random

import pytest

from routecheck.hspace import HeaderSpace, Ternary
from routecheck.oracle import random_network, random_rules, state_walk
from routecheck.scenario import Directive
from routecheck.sim import Delivery, Network, Packet, SwitchEvent, TraceHop
from routecheck.snapshots import snapshot_of
from routecheck.topology import Action, FlowRule, load_topology
from routecheck.verify import reachable_endpoints

LINE = """
headerwidth 4
switch swA ports 2
switch swB ports 2
link swA:1 swB:1
access swA:2 client alice
access swB:2 client bob
"""

RING = """
headerwidth 4
switch swA ports 3
switch swB ports 3
link swA:1 swB:1
link swB:2 swA:2
access swA:3 client alice
access swB:3 client bob
"""


def rule(prio, match, action):
    return FlowRule(prio, Ternary.parse(match), Action.parse(action))


def make_net(doc=LINE):
    topo = load_topology(doc)
    return topo, Network(topo)


def test_empty_tables_drop_single_hop():
    _, net = make_net()
    paths = net.forward(Packet(0b1010), ("swA", "2"))
    assert len(paths) == 1
    assert paths[0].outcome == "drop"
    assert len(paths[0].hops) == 1
    assert paths[0].hops[0].switch == "swA"


def test_two_hop_egress_at_peer():
    topo, net = make_net()
    net.apply_flow_mod("swA", "add", rule(5, "xxxx", "fwd:1"))
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    paths = net.forward(Packet(0b0001), ("swA", "2"))
    assert len(paths) == 1
    path = paths[0]
    assert path.outcome == "egress"
    assert path.egress.alias == "bob:ap1"
    assert [h.switch for h in path.hops] == ["swA", "swB"]


def test_trace_hops_cross_existing_links():
    topo, net = make_net()
    net.apply_flow_mod("swA", "add", rule(5, "xxxx", "fwd:1"))
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    for path in net.forward(Packet(3), ("swA", "2")):
        for a, b in zip(path.hops, path.hops[1:]):
            out_port = a.action.split(":", 1)[1]
            assert topo.peer(a.switch, out_port) == (b.switch, b.in_port)


def test_loop_is_reported_not_raised():
    _, net = make_net(RING)
    net.apply_flow_mod("swA", "add", rule(5, "xxxx", "fwd:1"))
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    paths = net.forward(Packet(0), ("swA", "3"))
    assert [p.outcome for p in paths] == ["loop"]


def test_rewrite_changes_header_on_egress():
    _, net = make_net()
    net.apply_flow_mod("swA", "add", rule(5, "xxxx", "rewrite:1000/1xxx:1"))
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    paths = net.inject(Packet(0b0011), ("swA", "2"))
    assert paths[0].outcome == "egress"
    assert net.deliveries[-1].packet.header == 0b1011


def test_multicast_yields_one_subtrace_per_port():
    doc = """
headerwidth 4
switch swA ports 3
switch swB ports 2
link swA:1 swB:1
access swA:2 client alice
access swA:3 client carol
access swB:2 client bob
"""
    _, net = make_net(doc)
    net.apply_flow_mod("swA", "add", rule(5, "xxxx", "fwd:1,3"))
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    paths = net.inject(Packet(1), ("swA", "2"))
    assert sorted(p.outcome for p in paths) == ["egress", "egress"]
    assert {d.client for d in net.deliveries} == {"bob", "carol"}


def test_to_controller_emits_packet_in():
    _, net = make_net()
    net.apply_flow_mod("swA", "add", rule(9, "1xxx", "ctrl"))
    net.inject(Packet(0b1000, b"hello"), ("swA", "2"))
    pkt_ins = [e for e in net.events if e.kind == "packet_in"]
    assert len(pkt_ins) == 1
    assert pkt_ins[0].switch == "swA"
    assert pkt_ins[0].in_port == "2"
    assert pkt_ins[0].packet.payload == b"hello"


def test_forward_requires_access_point():
    _, net = make_net()
    with pytest.raises(ValueError, match="not an access point"):
        net.forward(Packet(0), ("swA", "1"))


# -- flow mods ----------------------------------------------------------------


def test_add_then_remove_restores_table():
    _, net = make_net()
    before = net.tables["swA"].rules
    r = rule(5, "1xxx", "fwd:1")
    net.apply_flow_mod("swA", "add", r)
    ev = net.apply_flow_mod("swA", "remove", rule(5, "1xxx", "fwd:1"))
    assert net.tables["swA"].rules == before
    assert ev.noop is False


def test_remove_absent_rule_is_flagged_noop():
    _, net = make_net()
    ev = net.apply_flow_mod("swA", "remove", rule(5, "1xxx", "fwd:1"))
    assert ev.noop is True
    assert ev.kind == "flowmod"


def test_same_priority_lookup_order_is_insertion_order():
    _, net = make_net()
    first = rule(5, "xxxx", "fwd:1")
    second = rule(5, "xxxx", "drop")
    net.apply_flow_mod("swA", "add", first)
    net.apply_flow_mod("swA", "add", second)
    assert net.tables["swA"].match_header(0) == first


def test_event_seq_strictly_increases_per_switch():
    _, net = make_net()
    for i in range(5):
        net.apply_flow_mod("swA", "add", rule(i, "xxxx", "drop"))
        net.apply_flow_mod("swB", "add", rule(i, "xxxx", "drop"))
    for sw in ("swA", "swB"):
        seqs = [e.seq for e in net.events if e.switch == sw]
        assert seqs == list(range(1, 6))


def test_flowmod_validates_ports_and_width():
    _, net = make_net()
    with pytest.raises(ValueError, match="no port"):
        net.apply_flow_mod("swA", "add", rule(1, "xxxx", "fwd:9"))
    with pytest.raises(ValueError, match="width"):
        net.apply_flow_mod("swA", "add", rule(1, "xx", "drop"))


def test_flowmod_rejects_a_rewrite_of_another_width():
    _, net = make_net()
    with pytest.raises(ValueError, match="^rewrite width 2 != header width 4$"):
        net.apply_flow_mod("swA", "add", rule(1, "xxxx", "rewrite:11/00:1"))
    assert net.tables["swA"].rules == () and net.events == []


def test_replayed_mod_sequence_matches_simple_replay():
    """Final table equals an order-preserving replay of the same script."""
    _, net = make_net()
    rng = random.Random(4)
    script = []
    live = []
    for _ in range(50):
        if live and rng.random() < 0.4:
            r = rng.choice(live)
            script.append(("remove", r))
        else:
            r = rule(rng.randint(0, 3), rng.choice(["xxxx", "1xxx", "0xxx", "x1xx"]), "drop")
            script.append(("add", r))
        if script[-1][0] == "add":
            live.append(script[-1][1])
        else:
            live.remove(script[-1][1])
    for op, r in script:
        net.apply_flow_mod("swA", op, r)
    replay = []
    for op, r in script:
        if op == "add":
            replay.append(r)
        else:
            replay.remove(r)
    assert sorted(net.tables["swA"].rules, key=str) == sorted(replay, key=str)


# -- packet out ------------------------------------------------------------------


def test_packet_out_at_access_point_delivers():
    _, net = make_net()
    assert net.packet_out("swA", "2", Packet(0b0101, b"x")) is None
    assert [d.client for d in net.deliveries] == ["alice"]


def test_packet_out_internal_enters_neighbor_pipeline():
    _, net = make_net()
    net.packet_out("swA", "1", Packet(0))
    assert net.deliveries == []  # neighbor table empty: dropped there
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:2"))
    net.packet_out("swA", "1", Packet(0))
    assert [d.client for d in net.deliveries] == ["bob"]


def test_packet_out_unknown_port():
    _, net = make_net()
    with pytest.raises(ValueError, match="no port"):
        net.packet_out("swA", "9", Packet(0))


# -- cross-module oracle -----------------------------------------------------------


def per_path_walk(topo, snap, switch, header):
    """Reference walk: every simple path of (switch, header) states.

    Enumerates each path, as the simulator once did, and returns the
    egress (alias, header) pair of every state-to-access-point edge those
    paths reach, sorted, plus the set of controller states.
    Exponential in the worst case, so for small networks only.
    """
    edges, ctrl = set(), set()

    def step(sw, h, visited):
        if (sw, h) in visited:
            return
        rule = next((r for r in snap.tables[sw].rules if r.match.matches(h)), None)
        if rule is None or rule.action.kind == "drop":
            return
        if rule.action.kind == "ctrl":
            ctrl.add((sw, h))
            return
        h2 = rule.action.rewrite.apply(h) if rule.action.kind == "rewrite" else h
        for port in rule.action.ports:
            ap = topo.access_point_at(sw, port)
            if ap is not None:
                edges.add((sw, h, ap.alias, h2))
            elif topo.peer(sw, port) is not None:
                step(topo.peer(sw, port)[0], h2, visited | {(sw, h)})

    step(switch, header, frozenset())
    return sorted((alias, h2) for _, _, alias, h2 in edges), ctrl


def assert_walk_matches_reference(topo, net, ap, h):
    """One copy per state-to-AP edge and one packet-in per controller state."""
    want_egress, want_ctrl = per_path_walk(topo, snapshot_of(net), ap.switch, h)
    paths = net.forward(Packet(h), (ap.switch, ap.port))
    got = sorted((p.egress.alias, p.header) for p in paths if p.outcome == "egress")
    assert got == want_egress, f"ap={ap.alias} header={h:b}"
    n_events = len(net.events)
    net.inject(Packet(h), (ap.switch, ap.port))
    pkt_ins = [(e.switch, e.packet.header) for e in net.events[n_events:]]
    assert sorted(pkt_ins) == sorted(want_ctrl), f"ap={ap.alias} header={h:b}"


# A diamond (both links of the ring lead to the same swB state) and a
# rewrite loop (swA sets the top bit, swB clears it and sends it back),
# each with copies to both clients on the way. In the loop, swB returns
# other headers over both links, so swA's controller rule for 001x is
# reached by two branches.
DIAMOND_RULES = {"swA": [rule(5, "xxxx", "fwd:1,2,3")], "swB": [rule(5, "xxxx", "fwd:3")]}
REWRITE_LOOP_RULES = {
    "swA": [rule(9, "001x", "ctrl"), rule(5, "0xxx", "rewrite:1000/1xxx:1,3"), rule(1, "xxxx", "fwd:2")],
    "swB": [rule(5, "1xxx", "rewrite:0000/1xxx:2,3"), rule(1, "xxxx", "fwd:1,2")],
}


def test_forward_egress_agrees_with_state_walk_oracle():
    """forward() and the engine-side walk oracle agree on egress sets.

    The egress traces also carry exactly one (alias, header) copy per
    state-to-access-point edge of a walk over the snapshot, with multicast
    and rewrite loops included.
    """
    for i in range(10):
        topo, net = random_network(f"sim-oracle-{i}", width=6, max_switches=4, max_rules=8)
        walk = state_walk(topo, snapshot_of(net))
        rng = random.Random(i)
        for ap in topo.access_points:
            for _ in range(40):
                h = rng.getrandbits(topo.width)
                got = {p.egress.alias for p in net.forward(Packet(h), (ap.switch, ap.port)) if p.outcome == "egress"}
                assert got == walk(ap, h)[0], f"ap={ap.alias} header={h:06b}"
                assert_walk_matches_reference(topo, net, ap, h)
    for rules in (DIAMOND_RULES, REWRITE_LOOP_RULES):
        topo, net = make_net(RING)
        for sw, rs in rules.items():
            for r in rs:
                net.apply_flow_mod(sw, "add", r)
        walk = state_walk(topo, snapshot_of(net))
        for ap in topo.access_points:
            for h in range(1 << topo.width):
                paths = net.forward(Packet(h), (ap.switch, ap.port))
                assert {p.egress.alias for p in paths if p.outcome == "egress"} == walk(ap, h)[0]
                assert_walk_matches_reference(topo, net, ap, h)


def test_long_rewrite_chain_reaches_what_engine_and_oracle_say():
    """Header 0 from alice bounces between swA and swB five times, each
    swA rule setting the lowest clear bit, before swB sends it to bob: a
    path of ten switches on a two-switch network. On every header the
    simulator's egress set is the walk oracle's and the engine's."""
    topo, net = make_net(LINE.replace("headerwidth 4", "headerwidth 8"))
    for i in range(5):
        match = "x" * (7 - i) + "0" + "1" * i  # bit i clear, the bits below it set
        written = "0" * (7 - i) + "1" + "0" * i
        net.apply_flow_mod("swA", "add", rule(5, match, f"rewrite:{written}/{written}:1"))
    net.apply_flow_mod("swB", "add", rule(9, "xxx11111", "fwd:2"))
    net.apply_flow_mod("swB", "add", rule(1, "xxxxxxxx", "fwd:1"))
    snap = snapshot_of(net)
    walk = state_walk(topo, snap)
    full = HeaderSpace.full(topo.width)
    for ap in topo.access_points:
        entries = reachable_endpoints(topo, snap, ap, full).entries
        for h in range(1 << topo.width):
            got = {p.egress.alias for p in net.forward(Packet(h), (ap.switch, ap.port)) if p.outcome == "egress"}
            engine = {e.egress.alias for e in entries if e.sent.member(h)}
            assert got == walk(ap, h)[0] == engine, f"ap={ap.alias} header={h:08b}"
    paths = net.inject(Packet(0), ("swA", "2"))
    assert [(p.outcome, len(p.hops)) for p in paths] == [("egress", 10)]
    assert net.deliveries == [Delivery(0, "bob", "swB", "2", Packet(0b11111))]


def test_forward_egress_agrees_with_state_walk_oracle_at_width_16():
    """forward() and the walk oracle agree at the product's header width,
    on networks of up to 30 switches and 40 rules each: from every access
    point, on both corners of every rule match and 50 random headers."""
    full_mask = (1 << 16) - 1
    checks = 0
    for i in range(12):
        topo, net = random_network(f"w16-{i}", width=16, max_switches=30, max_rules=40)
        walk = state_walk(topo, snapshot_of(net))
        corners = set()
        for table in net.tables.values():
            for r in table.rules:
                corners |= {r.match.value, r.match.value | full_mask & ~r.match.care}
        rng = random.Random(i)
        headers = sorted(corners) + [rng.getrandbits(16) for _ in range(50)]
        for ap in topo.access_points:
            for h in headers:
                got = {p.egress.alias for p in net.forward(Packet(h), (ap.switch, ap.port)) if p.outcome == "egress"}
                assert got == walk(ap, h)[0], f"net={i} ap={ap.alias} header={h:016b}"
                checks += 1
    assert checks > 100_000


def full_mesh(n):
    """n switches, each linked to every other one, plus one client each.

    Port k of switch i (k < n) leads to the k-th other switch; port n is
    the access point of client c<i>.
    """
    lines = ["headerwidth 4"] + [f"switch s{i} ports {n}" for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            lines.append(f"link s{a}:{b} s{b}:{a + 1}")
    lines += [f"access s{i}:{n} client c{i}" for i in range(n)]
    return load_topology("\n".join(lines) + "\n")


def test_flood_on_full_mesh_delivers_once_per_access_point():
    """A flood rule on every switch of an 8-mesh: work is per state, not per path."""
    topo = full_mesh(8)
    net = Network(topo)
    flood = "fwd:" + ",".join(str(p) for p in range(1, 9))
    for sw in topo.switch_ports:
        net.apply_flow_mod(sw, "add", rule(5, "xxxx", flood))
    paths = net.inject(Packet(0b0110), ("s0", "8"))
    assert sorted(d.client for d in net.deliveries) == [f"c{i}" for i in range(8)]
    assert len(paths) <= 64
    assert {p.outcome for p in paths} == {"egress", "loop"}


def test_cut_walk_traces_are_pinned():
    """A rewrite chain whose depth-first order first reaches sD by the
    longer way (through sB) while a shorter path (sA-sC) reaches the same
    state: every trace, with its outcome, hop switches and header, is
    pinned."""
    doc = """
headerwidth 4
switch sA ports 3
switch sB ports 2
switch sC ports 3
switch sD ports 3
switch sE ports 2
link sA:1 sB:1
link sA:2 sC:1
link sB:2 sC:2
link sC:3 sD:1
link sD:3 sE:1
access sA:3 client alice
access sD:2 client dave
access sE:2 client eve
"""
    topo = load_topology(doc)
    net = Network(topo)
    net.apply_flow_mod("sA", "add", rule(5, "xxxx", "rewrite:1000/1xxx:1,2"))
    net.apply_flow_mod("sB", "add", rule(5, "1xxx", "rewrite:1100/10xx:2"))
    net.apply_flow_mod("sC", "add", rule(5, "1xxx", "rewrite:0010/xx1x:3"))
    net.apply_flow_mod("sD", "add", rule(5, "1x1x", "rewrite:0001/xxx1:2,3"))
    net.apply_flow_mod("sE", "add", rule(5, "xxxx", "fwd:2"))
    paths = net.forward(Packet(0), ("sA", "3"))
    got = [(p.outcome, [h.switch for h in p.hops], p.header) for p in paths]
    assert got == [
        ("egress", ["sA", "sB", "sC", "sD"], 0b1011),
        ("egress", ["sA", "sB", "sC", "sD", "sE"], 0b1011),
    ]
    assert_walk_matches_reference(topo, net, topo.access_points[0], 0)


def test_mesh_walks_match_per_path_walk():
    """Random rules and partial floods over meshes: the same deliveries and
    packet-ins as the per-path walk, one copy per edge and per controller
    state."""
    for i in range(12):
        rng = random.Random(i)
        topo = full_mesh(rng.randint(3, 5))
        net = Network(topo)
        for sw in topo.switch_ports:
            for r in random_rules(rng, topo, sw, 4):
                net.apply_flow_mod(sw, "add", r)
            ports = topo.switch_ports[sw]
            flood = Action("fwd", tuple(rng.sample(ports, rng.randint(1, len(ports)))))
            net.apply_flow_mod(sw, "add", FlowRule(0, Ternary.parse("xxxx"), flood))
        for ap in topo.access_points:
            for h in range(1 << topo.width):
                assert_walk_matches_reference(topo, net, ap, h)


def test_long_chain_walks_without_recursion():
    """An honest 1,100-switch chain carries one packet end to end."""
    n = 1100
    lines = ["headerwidth 4"] + [f"switch s{i} ports 2" for i in range(n)]
    lines += [f"link s{i}:2 s{i + 1}:1" for i in range(n - 1)]
    lines += ["access s0:1 client alice", f"access s{n - 1}:2 client bob"]
    topo = load_topology("\n".join(lines) + "\n")
    net = Network(topo)
    for sw in topo.switch_ports:
        net.apply_flow_mod(sw, "add", rule(5, "xxxx", "fwd:2"))
    paths = net.inject(Packet(0b1001), ("s0", "1"))
    assert [p.outcome for p in paths] == ["egress"]
    assert len(paths[0].hops) == n
    assert [d.client for d in net.deliveries] == ["bob"]


# -- trace characterisation ----------------------------------------------------


def trace_digest() -> tuple[str, dict[str, int]]:
    """sha256 over every trace of injections on seeded random networks.

    Each trace contributes its outcome, its hops (switch, in_port, rule
    text, action), its header and its egress alias, in the order the walk
    returns them. The networks are ``random_network`` ones, which carry
    rewrites, multi-port rules and cycles; every other one also gets a
    priority-0 flood on each switch. Every access point injects every
    header. Also returns a count per outcome and of rewrite hops, so the
    caller can see what was covered.
    """
    digest = hashlib.sha256()
    seen: dict[str, int] = {}
    for i in range(16):
        topo, net = random_network(f"trace-char-{i}", width=5, max_switches=5, max_rules=8)
        if i % 2:
            for sw in topo.switch_ports:
                net.apply_flow_mod(sw, "add", FlowRule(0, Ternary.wildcard(topo.width), Action("fwd", topo.switch_ports[sw])))
        for ap in topo.access_points:
            for h in range(1 << topo.width):
                for p in net.inject(Packet(h), (ap.switch, ap.port)):
                    seen[p.outcome] = seen.get(p.outcome, 0) + 1
                    hops = ";".join(f"{x.switch},{x.in_port},{x.rule},{x.action}" for x in p.hops)
                    alias = p.egress.alias if p.egress else "-"
                    digest.update(f"{ap.alias}|{h}|{p.outcome}|{hops}|{p.header}|{alias}\n".encode())
                    seen["rewrite"] = seen.get("rewrite", 0) + sum(
                        1 for x in p.hops if x.rule is not None and x.rule.action.kind == "rewrite"
                    )
    return digest.hexdigest(), seen


def test_traces_match_the_recorded_characterisation():
    """The walk's traces, byte for byte, as recorded under a hop limit that
    cut nothing: a change to the walk's order, cuts or trace contents shows."""
    digest, seen = trace_digest()
    assert {"egress", "drop", "controller", "loop", "rewrite"} <= set(seen), seen
    assert digest == "414bcbd2bb205ecea03da75c0927009889651ce1f4bbf9beb8beb1747935026a", (digest, seen)


# -- records ----------------------------------------------------------------------


def test_event_and_delivery_lines_keep_their_text():
    """The text ``events.log`` and ``deliveries.log`` carry, for a flowmod, a
    removal of an absent rule, a packet-in and a delivery."""
    _, net = make_net()
    net.tick = 3
    added = net.apply_flow_mod("swA", "add", rule(5, "1xxx", "fwd:2"))
    noop = net.apply_flow_mod("swA", "remove", rule(7, "0xxx", "drop"))
    net.apply_flow_mod("swA", "add", rule(6, "0xxx", "ctrl"))
    net.inject(Packet(0b1010, b"hi"), ("swB", "2"))  # swB has no rules: dropped
    net.apply_flow_mod("swB", "add", rule(5, "xxxx", "fwd:1"))
    net.tick = 4
    net.inject(Packet(0b1001, b"abc"), ("swB", "2"))
    net.inject(Packet(0b0110), ("swB", "2"))
    assert added.line(4) == "seq=1 t=3 sw=swA flowmod add prio=5 match=1xxx action=fwd:2"
    assert noop.line(4) == "seq=2 t=3 sw=swA flowmod remove prio=7 match=0xxx action=drop noop=1"
    assert [ev.line(4) for ev in net.events[3:]] == [
        "seq=1 t=3 sw=swB flowmod add prio=5 match=xxxx action=fwd:1",
        "seq=4 t=4 sw=swA packet_in port=1 header=0110 payload_len=0",
    ]
    assert [d.line(4) for d in net.deliveries] == ["t=4 client=alice at=swA:2 header=1001 payload_len=3"]


def records():
    """One value of each named-tuple record."""
    r = rule(5, "1xxx", "fwd:2")
    return [
        Packet(3, b"x"),
        SwitchEvent(1, 0, "swA", "flowmod", "add", r),
        SwitchEvent(2, 0, "swA", "packet_in", in_port="1", packet=Packet(3)),
        Delivery(4, "alice", "swA", "2", Packet(3, b"x")),
        TraceHop("swA", "2", r, "fwd:1"),
        Directive(2, "flowmod", "add", "swA", r),
        Directive(2, "suppress", switch="swA", count=1),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment_and_compare_and_hash_by_value(record):
    cls = type(record)
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = cls(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert {record: 1}[twin] == 1
    other = record._replace(**{field: "changed"})
    assert other != record
