"""In-band protocol: keys, sealing, interception, sessions, negatives."""

import random
from types import SimpleNamespace

import pytest

from routecheck.hspace import Ternary
from routecheck.keys import KeyRegistry, SealKeyPair, SigningKey, seal
from routecheck.protocol import (
    Controller,
    InterceptError,
    build_agents,
    default_magic,
    encode_query,
    verify_report,
)
from routecheck.scenario import expand, parse_scenario, run_scenario
from routecheck.sim import Delivery, Network, Packet, SwitchEvent
from routecheck.snapshots import schedule_polls
from routecheck.topology import Action, FlowRule, load_topology
from routecheck import verify, wire

# alice spans swA/swB; bob and mallory sit behind switches that hold no
# forwarding rules in the benign state, so nothing routes them inward
DOC = """
headerwidth 8
switch swA ports 2
switch swB ports 4
switch swC ports 2
switch swD ports 2
link swA:1 swB:1
link swB:3 swC:1
link swB:4 swD:1
access swA:2 client alice
access swB:2 client alice
access swC:2 client bob
access swD:2 client mallory
nokey mallory
"""


def setup():
    topo = load_topology(DOC)
    registry, signing = KeyRegistry.provision(topo, seed=5)
    magic = default_magic(topo.width)
    net = Network(topo)
    controller = Controller(topo, registry, magic, seed=5, poll_rate=0.01)
    controller.install_magic_rules(net)
    agents = build_agents(topo, registry, signing, magic, seed=5)
    return topo, registry, signing, magic, net, controller, agents


# -- keys -------------------------------------------------------------------


def test_provisioning_is_deterministic_and_skips_nokey():
    topo = load_topology(DOC)
    r1, s1 = KeyRegistry.provision(topo, seed=5)
    r2, s2 = KeyRegistry.provision(topo, seed=5)
    assert set(r1.client_keys) == {"alice", "bob"}
    assert "mallory" not in s1
    assert r1.controller_signing.verify_key.raw == r2.controller_signing.verify_key.raw
    assert {c: k.raw for c, k in r1.client_keys.items()} == {c: k.raw for c, k in r2.client_keys.items()}


def test_sign_verify_and_wrong_key():
    rng = random.Random(1)
    a = SigningKey(rng.randbytes(32))
    b = SigningKey(rng.randbytes(32))
    msg = b"the message"
    sig = a.sign(msg)
    assert a.verify_key.verify(sig, msg) is True
    assert a.verify_key.verify(sig, msg + b"!") is False
    assert b.verify_key.verify(sig, msg) is False


def test_seal_unseal_roundtrip_and_tamper():
    rng = random.Random(2)
    pair = SealKeyPair(rng.randbytes(32))
    blob = seal(pair.public_raw, b"secret query", rng)
    assert pair.unseal(blob) == b"secret query"
    tampered = bytearray(blob)
    tampered[-1] ^= 1
    with pytest.raises(ValueError):
        pair.unseal(bytes(tampered))
    other = SealKeyPair(rng.randbytes(32))
    with pytest.raises(ValueError):
        other.unseal(blob)


# -- encoding and interception -------------------------------------------------


def test_encoded_query_matches_magic_space():
    topo, registry, signing, magic, net, controller, agents = setup()
    packet, point = agents["alice"].make_query("isolation")
    assert magic.matches(packet.header)
    assert point == ("swA", "2")


def test_encode_decode_roundtrip_under_controller_key():
    topo, registry, signing, magic, net, controller, agents = setup()
    rng = random.Random(3)
    nonce = rng.randbytes(16)
    packet = encode_query("geo", "alice", nonce, [("k", "v")], magic, registry.controller_seal.public_raw, rng)
    msg = wire.parse_frame(packet.payload)
    plaintext = registry.controller_seal.unseal(msg.sealed)
    assert wire.decode_query_plaintext(plaintext) == ("geo", "alice", nonce, [("k", "v")])


def pkt_in(net, switch, port, packet):
    return SwitchEvent(seq=99, tick=net.tick, switch=switch, kind="packet_in", in_port=port, packet=packet)


def intercept(controller, event):
    return controller.intercept(event, wire.parse_frame(event.packet.payload))


def test_intercept_valid_query():
    topo, registry, signing, magic, net, controller, agents = setup()
    packet, point = agents["alice"].make_query("isolation")
    q = intercept(controller, pkt_in(net, point[0], point[1], packet))
    assert q.client == "alice"
    assert q.kind == "isolation"
    assert q.request_point.alias == "alice:ap1"


def test_intercept_rejects_replay():
    topo, registry, signing, magic, net, controller, agents = setup()
    packet, point = agents["alice"].make_query("isolation")
    intercept(controller, pkt_in(net, point[0], point[1], packet))
    with pytest.raises(InterceptError, match="replayed"):
        intercept(controller, pkt_in(net, point[0], point[1], packet))


def test_intercept_rejects_spoofed_ingress():
    topo, registry, signing, magic, net, controller, agents = setup()
    packet, _ = agents["alice"].make_query("isolation")
    with pytest.raises(InterceptError, match="spoofed"):
        intercept(controller, pkt_in(net, "swC", "2", packet))  # bob's port


def test_intercept_rejects_undecryptable_and_unenrolled():
    """Bytes that do not parse never reach ``intercept``; the one-record
    test below sends them through ``on_events``."""
    topo, registry, signing, magic, net, controller, agents = setup()
    with pytest.raises(InterceptError, match="decryption failed"):
        intercept(controller, pkt_in(net, "swA", "2", Packet(magic.value, b"\x01\x01\x00\x05junk!")))
    rng = random.Random(9)
    stray = encode_query("geo", "mallory", rng.randbytes(16), [], magic, registry.controller_seal.public_raw, rng)
    with pytest.raises(InterceptError, match="not enrolled"):
        intercept(controller, pkt_in(net, "swD", "2", stray))


# -- full in-band sessions -------------------------------------------------------


BENIGN_RULES = (
    "@0 flowmod add swA prio=10 match=0xxxxxxx action=fwd:1\n"
    "@0 flowmod add swB prio=10 match=0xxxxxxx action=fwd:2\n"
    "@0 flowmod add swB prio=10 match=1xxxxxxx action=fwd:1\n"
    "@0 flowmod add swA prio=10 match=1xxxxxxx action=fwd:2\n"
)


def run_with_controller(topo, net, controller, agents, text):
    script = parse_scenario(text, topo)
    return run_scenario(script, net, seed=5, controller=controller, agents=agents)


@pytest.mark.parametrize(("seed", "rate"), [(5, 0.05), ("s", 0.3), (9, 0.01), (7, 1.0)])
def test_controller_polls_at_schedule_polls_ticks(seed, rate):
    topo, registry, _, magic, net, _, _ = setup()
    controller = Controller(topo, registry, magic, seed=seed, poll_rate=rate)
    polled = []
    controller.service.poll_all = lambda net: polled.append(net.tick)
    horizon = 600
    for tick in range(1, horizon + 1):
        net.tick = tick
        controller.on_tick(tick, net)
    assert polled == schedule_polls(seed, rate, horizon)


def test_a_flowmod_after_a_gap_in_one_batch_is_not_applied_twice():
    """The re-read at a gap copies the switch's table as the whole batch
    left it, so a later flowmod of that switch in the same batch must not
    be folded in a second time."""
    topo, _, _, _, net, controller, _ = setup()
    controller.on_events(list(net.events), net)
    start = len(net.events)
    for prio in (7, 8, 9):  # the first event is withheld, the second reveals the gap
        net.apply_flow_mod("swD", "add", FlowRule(prio, Ternary.parse("1xxxxxxx"), Action("drop")))
    controller.on_events(net.events[start + 1 :], net)
    assert [f.kind for f in controller.findings] == ["gap"]
    assert controller.service.current().tables["swD"] == net.tables["swD"]
    controller.service.poll_findings.clear()
    controller.service.active_poll("swD", net)
    assert controller.service.poll_findings == []


def test_encoded_query_travels_in_band_to_exactly_one_packet_in():
    topo, registry, signing, magic, net, controller, agents = setup()
    run_with_controller(topo, net, controller, agents, "@1 query client=alice kind=geo\n")
    queries = [e for e in net.events if e.kind == "packet_in" and wire.parse_frame(e.packet.payload).msgtype == wire.MSG_QUERY]
    assert len(queries) == 1
    assert queries[0].switch == "swA" and queries[0].in_port == "2"


def test_data_delivery_is_not_parsed_as_a_frame(monkeypatch):
    """Only magic-header deliveries can carry a challenge or a report."""
    topo, registry, signing, magic, net, controller, agents = setup()
    parsed = []
    parse_frame = wire.parse_frame
    monkeypatch.setattr(wire, "parse_frame", lambda raw: parsed.append(raw) or parse_frame(raw))
    header = 0b00010001
    assert not magic.matches(header)
    payload = wire.frame_challenge(b"\x01" * wire.NONCE_LEN, "alice:ap1")
    sent = []
    agents["alice"].on_delivery(Delivery(1, "alice", "swA", "2", Packet(header, payload)), 1, lambda *a: sent.append(a))
    assert parsed == [] and sent == [] and agents["alice"].reports == []

def test_isolation_session_counts_and_verification():
    topo, registry, signing, magic, net, controller, agents = setup()
    run_with_controller(topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n")
    assert len(controller.reports_sent) == 1
    tick, client, kind, frame, body = controller.reports_sent[0]
    ok, report = verify_report(frame, registry.controller_signing.verify_key)
    assert ok
    # alice talks to herself across both sites; both endpoints respond
    assert report.requested == report.received == 2
    assert report.param("verified") == "alice:ap1,alice:ap2"
    assert "foreign=-" in body
    # the querying client received and verified the same report
    assert [(ok2, r.kind) for _, ok2, r in agents["alice"].reports] == [(True, "isolation")]


def test_auth_fanout_delivers_one_challenge_per_candidate():
    topo, registry, signing, magic, net, controller, agents = setup()
    run_with_controller(topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n")
    challenges = [
        d for d in net.deliveries if wire.parse_frame(d.packet.payload).msgtype == wire.MSG_CHALLENGE
    ]
    assert {(d.switch, d.port) for d in challenges} == {("swA", "2"), ("swB", "2")}


def test_unanswered_challenge_shows_as_shortfall():
    """A hidden endpoint with no key cannot respond: requested - received = 1."""
    topo, registry, signing, magic, net, controller, agents = setup()
    attack = "@1 attack join client=alice hidden=swD:2 match=11xxxxxx prio=90\n"
    run_with_controller(
        topo, net, controller, agents, BENIGN_RULES + attack + "@3 query client=alice kind=isolation\n"
    )
    tick, client, kind, frame, body = controller.reports_sent[0]
    ok, report = verify_report(frame, registry.controller_signing.verify_key)
    assert ok
    assert report.requested - report.received == 1
    assert "foreign=mallory:ap1" in body
    assert any(f.kind == "isolation" for f in controller.findings)


def test_zero_candidates_reports_zero_counts():
    """A client alone behind a rule-less switch gets a (0, 0) report."""
    topo, registry, signing, magic, net, controller, agents = setup()
    run_with_controller(topo, net, controller, agents, "@1 query client=bob kind=isolation\n")
    assert len(controller.reports_sent) == 1
    _, client, kind, frame, body = controller.reports_sent[0]
    ok, report = verify_report(frame, registry.controller_signing.verify_key)
    assert ok and client == "bob"
    assert (report.requested, report.received) == (0, 0)
    assert "own=-" in body and "foreign=-" in body


def test_counting_soundness_against_transcript():
    topo, registry, signing, magic, net, controller, agents = setup()
    run_with_controller(topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n")
    _, _, _, frame, _ = controller.reports_sent[0]
    _, report = verify_report(frame, registry.controller_signing.verify_key)
    challenges = [d for d in net.deliveries if wire.parse_frame(d.packet.payload).msgtype == wire.MSG_CHALLENGE]
    replies = [
        e for e in net.events if e.kind == "packet_in" and wire.parse_frame(e.packet.payload).msgtype == wire.MSG_REPLY
    ]
    assert report.requested == len(challenges)
    assert report.received == len(replies)
    # binding: every verified endpoint was an actual challenge target
    verified = set(report.param("verified").split(","))
    targets = {wire.parse_frame(d.packet.payload).alias for d in challenges}
    assert verified <= targets


# -- report verification negatives ---------------------------------------------


def make_report(registry, nonce=bytes(range(16))):
    unsigned = wire.report_unsigned("isolation", nonce, 2, 2, [("body", "kind=isolation")])
    return wire.frame_report(unsigned, registry.controller_signing.sign(unsigned))


def test_verify_report_untampered_true():
    topo = load_topology(DOC)
    registry, _ = KeyRegistry.provision(topo, seed=5)
    frame = make_report(registry)
    ok, report = verify_report(frame, registry.controller_signing.verify_key)
    assert ok and report.requested == 2


def test_verify_report_flipped_bit_false():
    topo = load_topology(DOC)
    registry, _ = KeyRegistry.provision(topo, seed=5)
    frame = bytearray(make_report(registry))
    frame[10] ^= 0x01
    ok, _ = verify_report(bytes(frame), registry.controller_signing.verify_key)
    assert not ok


def test_verify_report_wrong_key_false():
    topo = load_topology(DOC)
    registry, _ = KeyRegistry.provision(topo, seed=5)
    other = SigningKey(random.Random(77).randbytes(32))
    frame = make_report(registry)
    ok, _ = verify_report(frame, other.verify_key)
    assert not ok


def test_agent_marks_a_signed_report_bad_unless_it_answers_an_outstanding_query():
    """A validly signed report is recorded as bad when its nonce names no
    query the agent has outstanding: one it never asked, or one that an
    earlier copy of the same report already answered."""
    topo, registry, signing, magic, net, controller, agents = setup()
    alice = agents["alice"]
    alice.make_query("geo")
    (asked,) = alice.outstanding

    def deliver(tick, frame):
        alice.on_delivery(Delivery(tick, "alice", "swA", "2", Packet(magic.value, frame)), tick, None)
        return alice.reports[-1]

    tick, ok, report = deliver(3, make_report(registry))
    assert (tick, ok, report.nonce) == (3, False, bytes(range(16)))
    answer = make_report(registry, nonce=asked)
    assert deliver(4, answer)[:2] == (4, True)
    assert deliver(5, answer)[:2] == (5, False)
    assert alice.outstanding == {} and len(alice.reports) == 3


# -- reply negatives ---------------------------------------------------------------


def test_forged_reply_is_rejected():
    """A reply signed with an unregistered key never verifies."""
    topo, registry, signing, magic, net, controller, agents = setup()
    attack = "@1 attack join client=alice hidden=swD:2 match=11xxxxxx prio=90\n"
    # mallory tries to answer her own challenge with a made-up key
    rogue = SigningKey(random.Random(123).randbytes(32))

    class RogueAgent:
        def on_delivery(self, delivery, tick, send_later):
            msg = wire.parse_frame(delivery.packet.payload)
            if msg.msgtype != wire.MSG_CHALLENGE:
                return
            signed = wire.reply_signed_portion(msg.nonce, "mallory", msg.alias)
            reply = wire.frame_reply(msg.nonce, "mallory", msg.alias, rogue.sign(signed))
            send_later(tick + 1, delivery.switch, delivery.port, Packet(magic.value, reply))

    agents = dict(agents)
    agents["mallory"] = RogueAgent()
    run_with_controller(
        topo, net, controller, agents, BENIGN_RULES + attack + "@3 query client=alice kind=isolation\n"
    )
    _, _, _, frame, _ = controller.reports_sent[0]
    _, report = verify_report(frame, registry.controller_signing.verify_key)
    assert report.requested - report.received == 1  # rogue reply did not count
    assert any("unenrolled" in r for _, r in controller.rejects)


def test_replayed_auth_reply_rejected():
    """The same signed reply presented twice verifies once."""
    topo, registry, signing, magic, net, controller, agents = setup()

    replayed = []

    class ReplayingAgent:
        def __init__(self, inner):
            self.inner = inner

        def make_query(self, *args, **kwargs):
            return self.inner.make_query(*args, **kwargs)

        def on_delivery(self, delivery, tick, send_later):
            msg = wire.parse_frame(delivery.packet.payload)
            if msg.msgtype == wire.MSG_CHALLENGE and delivery.switch == "swB":
                def tee(t, sw, port, packet):
                    send_later(t, sw, port, packet)
                    send_later(t + 1, sw, port, packet)  # replay one tick later
                    replayed.append(packet)
                self.inner.on_delivery(delivery, tick, tee)
            else:
                self.inner.on_delivery(delivery, tick, send_later)

    agents = dict(agents)
    agents["alice"] = ReplayingAgent(agents["alice"])
    run_with_controller(topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n")
    assert replayed
    _, _, _, frame, _ = controller.reports_sent[0]
    _, report = verify_report(frame, registry.controller_signing.verify_key)
    assert report.received == report.requested == 2  # counted once
    assert any("unknown or already-used" in r for _, r in controller.rejects)


def test_reply_after_the_report_is_rejected_and_changes_no_count():
    """With timeout=1 the report goes out before a late reply arrives: the
    reply finds no open challenge, and the sent counts stay as they were."""
    topo, registry, signing, magic, net, _, agents = setup()
    controller = Controller(topo, registry, magic, seed=5, poll_rate=0.01, timeout=1)
    controller.install_magic_rules(net)
    late = []

    class LateAgent:
        def __init__(self, inner):
            self.inner = inner

        def make_query(self, *args, **kwargs):
            return self.inner.make_query(*args, **kwargs)

        def on_delivery(self, delivery, tick, send_later):
            def delay(t, sw, port, packet):
                late.append(t + 2)
                send_later(t + 2, sw, port, packet)
            self.inner.on_delivery(delivery, tick, delay)

    agents = dict(agents)
    agents["alice"] = LateAgent(agents["alice"])
    run_with_controller(topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n")
    assert late == [5, 5]  # challenged at tick 2, report due at tick 3
    assert len(controller.reports_sent) == 1
    tick, _, _, frame, _ = controller.reports_sent[0]
    ok, report = verify_report(frame, registry.controller_signing.verify_key)
    assert ok and tick == 3
    assert (report.requested, report.received) == (2, 0)
    assert report.param("verified") == "-"
    rejects = [r for t, r in controller.rejects if t == 5]
    assert rejects == ["reply with unknown or already-used challenge nonce"] * 2
    assert controller.sessions == {} and controller.outstanding == {}


@pytest.mark.parametrize("timeout", [0, -3])
def test_non_positive_reply_timeout_is_refused(timeout):
    """A deadline due at the session's own tick would report before any
    challenged endpoint could answer, a shortfall no endpoint caused."""
    topo, registry, _, magic, _, _, _ = setup()
    with pytest.raises(ValueError, match=f"reply timeout must be positive, got {timeout}"):
        Controller(topo, registry, magic, seed=5, poll_rate=0.01, timeout=timeout)


# -- refused packet-ins -------------------------------------------------------------


JOIN_MALLORY = "@1 attack join client=alice hidden=swD:2 match=11xxxxxx prio=90\n"


def reply_frame(nonce, client, alias, key):
    return wire.frame_reply(nonce, client, alias, key.sign(wire.reply_signed_portion(nonce, client, alias)))


def open_isolation_session():
    """A controller, driven by hand, with one open isolation session of
    alice's whose challenges target alice:ap1, alice:ap2 and the unkeyed
    mallory:ap1. ``nonces`` maps each target alias to its challenge nonce."""
    topo, registry, signing, magic, net, controller, agents = setup()
    script = parse_scenario(BENIGN_RULES + JOIN_MALLORY, topo)
    for d in expand(script, random.Random(0), script.base_horizon()):
        net.apply_flow_mod(d.switch, d.op, d.rule)
    query, point = agents["alice"].make_query("isolation")
    net.inject(query, point)
    controller.on_events(list(net.events), net)
    assert controller.rejects == [] and len(controller.sessions) == 1
    (session,) = controller.sessions.values()
    nonces = {ap.alias: nonce for nonce, ap in session.challenges.items()}
    assert sorted(nonces) == ["alice:ap1", "alice:ap2", "mallory:ap1"]
    return SimpleNamespace(controller=controller, net=net, signing=signing, magic=magic, agents=agents,
                           query=query, nonces=nonces)


def send_in(s, switch, payload):
    """Inject a magic-header packet at ``switch``'s access port 2, where the
    magic rule makes it a packet-in, and hand the controller its events."""
    seen = len(s.net.events)
    s.net.inject(Packet(s.magic.value, payload), (switch, "2"))
    s.controller.on_events(s.net.events[seen:], s.net)


def protocol_state(controller):
    sessions = {n: (len(s.challenges), tuple(s.verified)) for n, s in controller.sessions.items()}
    return sessions, dict(controller.outstanding), len(controller.reports_sent), len(controller.findings)


ROGUE = SigningKey(random.Random(123).randbytes(32))
REFUSED = {  # case -> (switch the packet enters at, its payload, the reject reason)
    "garbage": ("swA", lambda s: b"\xff", "unparseable packet-in: frame too short"),
    "challenge frame": (
        "swA", lambda s: wire.frame_challenge(s.nonces["alice:ap1"], "alice:ap1"), "unexpected in-band msgtype 2"
    ),
    "replayed query": ("swA", lambda s: s.query.payload, "replayed query nonce"),
    "spoofed query": (
        "swC", lambda s: s.agents["alice"].make_query("geo")[0].payload, "spoofed query: claims alice but entered at bob:ap1"
    ),
    "unknown nonce": (
        "swA", lambda s: reply_frame(bytes(16), "alice", "alice:ap1", s.signing["alice"]),
        "reply with unknown or already-used challenge nonce",
    ),
    "wrong alias": (
        "swA", lambda s: reply_frame(s.nonces["alice:ap1"], "alice", "alice:ap2", s.signing["alice"]),
        "reply alias alice:ap2 does not match challenged endpoint",
    ),
    "wrong client": (
        "swA", lambda s: reply_frame(s.nonces["alice:ap1"], "bob", "alice:ap1", s.signing["bob"]),
        "reply claims bob for alice:ap1",
    ),
    "unenrolled client": (
        "swA", lambda s: reply_frame(s.nonces["mallory:ap1"], "mallory", "mallory:ap1", ROGUE),
        "reply from unenrolled client mallory",
    ),
    "bad signature": (
        "swA", lambda s: reply_frame(s.nonces["alice:ap1"], "alice", "alice:ap1", s.signing["bob"]),
        "reply signature check failed for alice:ap1",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_each_refused_packet_in_is_one_reject_and_changes_nothing(case):
    s = open_isolation_session()
    switch, payload, reason = REFUSED[case]
    before = protocol_state(s.controller)
    send_in(s, switch, payload(s))
    assert s.controller.rejects == [(s.net.tick, reason)]
    assert protocol_state(s.controller) == before
    # the session still counts the reply it is owed
    send_in(s, "swA", reply_frame(s.nonces["alice:ap1"], "alice", "alice:ap1", s.signing["alice"]))
    assert len(s.controller.rejects) == 1
    assert [session.verified for session in s.controller.sessions.values()] == [["alice:ap1"]]


def test_a_query_with_parameters_is_refused_and_its_nonce_is_not_remembered():
    """No query kind reads parameters yet: a restricted question is one
    reject, not a full-space answer, and its nonce stays free."""
    s = open_isolation_session()
    before = protocol_state(s.controller), {c: list(n) for c, n in s.controller.seen_nonces.items()}
    packet, _ = s.agents["alice"].make_query("geo", params=[("match", "1" * 16), ("field", "dst")])
    send_in(s, "swA", packet.payload)
    assert s.controller.rejects == [(s.net.tick, "query parameters are not supported: match, field")]
    assert (protocol_state(s.controller), s.controller.seen_nonces) == before


def test_a_failure_while_answering_an_authenticated_query_propagates(monkeypatch):
    """Only decoding and authentication are refusals; a fault in the answer
    is the controller's own and is not recorded as a reject."""
    s = open_isolation_session()

    def broken(*args):
        raise RuntimeError("answer failed")

    monkeypatch.setattr(verify, "answer", broken)
    with pytest.raises(RuntimeError, match="answer failed"):
        send_in(s, "swA", s.agents["alice"].make_query("geo")[0].payload)
    assert s.controller.rejects == []


def test_each_in_band_frame_is_parsed_once(monkeypatch):
    """The controller parses each packet-in once, and an agent each
    magic-header delivery once, whatever the frame turns out to be."""
    topo, registry, signing, magic, net, controller, agents = setup()
    parsed = []
    parse_frame = wire.parse_frame
    monkeypatch.setattr(wire, "parse_frame", lambda raw: parsed.append(raw) or parse_frame(raw))
    seen = {wire.MSG_QUERY: 0, wire.MSG_CHALLENGE: 0, wire.MSG_REPLY: 0, wire.MSG_REPORT: 0}
    on_events = controller.on_events

    def counted_on_events(events, net):
        for ev in events:
            before = len(parsed)
            on_events([ev], net)
            assert len(parsed) - before <= (ev.kind == "packet_in")
            if ev.kind == "packet_in":
                seen[parse_frame(ev.packet.payload).msgtype] += 1

    def counted(agent):
        on_delivery = agent.on_delivery

        def counted_on_delivery(delivery, tick, send_later):
            before = len(parsed)
            on_delivery(delivery, tick, send_later)
            assert len(parsed) - before <= magic.matches(delivery.packet.header)
            if magic.matches(delivery.packet.header):
                seen[parse_frame(delivery.packet.payload).msgtype] += 1

        return counted_on_delivery

    controller.on_events = counted_on_events
    for agent in agents.values():
        agent.on_delivery = counted(agent)
    run_with_controller(
        topo, net, controller, agents, BENIGN_RULES + "@2 query client=alice kind=isolation\n@3 query client=bob kind=geo\n"
    )
    assert seen == {wire.MSG_QUERY: 2, wire.MSG_CHALLENGE: 2, wire.MSG_REPLY: 2, wire.MSG_REPORT: 2}
    assert len(controller.reports_sent) == 2 and controller.rejects == []
