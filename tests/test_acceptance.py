"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
All tolerances are fixed here; seeds are frozen so every run is
deterministic.
"""

import random

from conftest import fixture_path
from routecheck import wire
from routecheck.hspace import HeaderSpace, Ternary
from routecheck.keys import SigningKey
from routecheck.oracle import run_cases
from routecheck.protocol import verify_report
from routecheck.scenario import TransientSpec, transient_pattern
from routecheck.service import RunConfig, run_session
from routecheck.sim import Network
from routecheck.snapshots import GapDetected, SnapshotService, schedule_polls
from routecheck.topology import Action, FlowRule, load_topology
from routecheck.verify import geo_exposure


def verdict(n: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {status}: {desc}{tail}")


def run_fixture(name: str, scenario: str | None = None, seed: int = 7, out_dir=None):
    return run_session(
        RunConfig(
            topology_path=fixture_path(f"{name}.topo"),
            scenario_path=fixture_path(scenario or f"{name}.scn"),
            seed=seed,
            out_dir=str(out_dir) if out_dir else None,
        )
    )


# -- 1. engine vs. per-packet simulation ------------------------------------------


def test_acceptance_1_engine_oracle_equivalence():
    cases = run_cases(count=100, seed=2024, width=8, max_switches=6, max_rules=12)
    bad = [c for c in cases if not c.ok]
    verdict(
        1,
        not bad,
        "per-header reachability equals exhaustive per-packet simulation on 100 random networks",
        f"{len(cases)} cases, {sum(len(c.mismatches) for c in cases)} mismatches",
    )
    assert not bad, bad[:2]


# -- 2. set-algebra laws -------------------------------------------------------------


def _random_space(rng, width, allow_empty=True):
    terms = []
    for _ in range(rng.randint(0 if allow_empty else 1, 4)):
        care = value = 0
        for _ in range(width):
            care <<= 1
            value <<= 1
            r = rng.random()
            if r >= 0.4:
                care |= 1
                if r < 0.7:
                    value |= 1
        terms.append(Ternary(width, care, value))
    return HeaderSpace(width, terms)


def test_acceptance_2_set_algebra_laws():
    width = 8
    rng = random.Random(515151)
    all_headers = range(1 << width)
    violations = 0
    pairs = 1200
    for _ in range(pairs):
        a = _random_space(rng, width)
        b = _random_space(rng, width)
        union = a.union(b)
        inter = a.intersect(b)
        diff = a.difference(b)
        rw = Ternary(width, rng.getrandbits(width), rng.getrandbits(width))
        image = HeaderSpace(width, [t.rewrite(rw) for t in a.terms])
        image_expected = {rw.apply(h) for h in all_headers if a.member(h)}
        for h in all_headers:
            am, bm = a.member(h), b.member(h)
            if union.member(h) != (am or bm):
                violations += 1
            if inter.member(h) != (am and bm):
                violations += 1
            if diff.member(h) != (am and not bm):
                violations += 1
            if image.member(h) != (h in image_expected):
                violations += 1
    verdict(2, violations == 0, "algebra denotations match enumeration on 1200 operand pairs",
            f"{pairs} pairs x 4 operations, {violations} violations")
    assert violations == 0


# -- 3. join-attack detection ----------------------------------------------------------


def test_acceptance_3_join_attack_detection():
    result = run_fixture("joinattack")
    frames = [f for (_, _, kind, f, _) in result.controller.reports_sent if kind == "isolation"]
    assert len(frames) == 2
    pre = wire.parse_frame(frames[0]).report
    post = wire.parse_frame(frames[1]).report

    def foreign_of(report):
        fields = dict(l.split("=", 1) for l in report.param("body").splitlines() if "=" in l)
        return set() if fields["foreign"] == "-" else set(fields["foreign"].split(","))

    ok = (
        foreign_of(pre) == set()
        and pre.requested - pre.received == 0
        and foreign_of(post) == {"mallory:ap1"}
        and post.requested - post.received == 1
        and result.exit_code == 2
    )
    verdict(3, ok, "hidden access point is exactly the foreign partition; auth shortfall is 1",
            f"foreign={sorted(foreign_of(post))} requested={post.requested} received={post.received}")
    assert ok


# -- 4. geo-diversion detection -----------------------------------------------------------


def test_acceptance_4_geo_diversion_detection():
    result = run_fixture("geodivert")
    frames = [f for (_, _, kind, f, _) in result.controller.reports_sent if kind == "geo"]
    assert len(frames) == 2

    def regions_of(frame):
        body = wire.parse_frame(frame).report.param("body")
        value = dict(l.split("=", 1) for l in body.splitlines() if "=" in l)["regions"]
        return set() if value == "-" else set(value.split(","))

    pre, post = regions_of(frames[0]), regions_of(frames[1])
    added = post - pre
    removed = pre - post
    ok = added == {"offshore"} and removed == set() and result.exit_code == 2
    verdict(4, ok, "diversion adds exactly the detour region to geo exposure",
            f"pre={sorted(pre)} post={sorted(post)}")
    assert ok
    # the same holds at engine level on pre/post snapshots
    topo = result.topo
    replay = SnapshotService(topo)
    for ev in result.net.events:
        if ev.tick < 10:
            replay.ingest_event(ev)
    direct_pre = geo_exposure(topo, replay.current(), "alice")
    direct_post = geo_exposure(topo, result.final_snapshot(), "alice")
    assert direct_post - direct_pre == {"offshore"}


# -- 5. transient-rule detection -------------------------------------------------------------


TRANSIENT_DOC = """headerwidth 8
switch swX ports 2
access swX:1 client c1
access swX:2 client c2
"""
TRANSIENT_RULE = FlowRule(7, Ternary.parse("11xxxxxx"), Action.parse("drop"))


def _transient_run(duty: float, n_polls: int, seed: str, rate: float = 0.08, period: int = 10) -> bool:
    """One seeded run: does any of the first N memoryless polls catch the rule?"""
    topo = load_topology(TRANSIENT_DOC)
    rng = random.Random(f"{seed}:pattern")
    polls = schedule_polls(seed, rate, int(8 * n_polls / rate))[:n_polls]
    assert len(polls) == n_polls
    horizon = polls[-1]
    spec = TransientSpec(tick=0, switch="swX", rule=TRANSIENT_RULE, duty=duty, period=period)
    pattern = transient_pattern(spec, horizon, rng)
    net = Network(topo)
    svc = SnapshotService(topo, window=horizon + 1)
    poll_set = set(polls)
    installed = False
    for t in range(horizon + 1):
        net.tick = t
        if pattern[t] and not installed:
            svc.ingest_event(net.apply_flow_mod("swX", "add", TRANSIENT_RULE))
            installed = True
        elif installed and not pattern[t]:
            svc.ingest_event(net.apply_flow_mod("swX", "remove", TRANSIENT_RULE))
            installed = False
        if t in poll_set:
            svc.active_poll("swX", net)
    findings = [f for f in svc.detect_transients() if f.rule == TRANSIENT_RULE]
    return bool(findings and findings[0].present_in >= 1)


def test_acceptance_5_transient_detection_probability():
    runs = 800
    tolerance = 0.05
    rows = []
    ok = True
    for duty in (0.1, 0.3, 0.5):
        for n_polls in (10, 30):
            hits = sum(_transient_run(duty, n_polls, f"acc5:{duty}:{n_polls}:{i}") for i in range(runs))
            empirical = hits / runs
            theory = 1 - (1 - duty) ** n_polls
            delta = abs(empirical - theory)
            rows.append(f"f={duty}/N={n_polls}: {empirical:.3f} vs {theory:.3f}")
            if delta > tolerance:
                ok = False
    verdict(5, ok, f"poll detection frequency within 5pp of 1-(1-f)^N over {runs} seeded runs per cell",
            "; ".join(rows))
    assert ok


# -- 6. crypto negatives ---------------------------------------------------------------------


def test_acceptance_6_crypto_negatives(tmp_path):
    result = run_fixture("joinattack")
    registry = result.controller.registry
    controller_key = registry.controller_signing.verify_key
    frames = [f for (_, _, _, f, _) in result.controller.reports_sent]

    # every honest transcript verifies
    honest_total = honest_ok = 0
    for client, agent in result.agents.items():
        for _, ok, report in agent.reports:
            honest_total += 1
            honest_ok += 1 if ok else 0

    # every single-bit tampering of a report is rejected
    frame = frames[-1]
    tampered_total = tampered_rejected = 0
    for i in range(len(frame)):
        mangled = bytearray(frame)
        mangled[i] ^= 0x01
        tampered_total += 1
        ok, _ = verify_report(bytes(mangled), controller_key)
        if not ok:
            tampered_rejected += 1

    # reports signed by a different key are rejected
    rogue = SigningKey(random.Random(606).randbytes(32))
    wrongkey_total = wrongkey_rejected = 0
    for i in range(25):
        unsigned = wire.report_unsigned("isolation", bytes([i]) * 16, 1, 1, [("body", "x")])
        forged = wire.frame_report(unsigned, rogue.sign(unsigned))
        wrongkey_total += 1
        ok, _ = verify_report(forged, controller_key)
        if not ok:
            wrongkey_rejected += 1

    # wrong-key auth replies never count toward auth_received
    wrong_reply_rejected = 0
    for i in range(25):
        signed = wire.reply_signed_portion(bytes([i]) * 16, "alice", "alice:ap1")
        if not registry.client_keys["alice"].verify(rogue.sign(signed), signed):
            wrong_reply_rejected += 1

    # replayed nonces (query side) are rejected within the replay window
    replay_rejected = sum(1 for _, reason in result.controller.rejects if "replay" in reason or "already-used" in reason)
    from routecheck.protocol import InterceptError
    from routecheck.sim import SwitchEvent

    replay_total = 25
    replay_hits = 0
    agent = result.agents["alice"]
    for i in range(replay_total):
        packet, point = agent.make_query("geo")
        ev = SwitchEvent(seq=1000 + i, tick=99, switch=point[0], kind="packet_in", in_port=point[1], packet=packet)
        msg = wire.parse_frame(packet.payload)
        result.controller.intercept(ev, msg)
        try:
            result.controller.intercept(ev, msg)  # identical packet again
        except InterceptError:
            replay_hits += 1

    ok = (
        honest_total > 0
        and honest_ok == honest_total
        and tampered_rejected == tampered_total
        and wrongkey_rejected == wrongkey_total
        and wrong_reply_rejected == 25
        and replay_hits == replay_total
    )
    verdict(
        6,
        ok,
        "100% tampered/wrong-key/replayed inputs rejected; 100% honest transcripts verify",
        f"honest {honest_ok}/{honest_total}, tampered {tampered_rejected}/{tampered_total}, "
        f"wrong-key {wrongkey_rejected}/{wrongkey_total}, replays {replay_hits}/{replay_total}",
    )
    assert ok


# -- 7. confidentiality ------------------------------------------------------------------------


def test_acceptance_7_confidentiality_of_responses(tmp_path):
    leaks = []
    scanned = 0
    for name in ("benign", "joinattack", "geodivert"):
        out = tmp_path / name
        result = run_fixture(name, out_dir=out)
        secrets = set(result.topo.switch_ports) | {l.name for l in result.topo.links}
        client_texts = [p.read_text() for p in sorted((out / "reports").glob("*.txt"))]
        for _, _, _, _, body in result.controller.reports_sent:
            client_texts.append(body)
        for text in client_texts:
            scanned += 1
            for secret in secrets:
                if secret in text:
                    leaks.append((name, secret))
    verdict(7, not leaks, "query responses and summaries contain no switch or link identifiers",
            f"{scanned} documents scanned, {len(leaks)} leaks")
    assert not leaks


# -- 8. snapshot fidelity -------------------------------------------------------------------------


def test_acceptance_8_snapshot_fidelity_and_gap_detection():
    fixtures = [
        ("benign", "benign.scn"),
        ("joinattack", "joinattack.scn"),
        ("geodivert", "geodivert.scn"),
        ("benign", "transient.scn"),
        ("benign", "gap.scn"),
    ]
    replay_ok = 0
    gap_cases = 0
    gap_detected = 0
    for topo_name, scn in fixtures:
        result = run_session(
            RunConfig(
                topology_path=fixture_path(f"{topo_name}.topo"),
                scenario_path=fixture_path(scn),
                seed=13,
            )
        )
        events = result.net.events
        svc = SnapshotService(result.topo, window=1 << 20)
        for ev in events:
            svc.ingest_event(ev)
        if svc.current().tables == result.net.tables:
            replay_ok += 1

        # drop each non-final flowmod event of its switch: a gap every time
        last_seq = {}
        for ev in events:
            last_seq[ev.switch] = ev.seq
        droppable = [
            i for i, ev in enumerate(events) if ev.kind == "flowmod" and ev.seq < last_seq[ev.switch]
        ]
        for i in droppable[:10]:
            gap_cases += 1
            svc2 = SnapshotService(result.topo, window=1 << 20)
            try:
                for j, ev in enumerate(events):
                    if j != i:
                        svc2.ingest_event(ev)
            except GapDetected:
                gap_detected += 1
    ok = replay_ok == len(fixtures) and gap_cases > 0 and gap_detected == gap_cases
    verdict(8, ok, "event-log replay reproduces simulator tables exactly; injected gaps always detected",
            f"replays {replay_ok}/{len(fixtures)}, gaps {gap_detected}/{gap_cases}")
    assert ok
