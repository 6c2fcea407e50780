"""Snapshot service: passive ingestion, polls, the change log, transient detection."""

import itertools
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecheck import snapshots
from routecheck.hspace import HeaderSpace, Ternary
from routecheck.oracle import random_network
from routecheck.scenario import Script, TransientSpec, run_scenario
from routecheck.sim import Network, Packet, SwitchEvent
from routecheck.snapshots import (
    SnapshotService,
    TransientFinding,
    export_snapshot,
    parse_snapshot_dump,
    poll_ticks,
    schedule_polls,
    snapshot_of,
)
from routecheck.topology import Action, FlowRule, load_topology
from routecheck.verify import reachable_endpoints

DOC = """
headerwidth 4
switch swA ports 2
switch swB ports 2
link swA:1 swB:1
access swA:2 client alice
access swB:2 client bob
"""


def rule(prio, match, action):
    return FlowRule(prio, Ternary.parse(match), Action.parse(action))


def fresh(**service_args):
    topo = load_topology(DOC)
    return topo, Network(topo), SnapshotService(topo, **service_args)


def test_ingest_add_builds_table():
    topo, net, svc = fresh()
    r = rule(5, "1xxx", "fwd:1")
    ev = net.apply_flow_mod("swA", "add", r)
    assert svc.ingest_event(ev) is None
    snap = svc.current()
    assert snap.version == 2
    assert snap.tables["swA"].rules == (r,)


def test_ingest_finds_a_rules_presence_without_scanning_the_table(monkeypatch):
    """Adding n distinct equal-priority rules to one switch and removing them
    in insertion order compares rules O(n) times, not once per rule held."""
    topo = load_topology(DOC.replace("headerwidth 4", "headerwidth 16"))
    svc = SnapshotService(topo)
    n = 2000
    rules = [FlowRule(5, Ternary(16, 0xFFFF, i), Action("fwd", ("1",))) for i in range(n)]
    calls = 0
    eq = FlowRule.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    monkeypatch.setattr(FlowRule, "__eq__", counted)
    ops = [("add", r) for r in rules] + [("remove", r) for r in rules]
    for seq, (op, r) in enumerate(ops, 1):
        svc.ingest_event(SwitchEvent(seq, 0, "swA", "flowmod", op=op, rule=r))
    assert calls <= 2 * n
    assert svc.current().tables["swA"].rules == ()
    assert [(sw, r) for _, sw, r, _ in svc.changes] == [("swA", r) for _, r in ops]


def test_ingest_seq_gap_returns_the_expected_seq_and_folds_the_event_in():
    topo, net, svc = fresh()
    net.apply_flow_mod("swA", "add", rule(1, "xxxx", "drop"))
    net.apply_flow_mod("swA", "add", rule(2, "xxxx", "drop"))
    net.apply_flow_mod("swA", "add", rule(3, "xxxx", "drop"))
    assert svc.ingest_event(net.events[0]) is None
    assert svc.ingest_event(net.events[2]) == 2  # seq jumps 1 -> 3
    assert svc.last_seq("swA") == 3
    assert [r.priority for r in svc.current().tables["swA"].rules] == [3, 1]
    assert svc.ingest_event(SwitchEvent(4, 0, "swA", "packet_in", in_port="2", packet=Packet(0))) is None


def test_events_a_poll_already_reflects_only_advance_the_sequence():
    """Three flowmods reach the switch, a poll copies its table, then the
    three events arrive: the table, the version and the change log stay."""
    topo, net, svc = fresh()
    for prio in (1, 2, 3):
        net.apply_flow_mod("swA", "add", rule(prio, "xxxx", "drop"))
    svc.active_poll("swA", net)
    before = svc.current()
    changes = list(svc.changes)
    for ev in net.events:
        assert svc.ingest_event(ev) is None
    after = svc.current()
    assert after is before and after.tables["swA"] == net.tables["swA"]
    assert list(svc.changes) == changes
    assert svc.last_seq("swA") == 3
    svc.ingest_event(net.apply_flow_mod("swA", "remove", rule(2, "xxxx", "drop")))
    assert svc.current().tables["swA"] == net.tables["swA"]


def test_replay_of_event_log_matches_simulator_tables():
    topo, net, svc = fresh()
    rng = random.Random(20)
    live = {"swA": [], "swB": []}
    for _ in range(50):
        sw = rng.choice(["swA", "swB"])
        if live[sw] and rng.random() < 0.4:
            r = rng.choice(live[sw])
            live[sw].remove(r)
            net.apply_flow_mod(sw, "remove", r)
        else:
            r = rule(rng.randint(0, 3), rng.choice(["xxxx", "1xxx", "01xx"]), "drop")
            live[sw].append(r)
            net.apply_flow_mod(sw, "add", r)
    for ev in net.events:
        svc.ingest_event(ev)
    assert svc.current().tables == net.tables


def test_version_monotone_under_interleaving():
    topo, net, svc = fresh()
    versions = []
    for i in range(5):
        ev = net.apply_flow_mod("swA", "add", rule(i, "xxxx", "drop"))
        svc.ingest_event(ev)
        versions.append(svc.current().version)
        svc.poll_all(net)
        versions.append(svc.current().version)
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)


def test_versions_are_numbered_per_change_and_built_only_when_read(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        snap = real(*args, **kwargs)
        built.append(snap.version)
        return snap

    real = snapshots.Snapshot
    monkeypatch.setattr(snapshots, "Snapshot", counted)
    topo, net, svc = fresh()
    r = rule(5, "1xxx", "fwd:1")
    for i in range(3):
        net.tick = i
        svc.ingest_event(net.apply_flow_mod("swA", "add", r))
        svc.ingest_event(net.apply_flow_mod("swA", "remove", r))
        svc.poll_all(net)
    svc.ingest_event(SwitchEvent(svc.last_seq("swB") + 1, net.tick, "swB", "packet_in", in_port="2", packet=Packet(0)))
    net.apply_flow_mod("swB", "add", r)  # suppressed: the correcting poll below makes a version
    assert svc.active_poll("swB", net) == [("swB", "appeared", r)]
    assert [f.status for f in svc.detect_transients()] == ["flapping"]
    assert built == []
    version = 1 + 3 * (2 + 2) + 1
    snap = svc.current()
    assert (snap.version, snap.tick, snap.tables["swB"].rules) == (version, 2, (r,))
    assert svc.current() is snap and built == [version]


def test_snapshots_built_at_random_reads_equal_those_built_at_every_step():
    """Two services over one random stream: one is read after every step,
    the other only now and then; every read must agree."""
    pool = [rule(p, m, "drop") for p in (1, 5) for m in ("xxxx", "1xxx", "01xx")]
    for seed in range(100):
        rng = random.Random(seed)
        topo, net, every = fresh(window=rng.choice((5, 1024)))
        sometimes = SnapshotService(topo, window=every.window)
        for _ in range(rng.randint(1, 60)):
            net.tick += rng.choice((0, 0, 1, 3))
            sw = rng.choice(["swA", "swB"])
            roll = rng.random()
            if roll < 0.1:
                results = [svc.poll_all(net) for svc in (every, sometimes)]
            elif roll < 0.25:
                results = [svc.active_poll(sw, net) for svc in (every, sometimes)]
            elif roll < 0.3:
                ev = SwitchEvent(every.last_seq(sw) + 1, net.tick, sw, "packet_in", in_port="2", packet=Packet(0))
                results = [every.ingest_event(ev), sometimes.ingest_event(ev)]
            else:
                ev = net.apply_flow_mod(sw, rng.choice(("add", "remove")), rng.choice(pool))
                if rng.random() < 0.1:
                    continue  # suppressed: neither service sees it
                results = [every.ingest_event(ev), sometimes.ingest_event(ev)]
            assert results[0] == results[1]
            a = every.current()
            if rng.random() < 0.2:
                b = sometimes.current()
                assert (b.version, b.tick, b.tables) == (a.version, a.tick, a.tables), seed
                assert sometimes.detect_transients() == every.detect_transients(), seed
        a, b = every.current(), sometimes.current()
        assert (b.version, b.tick, b.tables) == (a.version, a.tick, a.tables), seed
        assert sometimes.detect_transients() == every.detect_transients(), seed


# -- polls ------------------------------------------------------------------


def test_reach_memo_shared_only_while_tables_are_unchanged():
    topo, net, svc = fresh()
    alice = next(ap for ap in topo.access_points if ap.alias == "alice:ap1")

    def filled_memo():
        snap = svc.current()
        reachable_endpoints(topo, snap, alice, HeaderSpace.full(topo.width))
        assert snap.reach
        return snap.reach

    r = rule(5, "1xxx", "fwd:1")
    svc.ingest_event(net.apply_flow_mod("swA", "add", r))
    memo = filled_memo()
    version = svc.current().version
    # a confirming poll and a packet-in event leave the content as it was
    assert svc.active_poll("swA", net) == []
    svc.ingest_event(SwitchEvent(svc.last_seq("swB") + 1, net.tick, "swB", "packet_in", in_port="2", packet=Packet(0)))
    assert svc.poll_all(net) == []
    assert svc.current().version == version + 3
    assert svc.current().reach is memo
    # a flowmod add, a flowmod remove and a correcting poll each start a fresh memo
    svc.ingest_event(net.apply_flow_mod("swA", "add", rule(3, "0xxx", "fwd:2")))
    assert svc.current().reach is not memo and not svc.current().reach
    memo = filled_memo()
    svc.ingest_event(net.apply_flow_mod("swA", "remove", r))
    assert svc.current().reach is not memo and not svc.current().reach
    memo = filled_memo()
    net.apply_flow_mod("swB", "add", rule(4, "xxxx", "fwd:1"))  # suppressed: never ingested
    assert [status for _, status, _ in svc.active_poll("swB", net)] == ["appeared"]
    assert svc.current().reach is not memo and not svc.current().reach


def test_flowmod_on_one_switch_keeps_every_other_table_value_and_its_splits():
    topo = load_topology(
        """
        headerwidth 4
        switch swA ports 2
        switch swB ports 3
        switch swC ports 2
        link swA:1 swB:1
        link swB:3 swC:1
        access swA:2 client alice
        access swB:2 client bob
        access swC:2 client carol
        """
    )
    net, svc = Network(topo), SnapshotService(topo)
    for sw, action in (("swA", "fwd:1"), ("swB", "fwd:3"), ("swC", "fwd:2")):
        svc.ingest_event(net.apply_flow_mod(sw, "add", rule(5, "1xxx", action)))
    before = svc.current()
    alice = topo.client_aps("alice")[0]
    assert reachable_endpoints(topo, before, alice, HeaderSpace.full(4)).entries
    assert all(before.tables[sw]._splits for sw in topo.switch_ports)
    for changed in topo.switch_ports:
        prev = svc.current()
        svc.ingest_event(net.apply_flow_mod(changed, "add", rule(1, "0xxx", "drop")))
        after = svc.current()
        assert after.version == prev.version + 1
        assert after.tables[changed] is not prev.tables[changed]
        assert after.tables[changed]._splits == {}
        for sw in topo.switch_ports:
            if sw != changed:
                assert after.tables[sw] is prev.tables[sw]


def test_schedule_polls_rate_one_is_every_tick():
    assert schedule_polls(7, 1.0, 10) == list(range(1, 11))


def test_schedule_polls_deterministic_per_seed():
    a = schedule_polls(42, 0.2, 500)
    b = schedule_polls(42, 0.2, 500)
    c = schedule_polls(43, 0.2, 500)
    assert a == b
    assert a != c


def test_schedule_polls_mean_gap_near_inverse_rate():
    ticks = schedule_polls(11, 0.1, 10000)
    gaps = [b - a for a, b in zip([0] + ticks, ticks)]
    assert abs(statistics.mean(gaps) - 10) / 10 < 0.1


@pytest.mark.parametrize("window", [0, -5])
def test_non_positive_window_is_refused(window):
    with pytest.raises(ValueError, match="transient window must be positive"):
        fresh(window=window)


def test_schedule_polls_rejects_zero_rate():
    with pytest.raises(ValueError):
        schedule_polls(1, 0.0, 10)


@pytest.mark.parametrize("rate", [float("nan"), -0.5, 0.0])
def test_poll_ticks_refuses_a_rate_that_is_not_positive(rate):
    """NaN compares false with everything, so it must be refused by what a
    rate is (positive), not by what it is not (zero or below)."""
    with pytest.raises(ValueError, match=f"poll rate must be positive, got {rate}"):
        poll_ticks(1, rate)


@pytest.mark.parametrize("rate", [1e-17, 1e-300])
def test_poll_ticks_refuses_a_rate_that_one_minus_rate_loses(rate):
    """Below about 1e-16, 1 - rate rounds to 1 and no gap can be drawn."""
    with pytest.raises(ValueError, match=f"poll rate {rate} is too small: 1 - rate rounds to 1"):
        poll_ticks(1, rate)


def test_poll_ticks_draws_gaps_at_the_smallest_rate_it_takes():
    assert next(poll_ticks(1, 1e-16)) >= 1


def test_poll_ticks_infinite_rate_polls_every_tick():
    assert list(itertools.islice(poll_ticks(3, float("inf")), 5)) == [1, 2, 3, 4, 5]


def test_poll_agreeing_with_passive_view_has_no_finding():
    topo, net, svc = fresh()
    ev = net.apply_flow_mod("swA", "add", rule(5, "xxxx", "drop"))
    svc.ingest_event(ev)
    assert svc.active_poll("swA", net) == []


def test_poll_equals_simulator_truth():
    topo, net, svc = fresh()
    for i in range(4):
        net.apply_flow_mod("swB", "add", rule(i, "xxxx", "drop"))
        svc.ingest_event(net.events[-1])
    svc.active_poll("swB", net)
    assert svc.current().tables["swB"].rules == net.tables["swB"].rules


def test_poll_discrepancy_raises_findings_and_corrects_view():
    """A missed update shows up at the next poll as appeared/vanished."""
    topo, net, svc = fresh()
    ev1 = net.apply_flow_mod("swA", "add", rule(1, "xxxx", "drop"))
    svc.ingest_event(ev1)
    # the adversary applies a change whose event never reaches the service
    net.apply_flow_mod("swA", "add", rule(7, "1xxx", "fwd:1"))
    statuses = {(status, r.priority) for _, status, r in svc.active_poll("swA", net)}
    assert ("appeared", 7) in statuses
    assert svc.current().tables["swA"].rules == net.tables["swA"].rules


def test_poll_that_only_reorders_a_table_reports_the_moved_rules():
    """The switch removes and re-adds one of two equal-priority rules and the
    service sees neither event: the same rules, in another lookup order. The
    poll reports both and adopts the switch's order; an unseen second copy
    of a rule is reported the same way."""
    topo, net, svc = fresh()
    first, second = rule(5, "1xxx", "fwd:1"), rule(5, "xxxx", "drop")
    for r in (first, second):
        svc.ingest_event(net.apply_flow_mod("swA", "add", r))
    net.apply_flow_mod("swA", "remove", first)
    net.apply_flow_mod("swA", "add", first)
    assert svc.active_poll("swA", net) == [("swA", "reordered", second), ("swA", "reordered", first)]
    assert svc.current().tables["swA"].rules == (second, first)
    net.apply_flow_mod("swA", "add", first)
    assert svc.active_poll("swA", net) == [("swA", "reordered", first)]
    assert svc.current().tables["swA"].rules == (second, first, first)


# -- transient detection -------------------------------------------------------


def test_static_tables_yield_no_transients():
    topo, net, svc = fresh(window=100)
    for i in range(3):
        net.apply_flow_mod("swA", "add", rule(i, "xxxx", "drop"))
    for ev in net.events:
        svc.ingest_event(ev)
    assert svc.detect_transients() == []


def test_add_then_remove_is_reported():
    topo, net, svc = fresh(window=10)
    r = rule(5, "1xxx", "drop")
    net.tick = 1
    e1 = net.apply_flow_mod("swA", "add", r)
    net.tick = 2
    e2 = net.apply_flow_mod("swA", "remove", r)
    svc.ingest_event(e1)
    svc.ingest_event(e2)
    findings = svc.detect_transients()
    assert len(findings) == 1
    f = findings[0]
    assert f.status in ("vanished", "flapping")
    assert f.rule == r
    assert f.first_seen <= f.last_seen


def test_rule_that_appears_and_stays_is_not_a_finding():
    topo, net, svc = fresh(window=10)
    net.tick = 1
    svc.ingest_event(net.apply_flow_mod("swA", "add", rule(5, "1xxx", "drop")))
    assert svc.detect_transients() == []


def test_duty_cycle_scenario_matches_tick_truth():
    """Transient toggles: per-tick presence count equals duty * horizon."""
    topo = load_topology(DOC)
    net = Network(topo)
    r = rule(5, "1xxx", "drop")
    horizon = 200
    script = Script(
        transients=[TransientSpec(tick=0, switch="swA", rule=r, duty=0.5, period=10)],
        horizon_hint=horizon,
    )
    svc = SnapshotService(topo, window=horizon + 1)

    class Recorder:
        def __init__(self):
            self.present = []

        def on_events(self, events, net):
            for ev in events:
                svc.ingest_event(ev)

        def on_tick(self, tick, net):
            self.present.append(r in net.tables["swA"].rules)

        def close_sessions(self, tick, net):
            pass

    rec = Recorder()
    run_scenario(script, net, seed=9, controller=rec)
    # exactly half of the per-tick states inside whole periods
    full_periods = (len(rec.present) // 10) * 10
    assert sum(rec.present[:full_periods]) == full_periods // 2
    findings = svc.detect_transients()
    assert any(f.rule == r and f.status == "flapping" for f in findings)


def test_transient_finding_counts_polled_observations():
    topo = load_topology(DOC)
    net = Network(topo)
    svc = SnapshotService(topo, window=1000)
    r = rule(5, "1xxx", "drop")
    seen = 0
    for tick in range(40):
        net.tick = tick
        present = (tick // 5) % 2 == 0  # on for 5, off for 5
        installed = r in net.tables["swA"].rules
        if present and not installed:
            svc.ingest_event(net.apply_flow_mod("swA", "add", r))
        elif not present and installed:
            svc.ingest_event(net.apply_flow_mod("swA", "remove", r))
        if tick % 3 == 0:
            svc.active_poll("swA", net)
            if present:
                seen += 1
    findings = [f for f in svc.detect_transients() if f.rule == r]
    assert len(findings) == 1
    assert findings[0].present_in == seen
    assert findings[0].status == "flapping"


def test_many_polls_observe_duty_cycle_fraction():
    """Across 100 polls of a 30% duty-cycle rule, about 30 observe it."""
    from routecheck.scenario import TransientSpec, transient_pattern

    topo = load_topology(DOC)
    net = Network(topo)
    r = rule(5, "1xxx", "drop")
    spec = TransientSpec(tick=0, switch="swA", rule=r, duty=0.3, period=10)
    polls = schedule_polls("duty-obs", 0.05, 100000)[:100]
    svc = SnapshotService(topo, window=polls[-1] + 1)
    pattern = transient_pattern(spec, polls[-1], random.Random("duty-obs:pat"))
    installed = False
    poll_set = set(polls)
    for t in range(polls[-1] + 1):
        net.tick = t
        if pattern[t] and not installed:
            svc.ingest_event(net.apply_flow_mod("swA", "add", r))
            installed = True
        elif installed and not pattern[t]:
            svc.ingest_event(net.apply_flow_mod("swA", "remove", r))
            installed = False
        if t in poll_set:
            svc.active_poll("swA", net)
    findings = [f for f in svc.detect_transients() if f.rule == r]
    assert len(findings) == 1
    assert findings[0].status == "flapping"
    assert 15 <= findings[0].present_in <= 45  # ~30 of 100 polls


def test_rule_present_when_the_window_opens_is_first_seen_at_window_start():
    def transients(window):
        topo, net, svc = fresh(window=window)
        r = rule(5, "1xxx", "drop")
        svc.ingest_event(net.apply_flow_mod("swA", "add", r))
        for tick, op in ((20, "remove"), (25, "add")):
            net.tick = tick
            svc.ingest_event(net.apply_flow_mod("swA", op, r))
        net.tick = 30
        svc.active_poll("swA", net)
        return svc.detect_transients()

    [f] = transients(20)
    assert (f.status, f.first_seen, f.last_seen, f.present_in) == ("flapping", 10, 30, 1)
    [f] = transients(100)
    assert (f.status, f.first_seen, f.last_seen) == ("flapping", 0, 30)


def test_change_log_and_polls_are_pruned_by_tick():
    topo = load_topology(DOC)
    net = Network(topo)
    svc = SnapshotService(topo, window=10)
    r = rule(5, "1xxx", "drop")
    for tick in range(100):
        net.tick = tick
        svc.ingest_event(net.apply_flow_mod("swA", "add" if tick % 2 else "remove", r))
        svc.active_poll("swB", net)
    assert [c[0] for c in svc.changes] == list(range(89, 100))
    assert [p.tick for p in svc.polls] == list(range(89, 100))
    [f] = svc.detect_transients()
    assert (f.first_seen, f.last_seen, f.present_in) == (89, 99, 0)


def ring_scan(snaps, polls, switches, now, window):
    """Reference: transient detection as a scan over every snapshot in the window."""
    cutoff = now - window
    snaps = [s for s in snaps if s.tick >= cutoff]
    if not snaps:
        return []
    findings: list[TransientFinding] = []
    for sw in sorted(switches):
        universe: list[FlowRule] = []
        for s in snaps:
            for rule in s.tables[sw].rules:
                if rule not in universe:
                    universe.append(rule)
        for rule in universe:
            timeline = [rule in s.tables[sw].rules for s in snaps]
            changes = sum(1 for a, b in zip(timeline, timeline[1:]) if a != b)
            if changes < 2:
                continue
            ticks_present = [s.tick for s, p in zip(snaps, timeline) if p]
            polls_seen = sum(
                1 for p in polls if p.switch == sw and p.tick >= cutoff and rule in p.rules
            )
            status = "vanished" if (not timeline[-1] and changes == 2 and not timeline[0]) else "flapping"
            findings.append(
                TransientFinding(
                    switch=sw,
                    rule=rule,
                    first_seen=min(ticks_present),
                    last_seen=max(ticks_present),
                    present_in=polls_seen,
                    status=status,
                )
            )
    return findings


def test_change_log_detection_equals_scan_over_every_snapshot():
    """Random streams inside the window: duplicate adds, no-op removes,
    suppressed events (gaps), packet-ins and correcting polls."""
    pool = [rule(p, m, "drop") for p in (1, 5) for m in ("xxxx", "1xxx", "01xx")]
    for seed in range(300):
        rng = random.Random(seed)
        topo, net, svc = fresh()
        snaps = [svc.current()]
        now = 0
        for _ in range(rng.randint(1, 80)):
            net.tick += rng.choice((0, 0, 1, 3))
            sw = rng.choice(["swA", "swB"])
            roll = rng.random()
            if roll < 0.15:
                svc.active_poll(sw, net)
            elif roll < 0.2:
                ev = SwitchEvent(svc.last_seq(sw) + 1, net.tick, sw, "packet_in", in_port="2", packet=Packet(0))
                svc.ingest_event(ev)
            else:
                ev = net.apply_flow_mod(sw, rng.choice(("add", "remove")), rng.choice(pool))
                if rng.random() < 0.1:
                    continue  # suppressed: the service never sees it
                svc.ingest_event(ev)
            now = net.tick
            if svc.current() is not snaps[-1]:
                snaps.append(svc.current())
            if rng.random() < 0.1:
                assert svc.detect_transients() == ring_scan(snaps, svc.polls, topo.switch_ports, now, svc.window)
        assert svc.detect_transients() == ring_scan(snaps, svc.polls, topo.switch_ports, now, svc.window), seed


# -- export / import ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([8, 16]))
def test_snapshot_dump_roundtrip_over_random_rules(seed, width):
    """Random tables at widths 8 and 16, with rewrites, multi-port, drop and
    ctrl actions and equal priorities, read back rule for rule, in order."""
    topo, net = random_network(f"dump:{seed}", width=width)
    snap = snapshot_of(net, version=seed % 100)
    back = parse_snapshot_dump(export_snapshot(snap), topo)
    assert (back.version, back.tick) == (snap.version, snap.tick)
    assert {sw: t.rules for sw, t in back.tables.items()} == {sw: t.rules for sw, t in snap.tables.items()}


def test_snapshot_dump_roundtrip():
    topo, net, svc = fresh()
    net.apply_flow_mod("swA", "add", rule(5, "1xxx", "fwd:1"))
    net.apply_flow_mod("swA", "add", rule(2, "xxxx", "drop"))
    net.apply_flow_mod("swB", "add", rule(1, "0xxx", "rewrite:1000/1xxx:1"))
    snap = snapshot_of(net, version=3)
    text = export_snapshot(snap)
    back = parse_snapshot_dump(text, topo)
    assert back.tables == snap.tables
    assert text.startswith("version=3 tick=0\n")


@pytest.mark.parametrize(
    "head, message",
    [
        ("version=abc tick=0", "line 2: version= must be a number, got 'abc'"),
        ("version=1 tick=x", "line 2: tick= must be a number, got 'x'"),
        ("version=٣ tick=0", "line 2: version= must be a number, got '٣'"),
        ("version=1 tick=1_0", "line 2: tick= must be a number, got '1_0'"),
        ("version=1 tick", "line 2: expected key=value, got 'tick'"),
        ("version=1 tick=0 when=now", "line 2: unknown key when="),
        ("version=1 tick=0 version=2", "line 2: repeated key version="),
        ("version=1 tick=2\nversion=3 tick=4", "line 3: repeated version line"),
    ],
)
def test_snapshot_dump_header_errors_name_their_line(head, message):
    topo = load_topology(DOC)
    with pytest.raises(ValueError) as info:
        parse_snapshot_dump("# dump\n" + head + "\n", topo)
    assert str(info.value) == message


def test_snapshot_dump_rewrite_of_another_width_names_its_line():
    topo = load_topology(DOC)
    with pytest.raises(ValueError) as info:
        parse_snapshot_dump("version=1 tick=0\nflowmod add swA prio=1 match=xxxx action=rewrite:11/00:1\n", topo)
    assert str(info.value) == "line 2: rewrite width 2 != header width 4"


def test_snapshot_dump_priority_that_is_no_number_names_its_line():
    topo = load_topology(DOC)
    for prio in ("high", "+1_0", "٣"):
        with pytest.raises(ValueError) as info:
            parse_snapshot_dump(f"version=1 tick=0\nflowmod add swA prio={prio} match=xxxx action=drop\n", topo)
        assert str(info.value) == f"line 2: prio= must be a number, got '{prio}'"
