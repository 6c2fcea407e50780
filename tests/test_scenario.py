"""Scenario parsing, template expansion, and deterministic execution."""

import hashlib
import random
import re
from pathlib import Path

import pytest

from conftest import fixture_path
from routecheck.cli import main
from routecheck.hspace import Ternary
from routecheck.oracle import random_topology_text
from routecheck.scenario import ScenarioError, Script, divert_spec, expand, join_spec, parse_scenario, run_scenario
from routecheck.scenario import transient_pattern
from routecheck.sim import Network
from routecheck.topology import load_topology

DOC = """
headerwidth 8
switch swA ports 3
switch swB ports 3
switch swC ports 2
link swA:1 swB:1
link swB:2 swC:1
access swA:2 client alice
access swA:3 client alice
access swB:3 client bob
access swC:2 client mallory
location swA r1
location swB r2
location swC r3
"""


def topo():
    return load_topology(DOC)


def test_empty_script_empty_logs():
    t = topo()
    script = parse_scenario("", t)
    events, deliveries = run_scenario(script, Network(t), seed=1)
    assert events == [] and deliveries == []


def test_parse_flowmod_and_inject():
    t = topo()
    script = parse_scenario(
        "@0 flowmod add swA prio=5 match=xxxxxxxx action=fwd:1\n"
        "@2 inject swA:2 header=10100000\n",
        t,
    )
    assert len(script.directives) == 2
    events, deliveries = run_scenario(script, Network(t), seed=1)
    assert [e.kind for e in events] == ["flowmod"]


def test_parse_rejects_unknown_elements():
    t = topo()
    with pytest.raises(ScenarioError, match="unknown switch"):
        parse_scenario("@0 flowmod add nosuch prio=1 match=xxxxxxxx action=drop", t)
    with pytest.raises(ScenarioError, match="swA:9 is not an access point"):
        parse_scenario("@0 inject swA:9 header=00000000", t)
    with pytest.raises(ScenarioError, match="swA:1 is not an access point"):
        parse_scenario("@0 inject swA:1 header=00000000", t)
    with pytest.raises(ScenarioError, match="unknown client"):
        parse_scenario("@0 query client=nobody kind=geo", t)
    with pytest.raises(ScenarioError, match="match width"):
        parse_scenario("@0 flowmod add swA prio=1 match=xx action=drop", t)


def test_parse_rejects_bad_transient_fraction():
    t = topo()
    line = "@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=1.5 period=10"
    with pytest.raises(ScenarioError, match="duty cycle"):
        parse_scenario(line, t)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("match=01xxxxxxxxxxxxxx", "match=01xx", "match width 4 != header width 16"),
        ("prio=90", "prio=-3", "priority must be non-negative"),
        ("prio=90", "prio=high", "prio= must be a number, got 'high'"),
    ],
)
def test_scenario_check_rejects_join_lines_that_run_would_reject(tmp_path, capsys, old, new, message):
    scn = tmp_path / "join.scn"
    scn.write_text(Path(fixture_path("joinattack.scn")).read_text().replace(old, new))
    code = main(["scenario", "check", "--topology", fixture_path("joinattack.topo"), "--scenario", str(scn)])
    assert code == 1
    assert f"error: line 8: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("@0 attack divert client=alice via=r2 match=1x", "match width 2 != header width 8"),
        ("@0 attack divert client=alice via=r2 match=1x2xxxxx", "bad ternary character"),
        ("@0 attack divert client=alice via=r2 prio=-1", "priority must be non-negative"),
        ("@0 attack divert client=alice via=r2 prio=1.5", "prio= must be a number"),
        ("@0 attack join client=alice hidden=swC:2 prio=x", "prio= must be a number"),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=half period=10", "f= must be a number"),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0.5 period=ten", "period= must be"),
        ("@0 attack suppress sw=swA count=many", "count= must be a number"),
        ("horizon soon", "horizon must be a number"),
        ("horizon -5", "horizon must be non-negative"),
        ("horizon 1 2", "horizon takes one argument"),
        ("5 inject swA:2 header=00000000", "directives start with @<tick>"),
        ("@x inject swA:2 header=00000000", "bad tick '@x'"),
        ("@-1 inject swA:2 header=00000000", "tick must be non-negative"),
        ("@3", "empty directive"),
        ("@0 query client=alice kind=route", "query kind must be one of isolation, sources, geo, summary"),
        ("@0 attack", "attack needs a template name"),
        ("@0 attack flood", "unknown attack template 'flood'"),
        ("@0 attack join client=alice", "join needs hidden=<sw>:<port>"),
        ("@0 attack divert client=alice via=r9", "no switch located in region 'r9'"),
        ("@0 attack transient inject swA:2 header=00000000", "transient wraps a flowmod directive"),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop period=10",
         "transient needs f= and period="),
        ("@0 attack transient flowmod remove swA prio=1 match=xxxxxxxx action=drop f=0.5 period=10",
         "transient template installs rules (op must be add)"),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0.5 period=1",
         "period must be at least 2 ticks"),
        ("@0 attack suppress sw=swZ", "unknown switch 'swZ'"),
        ("@0 attack suppress sw=swA count=0", "suppress count must be positive"),
        ("@0 reboot swA", "unknown directive 'reboot'"),
        # numbers are ASCII digits, though Python's int reads each of these
        ("@1_0 inject swA:2 header=00000000", "bad tick '@1_0'"),
        ("@٣ inject swA:2 header=00000000", "bad tick '@٣'"),
        ("@0 flowmod add swA prio=+1_0 match=xxxxxxxx action=drop", "prio= must be a number, got '+1_0'"),
        ("horizon 0_5", "horizon must be a number, got '0_5'"),
        ("@0 attack suppress sw=swA count=٢", "count= must be a number, got '٢'"),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0_5 period=10",
         "f= must be a number, got '0_5'"),
    ],
)
def test_parse_names_the_line_of_a_bad_attack_field(line, message):
    with pytest.raises(ScenarioError, match=f"^line 2: .*{re.escape(message)}"):
        parse_scenario("@0 flowmod add swA prio=5 match=xxxxxxxx action=fwd:1\n" + line, topo())


def test_flowmod_priority_that_is_no_number_reads_like_an_attack_priority():
    for line in ("@0 flowmod add swA prio=high match=xxxxxxxx action=drop",
                 "@0 attack join client=alice hidden=swC:2 prio=high"):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(line, topo())
        assert str(info.value) == "line 1: prio= must be a number, got 'high'"


@pytest.mark.parametrize(
    "line, message",
    [
        ("@0 flowmod add swA prio=10 match=xxxxxxxx action=fwd:1 prio=99", "repeated key prio="),
        ("@0 flowmod add swA prio=10 match=xxxxxxxx action=fwd:1 port=2", "unknown key port="),
        ("@0 inject swA:2 header=00000000 header=11111111", "expected inject"),
        ("@0 inject swA:2 bits=00000000", "header must be 8 bits of 0/1"),
        ("@4 query client=alice kind=geo a=swA:3", "unknown key a="),
        ("@4 query client=alice kind=geo kind=summary", "repeated key kind="),
        ("@5 attack join client=alice hidden=swC:2 mach=00000000", "unknown key mach="),
        ("@5 attack join client=alice hidden=swC:2 prio=1 prio=2", "repeated key prio="),
        ("@0 attack divert client=alice via=r2 region=r3", "unknown key region="),
        ("@0 attack suppress sw=swA count=1 switch=swB", "unknown key switch="),
        ("@0 attack suppress sw=swA sw=swB", "repeated key sw="),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0.5 period=10 g=1", "unknown key g="),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0.5 f=0.9 period=10", "repeated key f="),
        ("@0 attack transient flowmod add swA prio=1 match=xxxxxxxx action=drop f=0.5 period=10 period=4", "repeated key period="),
    ],
)
def test_parse_rejects_repeated_and_unknown_keys_naming_the_line(line, message):
    with pytest.raises(ScenarioError, match=f"^line 2: .*{message}"):
        parse_scenario("@0 flowmod add swA prio=5 match=xxxxxxxx action=fwd:1\n" + line, topo())


def test_repeated_rule_text_on_one_switch_is_parsed_into_one_rule():
    script = parse_scenario(
        "@0 flowmod add swA prio=5 match=1xxxxxxx action=fwd:1\n"
        "@3 flowmod remove swA prio=5 match=1xxxxxxx action=fwd:1\n"
        "@4 flowmod add swB prio=5 match=1xxxxxxx action=fwd:1\n"
        "@5 attack transient flowmod add swA prio=5 match=1xxxxxxx action=fwd:1 f=0.5 period=4\n",
        topo(),
    )
    add, remove, other = script.directives
    assert (add.op, remove.op) == ("add", "remove")
    assert remove.rule is add.rule and script.transients[0].rule is add.rule
    assert other.switch == "swB" and other.rule == add.rule


def test_repeated_rule_text_is_still_checked_on_its_own_line():
    t = topo()
    with pytest.raises(ScenarioError, match="^line 2: switch swC has no port 3$"):
        parse_scenario(
            "@0 flowmod add swA prio=5 match=1xxxxxxx action=fwd:3\n"
            "@1 flowmod add swC prio=5 match=1xxxxxxx action=fwd:3\n",
            t,
        )
    with pytest.raises(ScenarioError, match="^line 2: flowmod op must be add or remove$"):
        parse_scenario(
            "@0 flowmod add swA prio=5 match=1xxxxxxx action=fwd:3\n"
            "@1 flowmod delete swA prio=5 match=1xxxxxxx action=fwd:3\n",
            t,
        )


def test_rewrite_of_another_width_is_rejected_on_its_line(tmp_path, capsys):
    """A rewrite narrower than the header is refused by ``scenario check`` and
    by ``run`` before the first tick, with its line, instead of aborting a
    query later."""
    scn = tmp_path / "rewrite.scn"
    text = Path(fixture_path("benign.scn")).read_text()
    line = "@0 flowmod add swA prio=10 match=0xxxxxxxxxxxxxxx action=fwd:1"
    assert line in text
    scn.write_text(text.replace(line, line.replace("fwd:1", "rewrite:1111/0000:1")))
    lineno = text.splitlines().index(line) + 1
    for argv in (["scenario", "check"], ["run", "--out", str(tmp_path / "art")]):
        code = main(argv + ["--topology", fixture_path("benign.topo"), "--scenario", str(scn)])
        assert code == 1, argv
        assert f"error: line {lineno}: rewrite width 4 != header width 16" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match="^line 2: rewrite width 9 != header width 8$"):
        parse_scenario(
            "@0 flowmod add swA prio=5 match=1xxxxxxx action=fwd:1\n"
            "@0 attack transient flowmod add swA prio=5 match=1xxxxxxx action=rewrite:111111111/000000000:1 "
            "f=0.5 period=4\n",
            topo(),
        )


@pytest.mark.parametrize(
    "rewrite, message",
    [
        ("10000000", "rewrite must look like <mask>/<value>, got '10000000'"),
        ("1/0/1", "rewrite must look like <mask>/<value>, got '1/0/1'"),
        ("1000000/10000000", "rewrite mask and value widths differ in '1000000/10000000'"),
        ("1000000a/10000000", "bad mask character 'a' in '1000000a/10000000'"),
        ("10000000/x0000000", "masked value bit must be 0 or 1 in '10000000/x0000000'"),
        ("10000000/1000000a", "bad value character 'a' in '10000000/1000000a'"),
    ],
)
def test_rewrite_text_refusals_name_their_line(rewrite, message):
    """Each refusal of the ``<mask>/<value>`` reader, word for word, on its line."""
    with pytest.raises(ScenarioError) as info:
        parse_scenario(
            "@0 flowmod add swA prio=5 match=xxxxxxxx action=fwd:1\n"
            f"@1 flowmod add swA prio=5 match=xxxxxxxx action=rewrite:{rewrite}:1\n",
            topo(),
        )
    assert str(info.value) == f"line 2: {message}"


def test_rewrite_text_ignores_and_prints_unmasked_value_characters_as_x():
    """Value characters 0, 1, x, _ and X at unmasked positions are ignored,
    and the rule prints them back as x; the printed text reads back the same."""
    text = "@0 flowmod add swA prio=5 match=xxxxxxxx action=rewrite:10100001/101x_X01:1,2\n"
    (directive,) = parse_scenario(text, topo()).directives
    rule = directive.rule
    assert str(rule) == "prio=5 match=xxxxxxxx action=rewrite:10100001/1x1xxxx1:1,2"
    (again,) = parse_scenario(f"@0 flowmod add swA {rule}\n", topo()).directives
    assert again.rule == rule and hash(again.rule) == hash(rule)
    assert str(again.rule) == str(rule)


@pytest.mark.parametrize(
    "line, message",
    [
        ("@3 inject swA2 header=00000001", "expected <switch>:<port>, got 'swA2'"),
        ("@3 inject swA:9 header=00000001", "swA:9 is not an access point"),
        ("@3 inject swA:1 header=00000001", "swA:1 is not an access point"),
        ("@3 inject swA:2 header=00000201", "header must be 8 bits of 0/1"),
        ("@3 inject swA:2 header=0000001", "header must be 8 bits of 0/1"),
        ("@3 inject swA:2 header=000000011", "header must be 8 bits of 0/1"),
        ("@3 inject swA:2 header=", "header must be 8 bits of 0/1"),
        ("@3 inject swA:2 bits=00000001", "header must be 8 bits of 0/1"),
        ("@3 inject swA:2 00000001", "expected key=value, got '00000001'"),
    ],
)
def test_inject_errors_name_their_own_line(line, message):
    """Each bad inject names its own line, after good lines have filled the
    endpoint cache and when the bad line is repeated below it."""
    good = "@1 inject swA:2 header=00000001\n@2 inject swA:3 header=11111111\n#\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(good + line + "\n" + line + "\n", topo())
    assert str(info.value) == f"line 4: {message}"


def test_inject_lines_share_one_access_point_per_endpoint():
    script = parse_scenario(
        "@1 inject swA:2 header=00000001\n@2 inject swA:3 header=11111111\n@3 inject swA:2 header=00000010\n",
        topo(),
    )
    got = [(d.tick, d.switch, d.port, d.header) for d in script.directives]
    assert got == [(1, "swA", "2", 1), (2, "swA", "3", 255), (3, "swA", "2", 2)]


def test_query_without_controller_is_an_error():
    t = topo()
    script = parse_scenario("@0 query client=alice kind=geo", t)
    with pytest.raises(ScenarioError, match="controller"):
        run_scenario(script, Network(t), seed=1)


def test_determinism_same_seed_same_logs():
    t = topo()
    text = (
        "@0 flowmod add swA prio=5 match=0xxxxxxx action=fwd:1\n"
        "@0 flowmod add swB prio=5 match=0xxxxxxx action=fwd:3\n"
        "@1 inject swA:2 header=00000001\n"
        "@3 attack transient flowmod add swB prio=9 match=11xxxxxx action=drop f=0.3 period=10\n"
        "horizon 60\n"
    )
    runs = []
    for _ in range(2):
        script = parse_scenario(text, t)
        net = Network(t)
        events, deliveries = run_scenario(script, net, seed=77)
        runs.append(([str(e.line(8)) for e in events], [d.line(8) for d in deliveries]))
    assert runs[0] == runs[1]


def test_join_attack_creates_path_into_client_space():
    t = topo()
    text = "@0 attack join client=alice hidden=swC:2 match=11xxxxxx prio=90\n"
    script = parse_scenario(text, t)
    net = Network(t)
    run_scenario(script, net, seed=1)
    # rules now carry 11xxxxxx from swC through swB into alice's first ap
    from routecheck.sim import Packet

    made = net.inject(Packet(0b11000000), ("swC", "2"))
    assert [t.access_point_at(d.switch, d.port).alias for d in made] == ["alice:ap1"]


def test_join_attack_verified_by_engine_on_snapshot():
    from routecheck.snapshots import snapshot_of
    from routecheck.verify import isolation_candidates

    t = topo()
    script = parse_scenario("@0 attack join client=alice hidden=swC:2 match=11xxxxxx\n", t)
    net = Network(t)
    run_scenario(script, net, seed=1)
    own, foreign = isolation_candidates(t, snapshot_of(net), next(ap for ap in t.access_points if ap.alias == "alice:ap1"))
    assert "mallory:ap1" in {ap.alias for ap in foreign}


def test_a_query_by_an_unkeyed_client_is_refused_when_the_script_is_read(tmp_path, capsys):
    """mallory has no key, so no agent can send her query: ``scenario check``
    refuses the line as ``run`` does, naming it."""
    (tmp_path / "q.scn").write_text("@1 flowmod add swA prio=5 match=xxxxxxxxxxxxxxxx action=fwd:1\n"
                                    "@4 query client=mallory kind=geo\n")
    paths = ["--topology", fixture_path("joinattack.topo"), "--scenario", str(tmp_path / "q.scn")]
    for command in (["scenario", "check"], ["run"]):
        assert main([*command, *paths]) == 1
        assert capsys.readouterr().err == "error: line 2: unkeyed client mallory cannot query\n"


def test_divert_needs_two_access_points():
    with pytest.raises(ScenarioError, match="^line 1: divert needs a client with at least two access points"):
        parse_scenario("@0 attack divert client=bob via=r3\n", topo())


@pytest.mark.parametrize(
    "line, message",
    [
        ("@3 attack divert client=bob via=r3", "line 2: divert needs a client with at least two access points, bob has 1"),
        ("@3 attack join client=alice hidden=swD:1", "line 2: no path from hidden point swD to swA"),
    ],
)
def test_scenario_check_rejects_attacks_that_cannot_expand(tmp_path, capsys, line, message):
    """``scenario check`` and ``run`` reject the same attack lines, naming the line."""
    (tmp_path / "net.topo").write_text(DOC + "switch swD ports 1\naccess swD:1 client eve\n")
    (tmp_path / "run.scn").write_text("@0 flowmod add swA prio=5 match=xxxxxxxx action=fwd:1\n" + line + "\n")
    paths = ["--topology", str(tmp_path / "net.topo"), "--scenario", str(tmp_path / "run.scn")]
    assert main(["scenario", "check", *paths]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["run", *paths]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_divert_routes_through_region():
    doc = """
headerwidth 8
switch swA ports 3
switch swB ports 3
switch swE ports 2
link swA:1 swB:1
link swA:3 swE:1
link swE:2 swB:3
access swA:2 client alice
access swB:2 client alice
location swA r1
location swB r2
location swE offshore
"""
    t = load_topology(doc)
    script = parse_scenario("@0 attack divert client=alice via=offshore match=0xxxxxxx prio=90\n", t)
    net = Network(t)
    run_scenario(script, net, seed=1)
    from routecheck.sim import Packet

    from routecheck.oracle import state_walk
    from routecheck.snapshots import snapshot_of

    made = net.inject(Packet(0b00000001), ("swA", "2"))
    assert [t.access_point_at(d.switch, d.port).alias for d in made] == ["alice:ap2"]
    assert "swE" in state_walk(t, snapshot_of(net))(t.access_point("swA", "2"), 0b00000001)[1]


def test_transient_pattern_exact_on_count_per_period():
    for duty, period in ((0.1, 10), (0.3, 10), (0.5, 10), (0.25, 8)):
        from routecheck.scenario import TransientSpec
        from routecheck.topology import FlowRule, Action
        from routecheck.hspace import Ternary

        spec = TransientSpec(
            tick=0,
            switch="swA",
            rule=FlowRule(1, Ternary.parse("xxxxxxxx"), Action.parse("drop")),
            duty=duty,
            period=period,
        )
        pattern = transient_pattern(spec, horizon=period * 20 - 1, rng=random.Random(3))
        for l in range(20):
            window = pattern[l * period : (l + 1) * period]
            assert sum(window) == round(duty * period)


def test_every_table_change_logged_exactly_once():
    """Scenario runs log one flowmod event per applied change, in seq order."""
    t = topo()
    text = (
        "@0 flowmod add swA prio=5 match=0xxxxxxx action=fwd:1\n"
        "@1 flowmod add swB prio=5 match=0xxxxxxx action=fwd:3\n"
        "@2 flowmod remove swA prio=5 match=0xxxxxxx action=fwd:1\n"
        "@3 attack transient flowmod add swC prio=9 match=11xxxxxx action=drop f=0.5 period=10\n"
        "horizon 40\n"
    )
    from routecheck.scenario import expand
    import random as _random

    script = parse_scenario(text, t)
    net = Network(t)
    events, _ = run_scenario(script, net, seed=3)
    expected = expand(script, _random.Random("3:scenario"), script.base_horizon())
    flowmods = [e for e in events if e.kind == "flowmod"]
    assert len(flowmods) == len(expected)
    for sw in t.switch_ports:
        seqs = [e.seq for e in flowmods if e.switch == sw]
        assert seqs == list(range(1, len(seqs) + 1))


def test_suppress_withholds_events_from_controller():
    t = topo()
    text = (
        "@0 flowmod add swA prio=1 match=xxxxxxxx action=drop\n"
        "@2 attack suppress sw=swA count=1\n"
        "@3 flowmod add swA prio=2 match=1xxxxxxx action=drop\n"
        "@5 flowmod add swA prio=3 match=11xxxxxx action=drop\n"
    )
    script = parse_scenario(text, t)
    seen = []

    class Collector:
        def on_events(self, events, net):
            seen.extend(events)

        def on_tick(self, tick, net):
            pass

        def close_sessions(self, tick, net):
            pass

    net = Network(t)
    run_scenario(script, net, seed=1, controller=Collector())
    assert [e.seq for e in net.events] == [1, 2, 3]  # switch applied everything
    assert [e.seq for e in seen] == [1, 3]  # controller missed seq 2


# -- template expansion characterisation ---------------------------------------


def template_digest() -> tuple[str, dict[str, int]]:
    """sha256 over the directives ``expand`` makes of every join and divert
    that a topology admits.

    The topologies are 40 seeded ``oracle.random_topology_text`` ones plus
    the joinattack and geodivert fixtures. Each gets a join for every
    (client, access point of another client) pair and a divert for every
    (client with two or more access points, region) pair, with ticks and
    priorities that vary per spec. Each directive contributes its tick,
    switch, op and rule text, in ``expand``'s order. Also returns the
    count of specs and directives, so the caller can see what was covered.
    """
    texts = [random_topology_text(random.Random(f"template-char-{i}"), 8, 7) for i in range(40)]
    texts += [Path(fixture_path(name)).read_text() for name in ("joinattack.topo", "geodivert.topo")]
    digest = hashlib.sha256()
    seen = {"joins": 0, "diverts": 0, "directives": 0}
    for text in texts:
        t = load_topology(text)
        wild = Ternary.wildcard(t.width)
        script = Script()
        for client in dict.fromkeys(ap.client for ap in t.access_points):
            for ap in t.access_points:
                if ap.client != client:
                    n = len(script.joins)
                    script.joins.append(join_spec(n % 5, client, ap.key(), wild, 100 + n, t))
            if len(t.client_aps(client)) >= 2:
                for region in sorted(set(t.locations.values())):
                    n = len(script.diverts)
                    script.diverts.append(divert_spec(n % 7, client, region, wild, 200 + n, t))
        directives = expand(script, random.Random(0), script.base_horizon())
        seen["joins"] += len(script.joins)
        seen["diverts"] += len(script.diverts)
        seen["directives"] += len(directives)
        digest.update(f"topology {len(directives)}\n".encode())
        for d in directives:
            digest.update(f"{d.tick}|{d.switch}|{d.op}|{d.rule}\n".encode())
    return digest.hexdigest(), seen


def test_template_expansion_matches_the_recorded_characterisation():
    """The join and divert routes, byte for byte, as recorded before the
    route walk gave its ports with its switches: a change to the walk's
    order, its tie-breaks or the flowmods it yields shows."""
    digest, seen = template_digest()
    assert digest == "e7645a119aece405d8bc6a01c2ad6bd0b043c63257938eb5d14713b2a2197332", (digest, seen)
