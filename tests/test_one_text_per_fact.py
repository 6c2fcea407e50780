"""One refusal text per fact about the network, whatever the entry point.

``Topology`` decides whether a client exists, whether an endpoint is one
of a client's access points and whether a rule fits a switch. The
``routecheck query`` command, a scenario script, a snapshot dump, the
query functions and the simulator all ask it, so the same mistake is
refused with the same words; a reader only adds its line number.
"""

from pathlib import Path

import pytest

from conftest import fixture_path
from routecheck.cli import main
from routecheck.hspace import HeaderSpace, Ternary
from routecheck.scenario import ScenarioError, parse_scenario
from routecheck.sim import Network, Packet
from routecheck.snapshots import parse_snapshot_dump, snapshot_of
from routecheck.topology import AccessPoint, Action, FlowRule, load_topology
from routecheck.verify import geo_exposure, reachable_endpoints, reachable_sources, transfer_summary

TOPO = fixture_path("benign.topo")  # width 16; swA and swC have two ports, swB three
ANY = "x" * 16


def refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def cli_error(tmp_path, capsys, *extra) -> str:
    dump = tmp_path / "dump.txt"
    dump.write_text("version=0 tick=0\n")
    code = main(["query", "--topology", TOPO, "--snapshot", str(dump), "--kind", "geo", *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_an_unknown_client_is_refused_alike_everywhere(tmp_path, capsys):
    topo = load_topology(Path(TOPO).read_text())
    snap = snapshot_of(Network(topo))
    assert cli_error(tmp_path, capsys, "--client", "carol") == "error: unknown client 'carol'\n"
    assert refusal(lambda: parse_scenario("@4 query client=carol kind=geo", topo)) == "line 1: unknown client 'carol'"
    for query in (geo_exposure, transfer_summary):
        assert refusal(lambda: query(topo, snap, "carol")) == "unknown client 'carol'"


def test_a_port_that_is_no_access_point_of_the_client_is_refused_alike(tmp_path, capsys):
    topo = load_topology(Path(TOPO).read_text())
    for at in ("swA:9", "swC:2", "swA:1"):
        message = f"{at} is not an access point of alice"
        assert cli_error(tmp_path, capsys, "--client", "alice", "--at", at) == f"error: {message}\n"
        line = f"@4 query client=alice kind=geo at={at}"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(line, topo)
        assert str(info.value) == f"line 1: {message}"


def test_a_rule_that_does_not_fit_its_switch_is_refused_alike():
    """A script's flowmod line, a snapshot dump's rule line and a flowmod
    applied to the simulator give one text for each misfit."""
    topo = load_topology(Path(TOPO).read_text())
    for switch, match, action, message in (
        ("swA", "01xx", "drop", "match width 4 != header width 16"),
        ("swA", ANY, "rewrite:11/00:1", "rewrite width 2 != header width 16"),
        ("swC", ANY, "fwd:3", "switch swC has no port 3"),
        ("swZ", ANY, "drop", "unknown switch swZ"),
    ):
        text = f"add {switch} prio=1 match={match} action={action}"
        assert refusal(lambda: parse_scenario(f"@0 flowmod {text}", topo)) == f"line 1: {message}"
        dump = f"version=1 tick=0\nflowmod {text}\n"
        assert refusal(lambda: parse_snapshot_dump(dump, topo)) == f"line 2: {message}"
        rule = FlowRule(1, Ternary.parse(match), Action.parse(action))
        net = Network(topo)
        assert refusal(lambda: net.apply_flow_mod(switch, "add", rule)) == message
        assert net.events == []


def test_an_endpoint_that_is_no_access_point_is_refused_alike():
    """A script's inject point and join ``hidden=`` point, a packet injected
    into the simulator and the reachability queries give one text, whether
    the port does not exist or links two switches."""
    topo = load_topology(Path(TOPO).read_text())
    for at in ("swA:9", "swA:1"):
        message = f"{at} is not an access point"
        for line in (f"@3 inject {at} header={'0' * 16}", f"@3 attack join client=alice hidden={at}"):
            assert refusal(lambda: parse_scenario(line, topo)) == f"line 1: {message}"
        net = Network(topo)
        assert refusal(lambda: net.inject(Packet(0), tuple(at.split(":")))) == message
        assert net.events == [] and net.deliveries == []
        stray = AccessPoint(*at.split(":"), "alice", "alice:ap9")
        snap = snapshot_of(net)
        assert refusal(lambda: reachable_endpoints(topo, snap, stray, HeaderSpace.full(16))) == message
        assert refusal(lambda: reachable_sources(topo, snap, stray)) == message
