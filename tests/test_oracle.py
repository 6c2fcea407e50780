"""The equivalence harness itself: sensitivity and generator sanity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecheck.oracle import (
    MUTATIONS,
    check_case,
    check_case_sampled,
    mutate_snapshot,
    random_network,
    run_cases,
)
from routecheck.hspace import Ternary
from routecheck.sim import Network
from routecheck.snapshots import snapshot_of
from routecheck.topology import Action, FlowRule, load_topology


def test_generator_produces_valid_desk_scale_nets():
    for i in range(20):
        topo, net = random_network(f"gen-{i}")
        assert 2 <= len(topo.switch_ports) <= 6
        assert len(topo.access_points) >= 2
        for sw in topo.switch_ports:
            assert len(net.tables[sw].rules) <= 12


def test_generator_deterministic_per_seed():
    t1, n1 = random_network("same-seed")
    t2, n2 = random_network("same-seed")
    assert t1.switch_ports == t2.switch_ports
    assert n1.tables == n2.tables


def test_cases_pass_without_mutation():
    cases = run_cases(count=8, seed=902, width=6, max_switches=4, max_rules=8)
    assert all(c.ok for c in cases)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_each_mutation_is_caught(mutation):
    """Every deliberate analysis bug must produce at least one mismatch."""
    cases = run_cases(count=15, seed=31, width=6, max_switches=5, max_rules=10, mutation=mutation)
    assert any(not c.ok for c in cases), f"mutation {mutation} went unnoticed"


def test_ignore_priority_is_caught_without_priority_ties():
    """Reversing a tie-free table must change the engine's answer: the engine
    reads snapshot tuples in the order given and must not re-sort them."""
    topo = load_topology(
        "headerwidth 2\nswitch swA ports 2\naccess swA:1 client alice\naccess swA:2 client bob\n"
    )
    net = Network(topo)
    net.apply_flow_mod("swA", "add", FlowRule(9, Ternary.parse("1x"), Action.parse("drop")))
    net.apply_flow_mod("swA", "add", FlowRule(1, Ternary.parse("xx"), Action.parse("fwd:2")))
    assert check_case(topo, net) == []
    assert check_case(topo, net, mutation="ignore-priority")


def test_mutation_rejects_unknown_name():
    topo, net = random_network("m-x")
    with pytest.raises(ValueError, match="unknown mutation"):
        mutate_snapshot(snapshot_of(net), "no-such-bug")


def test_check_case_reports_details_on_mismatch():
    topo, net = random_network("detail-1", width=6, max_switches=4, max_rules=8)
    for i in range(40):
        topo, net = random_network(f"detail-{i}", width=6, max_switches=4, max_rules=8)
        mismatches = check_case(topo, net, mutation="ignore-priority")
        if mismatches:
            assert "header=" in mismatches[0] and "from=" in mismatches[0]
            return
    pytest.fail("expected at least one mutated case to mismatch")


def test_a_rewrite_ignored_is_caught_by_its_final_headers():
    """swA sets the top bit of 0xxx headers and swB sends everything to bob.
    Without the rewrite the engine still finds bob reachable from alice on
    the same headers, so only the final headers tell: 1xxx arrive, and the
    mutated ``arriving`` holds 0xxx instead."""
    topo = load_topology(
        "headerwidth 4\nswitch swA ports 2\nswitch swB ports 2\nlink swA:1 swB:1\n"
        "access swA:2 client alice\naccess swB:2 client bob\n"
    )
    net = Network(topo)
    net.apply_flow_mod("swA", "add", FlowRule(5, Ternary.parse("0xxx"), Action.parse("rewrite:1000/1xxx:1")))
    net.apply_flow_mod("swB", "add", FlowRule(5, Ternary.parse("xxxx"), Action.parse("fwd:2")))
    assert check_case(topo, net) == []
    mismatches = check_case(topo, net, mutation="ignore-rewrite")
    assert mismatches
    assert mismatches[0] == "from=alice:ap1 header=0000 arriving lacks bob:ap1:1000"


# -- the sampled referee at the product width ------------------------------------


def referee_network(seed):
    return random_network(f"referee-{seed}", width=16, max_switches=4, max_rules=8)


@settings(max_examples=24, deadline=None)
@given(st.integers(0, 10**6))
def test_sampled_referee_passes_at_width_16(seed):
    topo, net = referee_network(seed)
    assert check_case_sampled(topo, net, random.Random(seed)) == []


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_sampled_referee_catches_each_mutation_at_width_16(mutation):
    assert any(
        check_case_sampled(*referee_network(seed), random.Random(seed), mutation=mutation) for seed in range(24)
    ), f"mutation {mutation} went unnoticed at width 16"
