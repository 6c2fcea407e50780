"""Topology loading, validation, port classification and table lookup."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecheck.hspace import Ternary
from routecheck.topology import (
    Action,
    FlowRule,
    FlowTable,
    TopologyError,
    load_topology,
)

SMALLEST = """
headerwidth 4
switch swA ports 2
switch swB ports 2
link swA:1 swB:1
access swA:2 client alice
access swB:2 client bob
"""

TRIANGLE = """
headerwidth 4
switch swA ports 3
switch swB ports 3
switch swC ports 3
link swA:1 swB:1
link swB:2 swC:1
link swC:2 swA:2
access swA:3 client c1
access swB:3 client c2
access swC:3 client c3
location swA r1
location swB r2
"""


def test_smallest_topology():
    topo = load_topology(SMALLEST)
    assert topo.width == 4
    assert set(topo.switch_ports) == {"swA", "swB"}
    assert len(topo.links) == 1
    assert [ap.client for ap in topo.access_points] == ["alice", "bob"]
    assert topo.access_points[0].alias == "alice:ap1"
    assert topo.peer("swA", "1") == ("swB", "1")
    assert topo.peer("swB", "1") == ("swA", "1")


def test_triangle_counts():
    topo = load_topology(TRIANGLE)
    assert len(topo.links) == 3
    assert len(topo.access_points) == 3
    assert topo.locations.get("swA") == "r1"
    assert topo.locations.get("swC") is None


def test_default_width_applies():
    topo = load_topology("switch s ports 1\naccess s:1 client c\n")
    assert topo.width == 16


def test_dangling_link_reference():
    with pytest.raises(TopologyError, match="unknown switch"):
        load_topology("headerwidth 4\nswitch swA ports 1\nlink swA:1 swB:1\n")


def test_port_both_link_and_access():
    doc = SMALLEST + "access swA:1 client eve\n"
    with pytest.raises(TopologyError, match="already used"):
        load_topology(doc)


def test_unattached_port_rejected():
    doc = "headerwidth 4\nswitch swA ports 2\naccess swA:1 client alice\n"
    with pytest.raises(TopologyError, match="neither linked nor an access point"):
        load_topology(doc)


def test_width_zero_rejected():
    with pytest.raises(TopologyError):
        load_topology("headerwidth 0\nswitch swA ports 1\naccess swA:1 client c\n")


def test_self_link_rejected():
    with pytest.raises(TopologyError, match="endpoints must differ"):
        load_topology("headerwidth 4\nswitch swA ports 2\nlink swA:1 swA:1\naccess swA:2 client c\n")


def test_duplicate_switch_rejected():
    with pytest.raises(TopologyError, match="duplicate switch"):
        load_topology("switch swA ports 1\nswitch swA ports 1\n")


def test_nokey_unknown_client():
    with pytest.raises(TopologyError, match="nokey references unknown client"):
        load_topology(SMALLEST + "nokey mallory\n")


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("headerwidth abc", "line 1: header width must be a number, got 'abc'"),
        ("switch s ports three", "line 1: port count must be a number, got 'three'"),
        ("field dst 0 z", "line 1: end bit must be a number, got 'z'"),
        ("field dst y 3", "line 1: start bit must be a number, got 'y'"),
        ("headerwidth 1_6", "line 1: header width must be a number, got '1_6'"),
        ("switch s ports ２", "line 1: port count must be a number, got '２'"),
        ("field dst +0 3", "line 1: start bit must be a number, got '+0'"),
    ],
)
def test_non_numeric_fields_name_their_line(line, message):
    with pytest.raises(TopologyError) as info:
        load_topology(line + "\n" + SMALLEST)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("location swZ eu-west", "line 8: location references unknown switch swZ"),
        ("field dport 2 5", "line 8: field dport range 2..5 outside width 4"),
        ("nokey mallory", "line 8: nokey references unknown client mallory"),
    ],
)
def test_checks_after_the_last_line_name_the_line_at_fault(line, message):
    with pytest.raises(TopologyError) as info:
        load_topology(SMALLEST + line + "\n# trailing comment\n")
    assert str(info.value) == message


def test_field_range_checked():
    with pytest.raises(TopologyError, match="outside width"):
        load_topology(SMALLEST + "field dport 2 5\n")
    topo = load_topology(SMALLEST + "field dport 0 3\n")
    assert topo.fields["dport"] == (0, 3)


def test_field_pattern_compiles_to_bit_positions():
    doc = "headerwidth 8\nswitch s ports 1\naccess s:1 client c\nfield tag 2 4\n"
    topo = load_topology(doc)
    assert str(topo.field_pattern("tag", 0b101)) == "xx101xxx"
    assert str(topo.field_pattern("tag", 0)) == "xx000xxx"
    with pytest.raises(ValueError, match="does not fit"):
        topo.field_pattern("tag", 8)
    with pytest.raises(TopologyError, match="unknown field"):
        topo.field_pattern("nope", 1)


# -- flow table lookup ---------------------------------------------------------


def rule(prio, match, action):
    return FlowRule(prio, Ternary.parse(match), Action.parse(action))


def test_lookup_single_rule_covers_space():
    t = FlowTable()
    t = t.add(rule(5, "xx", "fwd:1"))
    pairs = t.lookup(Ternary.wildcard(2))
    assert len(pairs) == 1
    got_rule, space = pairs[0]
    assert got_rule.priority == 5
    assert space.denote() == frozenset(range(4))


def test_lookup_priority_shadowing():
    t = FlowTable()
    t = t.add(rule(9, "1x", "drop"))
    t = t.add(rule(1, "xx", "fwd:1"))
    pairs = t.lookup(Ternary.wildcard(2))
    assert [p[0].action.kind for p in pairs] == ["drop", "fwd"]
    assert pairs[0][1].denote() == frozenset({0b10, 0b11})
    assert pairs[1][1].denote() == frozenset({0b00, 0b01})


def test_lookup_reports_residual_as_implicit_drop():
    t = FlowTable()
    t = t.add(rule(5, "11", "fwd:1"))
    pairs = t.lookup(Ternary.wildcard(2))
    assert pairs[-1][0] is None
    assert pairs[-1][1].denote() == frozenset({0b00, 0b01, 0b10})


def test_lookup_tie_break_is_insertion_order():
    t = FlowTable()
    first = rule(5, "xx", "fwd:1")
    second = rule(5, "xx", "drop")
    t = t.add(first)
    t = t.add(second)
    assert t.rules[0] == first
    assert t.match_header(0) == first


def test_remove_matches_rule_identity():
    t = FlowTable()
    r = rule(5, "1x", "fwd:1")
    t = t.add(r)
    t = t.remove(rule(5, "1x", "fwd:1"))
    assert t.rules == ()
    assert t.remove(r) is t


def test_add_and_remove_leave_the_original_table_unchanged():
    r = rule(5, "1x", "fwd:1")
    empty = FlowTable()
    one = empty.add(r)
    assert empty.rules == () and one.rules == (r,)
    two = one.add(rule(5, "x1", "drop"))
    assert one.rules == (r,) and len(two.rules) == 2
    assert two.remove(r).rules == (rule(5, "x1", "drop"),)
    assert two.rules[0] == r and len(two.rules) == 2


def test_remove_of_an_absent_rule_returns_the_same_table():
    t = FlowTable().add(rule(5, "1x", "fwd:1"))
    assert t.remove(rule(4, "1x", "fwd:1")) is t
    assert FlowTable().remove(rule(5, "1x", "fwd:1")).rules == ()


def test_add_remove_sequences_match_a_stable_sort_reference():
    """Lookup order equals the inserted rules stably sorted by descending
    priority, over sequences with duplicate rules and priority ties."""
    rng = random.Random(23)
    pool = [rule(p, m, a) for p in (1, 2, 3) for m in ("1x", "x0") for a in ("fwd:1", "drop")]
    for _ in range(200):
        t = FlowTable()
        inserted = []  # still-present rules in insertion order
        for _ in range(rng.randint(1, 25)):
            r = rng.choice(pool)
            if rng.random() < 0.6:
                t = t.add(r)
                inserted.append(r)
            else:
                before = t
                t = t.remove(r)
                if r in inserted:
                    inserted.remove(r)
                    assert t is not before
                else:
                    assert t is before
            assert t.rules == tuple(sorted(inserted, key=lambda x: -x.priority))


def test_lookup_winner_matches_enumeration():
    """Per-header winner equals the highest-priority matching rule."""
    rng = random.Random(11)
    width = 8
    for _ in range(30):
        t = FlowTable()
        rules = []
        for _ in range(rng.randint(1, 10)):
            care = rng.getrandbits(width)
            value = rng.getrandbits(width)
            r = FlowRule(rng.randint(0, 5), Ternary(width, care, value), Action.parse("fwd:1"))
            t = t.add(r)
            rules.append(r)
        pairs = t.lookup(Ternary.wildcard(width))
        winner_by_header = {}
        for got_rule, space in pairs:
            for h in space.denote():
                assert h not in winner_by_header  # pairwise disjoint
                winner_by_header[h] = got_rule
        for h in range(1 << width):
            expect = t.match_header(h)
            assert winner_by_header[h] == expect
        # union of all sub-spaces plus residual covers the input term
        assert len(winner_by_header) == 1 << width


def test_lookup_deterministic():
    t = FlowTable()
    t = t.add(rule(3, "1x", "fwd:1"))
    t = t.add(rule(3, "x1", "drop"))
    a = t.lookup(Ternary.wildcard(2))
    b = t.lookup(Ternary.wildcard(2))
    assert a == b


def test_repeated_lookup_is_memoised_and_new_tables_start_empty():
    t = FlowTable().add(rule(3, "1x", "fwd:1")).add(rule(3, "x1", "drop"))
    first = t.lookup(Ternary.wildcard(2))
    again = t.lookup(Ternary.wildcard(2))  # an equal term, not the same object
    assert again == first and again is first
    assert t.lookup(Ternary.parse("0x")) != first
    assert t._splits
    assert t.add(rule(1, "xx", "drop"))._splits == {}
    assert t.remove(rule(3, "1x", "fwd:1"))._splits == {}
    assert FlowTable(t.rules)._splits == {}
    assert FlowTable(t.rules) == t


@st.composite
def tables_and_terms(draw, width):
    """A table of up to 8 rules with priority ties and overlapping matches,
    and the term to split: the wildcard in about one case of eight, else a
    random term. A term fixes up to a quarter of the positions (a split
    term at least one), drawn one by one so that high bits are fixed as
    often as low ones."""
    bits = st.integers(0, (1 << width) - 1)

    def term(least):
        positions = draw(st.sets(st.integers(0, width - 1), min_size=least, max_size=width // 4))
        return Ternary(width, sum(1 << i for i in positions), draw(bits))

    t = FlowTable()
    for _ in range(draw(st.integers(0, 8))):
        t = t.add(FlowRule(draw(st.integers(0, 3)), term(0), Action.parse(draw(st.sampled_from(["fwd:1", "drop"])))))
    split = Ternary.wildcard(width) if draw(st.integers(0, 7)) == 0 else term(1)
    return t, split, draw(st.lists(bits, min_size=20, max_size=20))


def corner_headers(term: Ternary) -> set[int]:
    """Both corners of a term (wildcards all 0, all 1) and, for each fixed
    position, the low corner with that bit flipped: just outside the term."""
    full = (1 << term.width) - 1
    low, high = term.value, term.value | (full & ~term.care)
    flips = {low ^ (1 << i) for i in range(term.width) if term.care >> i & 1}
    return {low, high} | flips


@pytest.mark.parametrize("width", [16, 32])
def test_lookup_law_on_sampled_headers_at_product_widths(width):
    """On every rule-match corner, the input term's corners and random
    headers, the pieces are pairwise disjoint and each header of the input
    term lands in the piece of ``match_header``'s winner."""

    @settings(max_examples=60, deadline=None)
    @given(tables_and_terms(width))
    def law(case):
        t, split, randoms = case
        pieces = t.lookup(split)
        headers = set(randoms)
        for term in [r.match for r in t.rules] + [split]:
            headers |= corner_headers(term)
        for h in headers:
            holders = [got_rule for got_rule, sub in pieces if sub.member(h)]
            assert len(holders) <= 1  # pairwise disjoint
            if split.matches(h):
                assert holders == [t.match_header(h)]
            else:
                assert holders == []

    law()


@st.composite
def classifier_cases(draw, width):
    """A table reached by a sequence of adds and removes over a small rule
    pool, and headers to look up. The pool shares a few sparse care masks,
    the wildcard's among them, across few values, so a mask holds several
    values, and it repeats rules and priorities; the table may be empty.
    The headers include the corners of every rule and of every overlap of
    two rules, where the first match is decided."""
    bits = st.integers(0, (1 << width) - 1)
    masks = [0] + [draw(bits) & draw(bits) & draw(bits) for _ in range(draw(st.integers(1, 3)))]
    values = draw(st.lists(bits, min_size=1, max_size=4))
    pool = [
        FlowRule(
            draw(st.integers(0, 3)),
            Ternary(width, draw(st.sampled_from(masks)), draw(st.sampled_from(values))),
            Action.parse(draw(st.sampled_from(["fwd:1", "drop", "ctrl"]))),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    t = FlowTable()
    for add, i in draw(st.lists(st.tuples(st.booleans(), st.integers(0, len(pool) - 1)), max_size=20)):
        t = t.add(pool[i]) if add else t.remove(pool[i])
    headers = set(draw(st.lists(bits, min_size=10, max_size=10)))
    for a in pool:
        for b in pool:
            overlap = a.match.intersect(b.match)
            if overlap is not None:
                headers |= corner_headers(overlap)
    return t, sorted(headers)


@pytest.mark.parametrize("width", [8, 16, 32])
def test_match_header_equals_a_linear_first_match(width):
    """``match_header`` picks the very rule that a linear scan of the rules
    in lookup order picks first, or None when no rule matches."""
    assert FlowTable().match_header(0) is None

    @settings(max_examples=150, deadline=None)
    @given(classifier_cases(width))
    def law(case):
        t, headers = case
        for h in headers:
            want = next((r for r in t.rules if r.match.matches(h)), None)
            assert t.match_header(h) is want

    law()


def test_action_parse_roundtrip():
    for text in ("fwd:1", "fwd:1,2", "drop", "ctrl", "rewrite:1100/10xx:2"):
        assert str(Action.parse(text)) == text
    with pytest.raises(ValueError):
        Action.parse("fwd:")
    with pytest.raises(ValueError):
        Action.parse("bogus")


def test_negative_priority_rejected():
    with pytest.raises(ValueError):
        FlowRule(-1, Ternary.parse("xx"), Action.parse("drop"))


@st.composite
def rule_fields(draw):
    """Priority, match and action of a rule of any kind at widths 1-32."""
    width = draw(st.integers(1, 32))
    bits = st.integers(0, (1 << width) - 1)
    kind = draw(st.sampled_from(Action.KINDS))
    ports = tuple(draw(st.lists(st.sampled_from("1234"), min_size=1, max_size=3)))
    rewrite = Ternary(width, draw(bits), draw(bits)) if kind == "rewrite" else None
    action = Action(kind, ports if kind in ("fwd", "rewrite") else (), rewrite)
    return draw(st.integers(0, 1 << 16)), Ternary(width, draw(bits), draw(bits)), action


def copied(fields):
    """The same fields as new, equal objects."""
    prio, match, action = fields
    rw = action.rewrite
    return (
        prio,
        Ternary(match.width, match.care, match.value),
        Action(action.kind, action.ports, rw and Ternary(rw.width, rw.care, rw.value)),
    )


def text_of(prio, match, action) -> str:
    return f"prio={prio} match={match} action={action}"


@settings(max_examples=200, deadline=None)
@given(rule_fields(), rule_fields())
def test_prop_flow_rule_hash_and_text_follow_its_fields(fields, other):
    a, b = FlowRule(*fields), FlowRule(*copied(fields))
    assert a == b and hash(a) == hash(b) == hash(fields)
    assert str(a) == str(b) == str(a) == text_of(*fields)
    assert (a == FlowRule(*other)) == (fields == other)
    # replace builds a new rule: its hash and text follow the new fields
    for changes in ({"priority": other[0]}, {"match": other[1], "action": other[2]}):
        c = dataclasses.replace(a, **changes)
        new_fields = (c.priority, c.match, c.action)
        assert c == FlowRule(*copied(new_fields))
        assert hash(c) == hash(FlowRule(*copied(new_fields))) == hash(new_fields)
        assert str(c) == text_of(*new_fields)
