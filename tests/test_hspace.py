"""Wildcard-set algebra checked against exhaustive enumeration.

The oracle is denotation equality: enumerate every concrete header at a
small width and compare membership with the plain boolean set operation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecheck.hspace import (
    HeaderSpace,
    Rewrite,
    Ternary,
    WidthMismatch,
    hs_apply_rewrite,
    hs_difference,
    hs_intersect,
    hs_member,
    hs_union,
)

L = 8
ALL = range(1 << L)


def random_space(rng, width=L, max_terms=4, allow_empty=True) -> HeaderSpace:
    n = rng.randint(0 if allow_empty else 1, max_terms)
    terms = []
    for _ in range(n):
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


def denote(space: HeaderSpace) -> frozenset:
    return frozenset(h for h in range(1 << space.width) if space.member(h))


# -- parsing and membership -------------------------------------------------


def test_parse_roundtrip():
    for text in ("1xx0", "0000", "xxxx", "1x"):
        assert str(Ternary.parse(text)) == text
    assert str(HeaderSpace.of("1x", "0x")) == "1x,0x"
    assert str(HeaderSpace.empty(4)) == "-"
    assert HeaderSpace.parse("-", width=4) == HeaderSpace.empty(4)
    assert HeaderSpace.parse("1x,0x") == HeaderSpace.of("1x", "0x")


def test_parse_rejects_bad_characters():
    with pytest.raises(ValueError):
        Ternary.parse("1석0")
    with pytest.raises(ValueError):
        Ternary.parse("12")
    with pytest.raises(ValueError):
        Ternary.parse("")


def test_member_wildcard_match():
    s = HeaderSpace.of("1x")
    assert hs_member(0b10, s) is True
    assert hs_member(0b01, s) is False


def test_member_width_check():
    with pytest.raises(WidthMismatch):
        hs_member(0b10, HeaderSpace.of("1x"), width=4)


def test_member_union_is_or():
    rng = random.Random(101)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        u = hs_union(a, b)
        for h in ALL:
            assert u.member(h) == (a.member(h) or b.member(h))


# -- union -------------------------------------------------------------------


def test_union_identity_and_cover():
    s = HeaderSpace.of("1x")
    assert denote(hs_union(s, HeaderSpace.empty(2))) == denote(s)
    both = hs_union(HeaderSpace.of("0x"), HeaderSpace.of("1x"))
    assert denote(both) == frozenset(range(4))


def test_union_term_count_bound():
    rng = random.Random(7)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        assert len(hs_union(a, b).terms) <= len(a.terms) + len(b.terms)


# -- intersection -------------------------------------------------------------


def test_intersect_basics():
    assert denote(hs_intersect(HeaderSpace.of("xx"), HeaderSpace.of("1x"))) == denote(HeaderSpace.of("1x"))
    assert hs_intersect(HeaderSpace.of("10"), HeaderSpace.of("01")).is_empty()


def test_intersect_is_and():
    rng = random.Random(55)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        i = hs_intersect(a, b)
        for h in ALL:
            assert i.member(h) == (a.member(h) and b.member(h))


# -- difference ----------------------------------------------------------------


def test_difference_basics():
    s = HeaderSpace.of("1x")
    assert denote(hs_difference(s, HeaderSpace.empty(2))) == denote(s)
    assert hs_difference(HeaderSpace.of("xx"), HeaderSpace.of("xx")).is_empty()


def test_difference_is_and_not():
    rng = random.Random(99)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        d = hs_difference(a, b)
        for h in ALL:
            assert d.member(h) == (a.member(h) and not b.member(h))


def test_difference_disjoint_from_subtrahend():
    rng = random.Random(3)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        assert hs_intersect(hs_difference(a, b), b).is_empty()


def test_difference_term_growth_bound():
    # |a - b| stays within |a| * L * |b| terms on this operand distribution
    rng = random.Random(17)
    for _ in range(200):
        a = random_space(rng, allow_empty=False)
        b = random_space(rng, allow_empty=False)
        d = hs_difference(a, b)
        assert len(d.terms) <= max(len(a.terms), len(a.terms) * L * len(b.terms))


# -- rewrite --------------------------------------------------------------------


def test_rewrite_examples():
    s = HeaderSpace.of("xx")
    out = hs_apply_rewrite(s, Rewrite.parse("10/1x"))
    assert denote(out) == denote(HeaderSpace.of("1x"))
    unchanged = hs_apply_rewrite(s, Rewrite(2, 0, 0))
    assert denote(unchanged) == denote(s)


def test_rewrite_matches_per_header_image():
    rng = random.Random(23)
    for _ in range(50):
        s = random_space(rng, allow_empty=False)
        mask = rng.getrandbits(L)
        value = rng.getrandbits(L)
        rw = Rewrite(L, mask, value)
        image = denote(hs_apply_rewrite(s, rw))
        expected = frozenset(rw.apply(h) for h in denote(s))
        assert image == expected


def test_rewrite_monotone():
    rng = random.Random(29)
    for _ in range(30):
        s2 = random_space(rng, allow_empty=False)
        s1 = HeaderSpace(L, s2.terms[: max(1, len(s2.terms) // 2)])
        rw = Rewrite(L, rng.getrandbits(L), rng.getrandbits(L))
        assert denote(hs_apply_rewrite(s1, rw)) <= denote(hs_apply_rewrite(s2, rw))


# -- algebraic identities ----------------------------------------------------------


def test_identities_by_enumeration():
    rng = random.Random(31)
    full = HeaderSpace.full(L)
    empty = HeaderSpace.empty(L)
    for _ in range(30):
        s = random_space(rng)
        assert denote(hs_union(s, empty)) == denote(s)
        assert denote(hs_intersect(s, full)) == denote(s)
        assert denote(hs_difference(s, empty)) == denote(s)


def test_commutativity_associativity():
    rng = random.Random(37)
    for _ in range(30):
        a, b, c = random_space(rng), random_space(rng), random_space(rng)
        assert denote(hs_union(a, b)) == denote(hs_union(b, a))
        assert denote(hs_intersect(a, b)) == denote(hs_intersect(b, a))
        assert denote(hs_union(hs_union(a, b), c)) == denote(hs_union(a, hs_union(b, c)))
        assert denote(hs_intersect(hs_intersect(a, b), c)) == denote(hs_intersect(a, hs_intersect(b, c)))


def test_compact_preserves_denotation():
    rng = random.Random(41)
    for _ in range(50):
        s = random_space(rng, max_terms=6)
        assert denote(s.compact()) == denote(s)


def test_duplicate_terms_dropped_first_occurrence_order_kept():
    a, b, c = (Ternary.parse(t) for t in ("1x0", "0xx", "x11"))
    assert HeaderSpace(3, [b, a, b, c, a, c]).terms == (b, a, c)
    assert HeaderSpace(3, (a, a, a)).terms == (a,)
    with pytest.raises(WidthMismatch):
        HeaderSpace(3, [a, Ternary.parse("1x"), a])


def test_width_mismatch_raises():
    a = HeaderSpace.of("1x")
    b = HeaderSpace.of("1xx")
    for op in (hs_union, hs_intersect, hs_difference):
        with pytest.raises(WidthMismatch):
            op(a, b)
    with pytest.raises(WidthMismatch):
        hs_apply_rewrite(a, Rewrite(3, 1, 1))


def test_width_zero_rejected():
    with pytest.raises(ValueError):
        Ternary(0, 0, 0)
    with pytest.raises(ValueError):
        HeaderSpace.empty(0)


# -- hypothesis: the same laws under generated operands ------------------------------


@st.composite
def spaces(draw, width=5):
    n = draw(st.integers(0, 3))
    terms = []
    for _ in range(n):
        care = draw(st.integers(0, (1 << width) - 1))
        value = draw(st.integers(0, (1 << width) - 1))
        terms.append(Ternary(width, care, value))
    return HeaderSpace(width, terms)


@settings(max_examples=60, deadline=None)
@given(spaces(), spaces())
def test_prop_union_membership(a, b):
    u = a.union(b)
    for h in range(1 << a.width):
        assert u.member(h) == (a.member(h) or b.member(h))


@settings(max_examples=60, deadline=None)
@given(spaces(), spaces())
def test_prop_difference_membership(a, b):
    d = a.difference(b)
    for h in range(1 << a.width):
        assert d.member(h) == (a.member(h) and not b.member(h))


@settings(max_examples=60, deadline=None)
@given(spaces(), st.integers(0, 31), st.integers(0, 31))
def test_prop_rewrite_image(s, mask, value):
    rw = Rewrite(5, mask, value)
    image = s.apply_rewrite(rw)
    expected = {rw.apply(h) for h in range(32) if s.member(h)}
    got = {h for h in range(32) if image.member(h)}
    assert got == expected
