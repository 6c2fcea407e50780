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
    Ternary,
    WidthMismatch,
    _space,
    _term,
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


def rewritten(s: HeaderSpace, rw: Ternary) -> HeaderSpace:
    """The image of a space under a rewrite, term by term, as propagation takes it."""
    return HeaderSpace(s.width, [t.rewrite(rw) for t in s.terms])


def denote(space: HeaderSpace) -> frozenset:
    return frozenset(h for h in range(1 << space.width) if space.member(h))


# -- parsing and membership -------------------------------------------------


def test_parse_roundtrip():
    for text in ("1xx0", "0000", "xxxx", "1x"):
        assert str(Ternary.parse(text)) == text
    assert str(HeaderSpace.of("1x", "0x")) == "1x,0x"
    assert str(HeaderSpace(4)) == "-"


def test_parse_rejects_bad_characters():
    with pytest.raises(ValueError):
        Ternary.parse("1석0")
    with pytest.raises(ValueError):
        Ternary.parse("12")
    with pytest.raises(ValueError):
        Ternary.parse("")


def test_member_wildcard_match():
    s = HeaderSpace.of("1x")
    assert s.member(0b10) is True
    assert s.member(0b01) is False


def test_member_union_is_or():
    rng = random.Random(101)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        u = a.union(b)
        for h in ALL:
            assert u.member(h) == (a.member(h) or b.member(h))


# -- union -------------------------------------------------------------------


def test_union_identity_and_cover():
    s = HeaderSpace.of("1x")
    assert denote(s.union(HeaderSpace(2))) == denote(s)
    both = HeaderSpace.of("0x").union(HeaderSpace.of("1x"))
    assert denote(both) == frozenset(range(4))


def test_union_term_count_bound():
    rng = random.Random(7)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        assert len(a.union(b).terms) <= len(a.terms) + len(b.terms)


# -- intersection -------------------------------------------------------------


def test_intersect_basics():
    assert denote(HeaderSpace.of("xx").intersect(HeaderSpace.of("1x"))) == denote(HeaderSpace.of("1x"))
    assert HeaderSpace.of("10").intersect(HeaderSpace.of("01")).is_empty()


def test_intersect_is_and():
    rng = random.Random(55)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        i = a.intersect(b)
        for h in ALL:
            assert i.member(h) == (a.member(h) and b.member(h))


# -- difference ----------------------------------------------------------------


def test_difference_basics():
    s = HeaderSpace.of("1x")
    assert denote(s.difference(HeaderSpace(2))) == denote(s)
    assert HeaderSpace.of("xx").difference(HeaderSpace.of("xx")).is_empty()


def test_difference_is_and_not():
    rng = random.Random(99)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        d = a.difference(b)
        for h in ALL:
            assert d.member(h) == (a.member(h) and not b.member(h))


def test_difference_disjoint_from_subtrahend():
    rng = random.Random(3)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        assert a.difference(b).intersect(b).is_empty()


def test_difference_term_growth_bound():
    # |a - b| stays within |a| * L * |b| terms on this operand distribution
    rng = random.Random(17)
    for _ in range(200):
        a = random_space(rng, allow_empty=False)
        b = random_space(rng, allow_empty=False)
        d = a.difference(b)
        assert len(d.terms) <= max(len(a.terms), len(a.terms) * L * len(b.terms))


# -- rewrite --------------------------------------------------------------------


def test_rewrite_examples():
    s = HeaderSpace.of("xx")
    out = rewritten(s, Ternary.parse("1x"))
    assert denote(out) == denote(HeaderSpace.of("1x"))
    unchanged = rewritten(s, Ternary(2, 0, 0))
    assert denote(unchanged) == denote(s)


def test_rewrite_matches_per_header_image():
    rng = random.Random(23)
    for _ in range(50):
        s = random_space(rng, allow_empty=False)
        mask = rng.getrandbits(L)
        value = rng.getrandbits(L)
        rw = Ternary(L, mask, value)
        image = denote(rewritten(s, rw))
        expected = frozenset(rw.apply(h) for h in denote(s))
        assert image == expected


def test_rewrite_monotone():
    rng = random.Random(29)
    for _ in range(30):
        s2 = random_space(rng, allow_empty=False)
        s1 = HeaderSpace(L, s2.terms[: max(1, len(s2.terms) // 2)])
        rw = Ternary(L, rng.getrandbits(L), rng.getrandbits(L))
        assert denote(rewritten(s1, rw)) <= denote(rewritten(s2, rw))


# -- algebraic identities ----------------------------------------------------------


def test_identities_by_enumeration():
    rng = random.Random(31)
    full = HeaderSpace.full(L)
    empty = HeaderSpace(L)
    for _ in range(30):
        s = random_space(rng)
        assert denote(s.union(empty)) == denote(s)
        assert denote(s.intersect(full)) == denote(s)
        assert denote(s.difference(empty)) == denote(s)


def test_commutativity_associativity():
    rng = random.Random(37)
    for _ in range(30):
        a, b, c = random_space(rng), random_space(rng), random_space(rng)
        assert denote(a.union(b)) == denote(b.union(a))
        assert denote(a.intersect(b)) == denote(b.intersect(a))
        assert denote(a.union(b).union(c)) == denote(a.union(b.union(c)))
        assert denote(a.intersect(b).intersect(c)) == denote(a.intersect(b.intersect(c)))


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
    for op in (HeaderSpace.union, HeaderSpace.intersect, HeaderSpace.difference):
        with pytest.raises(WidthMismatch):
            op(a, b)
    with pytest.raises(WidthMismatch):
        rewritten(a, Ternary(3, 1, 1))


def test_width_zero_rejected():
    with pytest.raises(ValueError):
        Ternary(0, 0, 0)
    with pytest.raises(ValueError):
        HeaderSpace(0)


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
    rw = Ternary(5, mask, value)
    image = rewritten(s, rw)
    expected = {rw.apply(h) for h in range(32) if s.member(h)}
    got = {h for h in range(32) if image.member(h)}
    assert got == expected


# -- compact against the pairwise scan it replaced, at product widths ----------------


def reference_compact(space: HeaderSpace) -> HeaderSpace:
    """The pairwise scan that ``HeaderSpace.compact`` replaced, verbatim
    but for ``Ternary.subsumes``, which is inlined here."""

    def subsumes(k, t):
        return (t.care & k.care) == k.care and (t.value & k.care) == k.value

    kept = []
    for t in space.terms:
        if any(subsumes(k, t) for k in kept):
            continue
        kept = [k for k in kept if not subsumes(t, k)]
        kept.append(t)
    return HeaderSpace(space.width, kept)


@st.composite
def covers(draw):
    """A shuffled cover at width 1-32: base terms, terms nested inside them
    (more positions fixed, the base's values kept), and unrelated terms
    that overlap them or not."""
    width = draw(st.integers(1, 32))
    bits = st.integers(0, (1 << width) - 1)

    def term():
        return Ternary(width, draw(bits) & draw(bits), draw(bits))

    bases = [term() for _ in range(draw(st.integers(0, 5)))]
    terms = list(bases)
    for base in bases:
        for _ in range(draw(st.integers(0, 4))):
            terms.append(Ternary(width, base.care | draw(bits), base.value | (draw(bits) & ~base.care)))
    terms += [term() for _ in range(draw(st.integers(0, 6)))]
    return HeaderSpace(width, draw(st.permutations(terms)))


@settings(max_examples=300, deadline=None)
@given(covers())
def test_prop_compact_equals_the_pairwise_scan(space):
    assert space.compact().terms == reference_compact(space).terms


def test_compact_keeps_first_occurrences_of_the_unsubsumed_terms():
    s = HeaderSpace.of("10x", "1xx", "0x1", "011", "1x0", "x11")
    assert str(s.compact()) == "1xx,0x1,x11"
    assert HeaderSpace.of("xxx", "101").compact().terms == (Ternary.parse("xxx"),)
    disjoint = HeaderSpace.of("1x", "01")
    assert disjoint.compact() == disjoint


def test_compact_agrees_with_its_contract_on_every_size():
    """Two and three terms take the pairwise scan, four and more the packed
    scan, here up to 400 terms at widths 16 and 32: each keeps, in
    first-occurrence order, exactly the terms no other term subsumes, and
    returns the space itself when it keeps every term."""

    def unsubsumed(s):
        return tuple(
            t for t in s.terms
            if not any(k != t and t.care & k.care == k.care and t.value & k.care == k.value for k in s.terms)
        )

    rng = random.Random(59)
    spaces = [random_space(rng, width=3, max_terms=6) for _ in range(3000)]
    for width in (16, 32):
        overlapping = {}
        while len(overlapping) < 400:
            t = Ternary(width, rng.getrandbits(width) & rng.getrandbits(width), rng.getrandbits(width))
            overlapping[t] = None
        spaces.append(HeaderSpace(width, list(overlapping)))
        spaces.append(HeaderSpace(width, [Ternary(width, (1 << width) - 16, v << 4) for v in range(400)]))
    sizes = set()
    for s in spaces:
        want = unsubsumed(s)
        got = s.compact()
        assert got.terms == want, s
        assert (got is s) == (want == s.terms)
        sizes.add((s.width, len(s.terms), want == s.terms))
    assert {(3, n, kept) for n in (2, 3, 4) for kept in (True, False)} <= sizes
    assert {(w, 400, kept) for w in (16, 32) for kept in (True, False)} <= sizes


# -- the trusted fast paths: laws at widths 1-32 -----------------------------------


@st.composite
def fields(draw, width):
    """Raw (care, value) integers, not yet normalised to the width."""
    return draw(st.integers(0, (1 << width + 2) - 1)), draw(st.integers(0, (1 << width + 2) - 1))


@st.composite
def term_pairs(draw):
    width = draw(st.integers(1, 32))
    (c1, v1), (c2, v2) = draw(fields(width)), draw(fields(width))
    return Ternary(width, c1, v1), Ternary(width, c2, v2)


def subsumes(k, t):
    return t.care & k.care == k.care and t.value & k.care == k.value


@settings(max_examples=200, deadline=None)
@given(term_pairs())
def test_prop_one_terms_minus_pieces_never_subsume_each_other(pair):
    """What lets ``FlowTable.lookup`` skip compacting a one-term residual."""
    a, b = pair
    pieces = a.minus(b)
    for p in pieces:
        for q in pieces:
            assert p is q or not subsumes(p, q)
    assert HeaderSpace(a.width, pieces).compact().terms == tuple(pieces)
    assert [p.care & ~a.care for p in pieces] == sorted(p.care & ~a.care for p in pieces)  # lowest flip first


@settings(max_examples=200, deadline=None)
@given(term_pairs(), st.integers(0, (1 << 34) - 1), st.integers(0, (1 << 34) - 1))
def test_prop_cached_hash_is_the_field_tuple_hash(pair, mask, value):
    a, b = pair
    rw = Ternary(a.width, mask, value)
    derived = [a, b, Ternary.parse(str(a)), Ternary.wildcard(a.width), a.rewrite(rw), a.restricted_to(mask)]
    derived += a.minus(b) + [t for t in (a.intersect(b),) if t is not None]
    for t in derived:
        assert hash(t) == hash((t.width, t.care, t.value))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32).flatmap(lambda w: st.tuples(st.just(w), st.lists(fields(w), max_size=6))))
def test_prop_trusted_constructors_agree_with_the_public_ones(case):
    width, raw = case
    public = [Ternary(width, care, value) for care, value in raw]
    trusted = [_term(width, t.care, t.value) for t in public]
    assert [(t.width, t.care, t.value, hash(t)) for t in trusted] == [(t.width, t.care, t.value, hash(t)) for t in public]
    assert trusted == public
    repeated = public + public[::2]
    assert _space(width, repeated).terms == HeaderSpace(width, repeated).terms
    assert _space(width, repeated) == HeaderSpace(width, repeated)
