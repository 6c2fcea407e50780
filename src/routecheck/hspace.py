"""Ternary-wildcard sets over fixed-width bit headers.

A term fixes some bit positions and leaves the rest as wildcards; a space
is a finite union of terms. Operations are pure and denotation-exact: the
result denotes exactly the set obtained by applying the corresponding
boolean set operation header by header. Text form is most-significant bit
first, e.g. "1xx0" fixes the outermost bits of a 4-bit header. A header
rewrite is a term too: its fixed bits are the positions it writes and the
values it writes there (``Ternary.rewrite`` and ``Ternary.apply``).

Widths are checked at the public boundary. The ``Ternary`` constructor
rejects a non-positive width and masks its fields to it, the
``HeaderSpace`` constructor also checks every term's width, every binary
operation checks that its operands agree, and
``verify.reachable_endpoints`` checks the caller's space against the
topology's width. A result derived from checked operands needs no check
again: the module's own operations, ``topology.FlowTable.lookup`` and
``verify._propagate`` build their terms and spaces with the trusted
constructors ``_term`` and ``_space``, which take their fields as given
(``_space`` still drops repeated terms). A term's hash is computed once,
when it is built.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class WidthMismatch(ValueError):
    """Operands disagree on header width."""


def _require_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"header width must be positive, got {width}")


_TERM_TEXT = str.maketrans("023", "x01")  # a bit's hex digit 2*care + value -> its character


class Ternary:
    """A single wildcard term: fixed bits where `care` is set, 'x' elsewhere.

    Bit 0 of the integers corresponds to the last character of the text
    form. `value` is normalized to zero outside `care`.
    """

    __slots__ = ("width", "care", "value", "_hash")

    def __init__(self, width: int, care: int, value: int):
        _require_width(width)
        care &= (1 << width) - 1
        value &= care
        self.width = width
        self.care = care
        self.value = value
        self._hash = hash((width, care, value))

    @classmethod
    def parse(cls, text: str) -> "Ternary":
        _require_width(len(text))
        care = 0
        value = 0
        for ch in text:
            care <<= 1
            value <<= 1
            if ch == "1":
                care |= 1
                value |= 1
            elif ch == "0":
                care |= 1
            elif ch not in ("x", "X"):
                raise ValueError(f"bad ternary character {ch!r} in {text!r}")
        return cls(len(text), care, value)

    @classmethod
    def wildcard(cls, width: int) -> "Ternary":
        return cls(width, 0, 0)

    def matches(self, header: int) -> bool:
        return (header & self.care) == self.value

    def intersect(self, other: "Ternary") -> "Ternary | None":
        """Bitwise meet; None when fixed bits conflict (empty set)."""
        _same_width(self, other)
        if (self.value ^ other.value) & self.care & other.care:
            return None
        return _term(self.width, self.care | other.care, self.value | other.value)

    def minus(self, other: "Ternary") -> "list[Ternary]":
        """Set difference self - other as a list of disjoint-from-other terms.

        Standard complement expansion: one term per position where `other`
        is fixed and self is a wildcard, with that single bit flipped,
        lowest position first. No piece subsumes another: each fixes its
        own flipped position, which the others leave free.
        """
        _same_width(self, other)
        width, care, value = self.width, self.care, self.value
        if (value ^ other.value) & care & other.care:
            return [self]
        flipped = ~other.value
        out = []
        rem = other.care & ~care
        while rem:
            bit = rem & -rem
            rem ^= bit
            out.append(_term(width, care | bit, value | (bit & flipped)))
        return out

    def rewrite(self, rw: "Ternary") -> "Ternary":
        """The image under a rewrite: `rw`'s fixed bits overwrite these; the rest stay."""
        _same_width(self, rw)
        return _term(self.width, self.care | rw.care, (self.value & ~rw.care) | rw.value)

    def apply(self, header: int) -> int:
        """`header` with this term's fixed bits written into it, as a rewrite does."""
        return (header & ~self.care) | self.value

    def restricted_to(self, positions: int) -> "Ternary":
        """Keep constraints only on the given bit positions (mask of bits)."""
        return _term(self.width, self.care & positions, self.value & positions)

    def headers(self) -> Iterator[int]:
        """All concrete headers matching this term, ascending."""
        free = [i for i in range(self.width) if not (self.care >> i) & 1]
        for combo in range(1 << len(free)):
            h = self.value
            for j, pos in enumerate(free):
                if (combo >> j) & 1:
                    h |= 1 << pos
            yield h

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ternary)
            and self.width == other.width
            and self.care == other.care
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # Read the binary digits of care and value as hex, so each bit of the
        # term becomes one hex digit 2*care + value (0, 2 or 3), then name them.
        digits = int(bin(self.care)[2:], 16) * 2 + int(bin(self.value)[2:], 16)
        return ("%0*x" % (self.width, digits)).translate(_TERM_TEXT)

    def __repr__(self) -> str:
        return f"Ternary({self})"


def _term(width: int, care: int, value: int, _new=object.__new__) -> Ternary:
    """A term from fields the caller guarantees: `width` positive, `care`
    within it and `value` within `care`."""
    t = _new(Ternary)
    t.width = width
    t.care = care
    t.value = value
    t._hash = hash((width, care, value))
    return t


def _same_width(a, b) -> None:
    if a.width != b.width:
        raise WidthMismatch(f"width {a.width} vs {b.width}")


class HeaderSpace:
    """A finite union of ternary terms over one header width."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: Sequence[Ternary] = ()):
        _require_width(width)
        unique = tuple(dict.fromkeys(terms))  # first occurrences, in order
        for t in unique:
            if t.width != width:
                raise WidthMismatch(f"term width {t.width} in space of width {width}")
        self.width = width
        self.terms = unique

    @classmethod
    def full(cls, width: int) -> "HeaderSpace":
        return cls(width, (Ternary.wildcard(width),))

    @classmethod
    def of(cls, *texts: str) -> "HeaderSpace":
        terms = [Ternary.parse(t) for t in texts]
        if not terms:
            raise ValueError("HeaderSpace.of needs at least one term; use HeaderSpace(width)")
        return cls(terms[0].width, terms)

    def is_empty(self) -> bool:
        return not self.terms

    def member(self, header: int) -> bool:
        return any(t.matches(header) for t in self.terms)

    def union(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        return _space(self.width, self.terms + other.terms)

    def intersect(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        out = []
        for a in self.terms:
            for b in other.terms:
                t = a.intersect(b)
                if t is not None:
                    out.append(t)
        return _space(self.width, out)

    def difference(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        terms = list(self.terms)
        for b in other.terms:
            terms = [piece for t in terms for piece in t.minus(b)]
            if not terms:
                break
        return _space(self.width, terms).compact()

    def compact(self) -> "HeaderSpace":
        """The terms that no other term strictly subsumes, in first-occurrence order.

        Denotation is unchanged, and a space with nothing to drop is
        returned as is. Term k subsumes t when t fixes every position that
        k fixes, to the same value. Two or three terms are compared pair
        by pair. From four terms on, every term's care and value masks are
        packed into one integer each, term j in the (width + 1)-bit slot j,
        so a few integer operations compare a term with all the others:
        slot k of ``bad`` is zero exactly when term k subsumes t, and the
        spare top bit of each slot finds the zero slots. Those operations
        grow with the space, so the scan is quadratic in its size.
        """
        terms = self.terms
        n = len(terms)
        if n < 2:
            return self
        if n <= 3:
            kept = [
                t for t in terms
                if not any(k is not t and t.care & k.care == k.care and t.value & k.care == k.value for k in terms)
            ]
        else:
            width = self.width
            step = width + 1
            full = (1 << width) - 1
            cares = values = 0
            for t in reversed(terms):
                cares = cares << step | t.care
                values = values << step | t.value
            lows = ((1 << n * step) - 1) // ((1 << step) - 1)  # bit 0 of every slot
            tops = lows << width  # the spare top bit of every slot
            own = 1 << width  # t's own top bit; t always subsumes itself
            kept = []
            for t in terms:
                bad = cares & (values ^ t.value * lows | (full ^ t.care) * lows)
                if ((bad | tops) - lows) & tops | own == tops:
                    kept.append(t)
                own <<= step
        return self if len(kept) == n else _space(self.width, kept)

    def denote(self) -> frozenset[int]:
        """The concrete header set; only sensible at small widths."""
        return frozenset(h for t in self.terms for h in t.headers())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeaderSpace)
            and self.width == other.width
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.width, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "-"
        return ",".join(str(t) for t in self.terms)

    def __repr__(self) -> str:
        return f"HeaderSpace({self})"


def _space(width: int, terms: Sequence[Ternary], _new=object.__new__) -> HeaderSpace:
    """A space of `width` from terms the caller guarantees have that width;
    repeated terms are dropped, first occurrences kept in order."""
    s = _new(HeaderSpace)
    s.width = width
    s.terms = tuple(dict.fromkeys(terms)) if len(terms) > 1 else tuple(terms)
    return s
