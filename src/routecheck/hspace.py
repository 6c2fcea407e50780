"""Ternary-wildcard sets over fixed-width bit headers.

A term fixes some bit positions and leaves the rest as wildcards; a space
is a finite union of terms. Operations are pure and denotation-exact: the
result denotes exactly the set obtained by applying the corresponding
boolean set operation header by header. Text form is most-significant bit
first, e.g. "1xx0" fixes the outermost bits of a 4-bit header.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class WidthMismatch(ValueError):
    """Operands disagree on header width."""


def _require_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"header width must be positive, got {width}")


class Ternary:
    """A single wildcard term: fixed bits where `care` is set, 'x' elsewhere.

    Bit 0 of the integers corresponds to the last character of the text
    form. `value` is normalized to zero outside `care`.
    """

    __slots__ = ("width", "care", "value")

    def __init__(self, width: int, care: int, value: int):
        _require_width(width)
        full = (1 << width) - 1
        care &= full
        self.width = width
        self.care = care
        self.value = value & care

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
        if (self.value ^ other.value) & (self.care & other.care):
            return None
        return Ternary(self.width, self.care | other.care, self.value | other.value)

    def minus(self, other: "Ternary") -> "list[Ternary]":
        """Set difference self - other as a list of disjoint-from-other terms.

        Standard complement expansion: one term per position where `other`
        is fixed and self is a wildcard, with that single bit flipped.
        """
        if self.intersect(other) is None:
            return [self]
        out = []
        rem = other.care & ~self.care
        for i in range(self.width):
            bit = 1 << i
            if rem & bit:
                out.append(Ternary(self.width, self.care | bit, self.value | (bit & ~other.value)))
        return out

    def rewrite(self, rw: "Rewrite") -> "Ternary":
        """Overwrite masked positions with the rewrite value; keep the rest."""
        if rw.width != self.width:
            raise WidthMismatch(f"width {self.width} vs rewrite width {rw.width}")
        care = self.care | rw.mask
        value = (self.value & ~rw.mask) | (rw.value & rw.mask)
        return Ternary(self.width, care, value)

    def restricted_to(self, positions: int) -> "Ternary":
        """Keep constraints only on the given bit positions (mask of bits)."""
        return Ternary(self.width, self.care & positions, self.value & positions)

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
        return hash((self.width, self.care, self.value))

    def __str__(self) -> str:
        chars = []
        for i in range(self.width - 1, -1, -1):
            if (self.care >> i) & 1:
                chars.append("1" if (self.value >> i) & 1 else "0")
            else:
                chars.append("x")
        return "".join(chars)

    def __repr__(self) -> str:
        return f"Ternary({self})"


def _same_width(a, b) -> None:
    if a.width != b.width:
        raise WidthMismatch(f"width {a.width} vs {b.width}")


class Rewrite:
    """Header rewrite: positions set in `mask` are overwritten with `value` bits."""

    __slots__ = ("width", "mask", "value")

    def __init__(self, width: int, mask: int, value: int):
        _require_width(width)
        full = (1 << width) - 1
        self.width = width
        self.mask = mask & full
        self.value = value & self.mask

    @classmethod
    def parse(cls, text: str) -> "Rewrite":
        """Parse "mask/value" where both are bit strings, MSB first.

        Value characters at unmasked positions may be 0, 1, x or _ and are
        ignored.
        """
        try:
            mask_s, value_s = text.split("/")
        except ValueError:
            raise ValueError(f"rewrite must look like <mask>/<value>, got {text!r}") from None
        if len(mask_s) != len(value_s):
            raise ValueError(f"rewrite mask and value widths differ in {text!r}")
        mask = 0
        value = 0
        for mc, vc in zip(mask_s, value_s):
            mask <<= 1
            value <<= 1
            if mc == "1":
                mask |= 1
                if vc == "1":
                    value |= 1
                elif vc != "0":
                    raise ValueError(f"masked value bit must be 0 or 1 in {text!r}")
            elif mc == "0":
                if vc not in "01x_X":
                    raise ValueError(f"bad value character {vc!r} in {text!r}")
                if vc == "1":
                    value |= 1
            else:
                raise ValueError(f"bad mask character {mc!r} in {text!r}")
        return cls(len(mask_s), mask, value)

    def apply(self, header: int) -> int:
        return (header & ~self.mask) | (self.value & self.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rewrite)
            and self.width == other.width
            and self.mask == other.mask
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.width, self.mask, self.value))

    def __str__(self) -> str:
        mask_s = []
        value_s = []
        for i in range(self.width - 1, -1, -1):
            m = (self.mask >> i) & 1
            mask_s.append("1" if m else "0")
            if m:
                value_s.append("1" if (self.value >> i) & 1 else "0")
            else:
                value_s.append("x")
        return "".join(mask_s) + "/" + "".join(value_s)

    def __repr__(self) -> str:
        return f"Rewrite({self})"


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
    def empty(cls, width: int) -> "HeaderSpace":
        return cls(width, ())

    @classmethod
    def full(cls, width: int) -> "HeaderSpace":
        return cls(width, (Ternary.wildcard(width),))

    @classmethod
    def of(cls, *texts: str) -> "HeaderSpace":
        terms = [Ternary.parse(t) for t in texts]
        if not terms:
            raise ValueError("HeaderSpace.of needs at least one term; use empty()")
        return cls(terms[0].width, terms)

    @classmethod
    def parse(cls, text: str, width: int | None = None) -> "HeaderSpace":
        """Parse a comma-separated term list; "-" or "" denote the empty set."""
        text = text.strip()
        if text in ("", "-"):
            if width is None:
                raise ValueError("empty header space needs an explicit width")
            return cls.empty(width)
        terms = [Ternary.parse(part) for part in text.split(",")]
        w = width if width is not None else terms[0].width
        return cls(w, terms)

    def is_empty(self) -> bool:
        return not self.terms

    def member(self, header: int) -> bool:
        return any(t.matches(header) for t in self.terms)

    __contains__ = member

    def union(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        return HeaderSpace(self.width, self.terms + other.terms)

    def intersect(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        out = []
        for a in self.terms:
            for b in other.terms:
                t = a.intersect(b)
                if t is not None:
                    out.append(t)
        return HeaderSpace(self.width, out)

    def difference(self, other: "HeaderSpace") -> "HeaderSpace":
        _same_width(self, other)
        terms = list(self.terms)
        for b in other.terms:
            terms = [piece for t in terms for piece in t.minus(b)]
            if not terms:
                break
        return HeaderSpace(self.width, terms).compact()

    def compact(self) -> "HeaderSpace":
        """The terms that no other term strictly subsumes, in first-occurrence order.

        Denotation is unchanged. Term k subsumes t when t fixes every
        position that k fixes, to the same value. Two or three terms are
        compared pair by pair. For more, an index maps each fixed position
        to two masks over term indices, the terms fixing it to 0 and those
        fixing it to 1; the terms that k subsumes are the AND of the masks
        at k's fixed positions, and a term is dropped when some other
        term's AND holds it.
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
            return self if len(kept) == n else HeaderSpace(self.width, kept)
        zeros: dict[int, int] = {}  # position bit -> terms fixing it to 0
        ones: dict[int, int] = {}  # position bit -> terms fixing it to 1
        fixed_at: list[list[tuple[dict[int, int], int]]] = []  # per term: (zeros or ones, position) it fixes
        for j, t in enumerate(terms):
            index_bit = 1 << j
            care, value = t.care, t.value
            keys = []
            while care:
                pos = care & -care
                care ^= pos
                fixed = ones if value & pos else zeros
                fixed[pos] = fixed.get(pos, 0) | index_bit
                keys.append((fixed, pos))
            fixed_at.append(keys)
        everyone = (1 << n) - 1
        dropped = 0
        for j, keys in enumerate(fixed_at):
            subsumed = everyone ^ (1 << j)
            for fixed, pos in keys:
                subsumed &= fixed[pos]
                if not subsumed:
                    break
            dropped |= subsumed
        if not dropped:
            return self
        return HeaderSpace(self.width, [t for j, t in enumerate(terms) if not dropped >> j & 1])

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

