"""Static network description and per-switch flow tables.

The topology document is line oriented::

    headerwidth 16
    switch swA ports 3
    link swA:1 swB:1
    access swA:2 client alice
    location swA eu-west
    field dport 0 3
    nokey mallory

Ports on a switch with ``ports n`` are named "1".."n". Every port must be
either one endpoint of exactly one link or the attachment of exactly one
client, never both and never neither. ``field`` names a bit range of the
header (0 = most significant bit, inclusive bounds). ``nokey`` marks a
client that is physically attached but not enrolled with the verification
service (it holds no key). An error that a line causes starts with
``line N: ``, also one found after the last line.

The line grammar that the topology, scenario and snapshot-dump readers
share lives here too: ``numbered_lines``, the token helpers and
``parse_flowmod``, which reads the rule text ``FlowRule.__str__`` writes.
Its helpers raise bare ValueErrors; each reader adds the line.

A ``Topology`` alone decides whether a rule fits a switch (``check_rule``),
a client exists (``client_aps``) or an endpoint is one of a client's access
points (``access_point_of``), so every reader refuses a mistake alike.

A ``FlowTable`` is an immutable value that memoises its own lookups: the
split of a header space by winning rule is computed once per (table
value, space) and lives as long as the table does. Anyone holding the
same value shares it, as the snapshots of a controller's view do for
every switch that a change left alone; ``add`` and ``remove`` make a new
value that starts without it. A concrete header's rule is found by a
scan of the rules. No module-level cache exists.
"""

from __future__ import annotations

import bisect
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from .hspace import HeaderSpace, Ternary, _space

DEFAULT_WIDTH = 16


class TopologyError(ValueError):
    """Malformed or inconsistent topology document."""


@dataclass(frozen=True)
class AccessPoint:
    switch: str
    port: str
    client: str
    alias: str  # client-scoped name, safe to expose outside the provider

    def key(self) -> tuple[str, str]:
        return (self.switch, self.port)


@dataclass(frozen=True)
class Link:
    a_switch: str
    a_port: str
    b_switch: str
    b_port: str

    @property
    def name(self) -> str:
        return f"{self.a_switch}:{self.a_port}~{self.b_switch}:{self.b_port}"

    def endpoints(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return ((self.a_switch, self.a_port), (self.b_switch, self.b_port))


@dataclass(frozen=True)
class Action:
    """Rule action: forward, rewrite-then-forward, drop, or send to controller.

    A rewrite action's ``rewrite`` is the term whose fixed bits are the
    header positions it writes, fixed to the values it writes there; its
    text is ``<mask>/<value>``, both bit strings most significant first.
    """

    kind: str  # "fwd" | "rewrite" | "drop" | "ctrl"
    ports: tuple[str, ...] = ()
    rewrite: Ternary | None = None

    KINDS = ("fwd", "rewrite", "drop", "ctrl")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("fwd", "rewrite") and not self.ports:
            raise ValueError(f"{self.kind} action needs at least one port")
        if self.kind == "rewrite" and self.rewrite is None:
            raise ValueError("rewrite action needs a rewrite")

    @classmethod
    def parse(cls, text: str) -> "Action":
        if text == "drop":
            return cls("drop")
        if text == "ctrl":
            return cls("ctrl")
        if text.startswith("fwd:"):
            ports = tuple(p for p in text[4:].split(",") if p)
            return cls("fwd", ports)
        if text.startswith("rewrite:"):
            rest = text[len("rewrite:"):]
            try:
                spec, ports_s = rest.rsplit(":", 1)
            except ValueError:
                raise ValueError(f"rewrite action must look like rewrite:<mask>/<value>:<ports>, got {text!r}") from None
            ports = tuple(p for p in ports_s.split(",") if p)
            return cls("rewrite", ports, _parse_rewrite(spec))
        raise ValueError(f"unknown action {text!r}")

    def __str__(self) -> str:
        if self.kind == "fwd":
            return "fwd:" + ",".join(self.ports)
        if self.kind == "rewrite":
            written = str(self.rewrite)
            return f"rewrite:{written.translate(_WRITTEN)}/{written}:" + ",".join(self.ports)
        return self.kind


_WRITTEN = str.maketrans("01x", "110")  # a rewrite term's text to its mask text


def _parse_rewrite(text: str) -> Ternary:
    """The rewrite term of ``<mask>/<value>``; value characters at unmasked
    positions may be 0, 1, x, _ or X and are ignored."""
    try:
        mask_s, value_s = text.split("/")
    except ValueError:
        raise ValueError(f"rewrite must look like <mask>/<value>, got {text!r}") from None
    if len(mask_s) != len(value_s):
        raise ValueError(f"rewrite mask and value widths differ in {text!r}")
    term = []
    for mc, vc in zip(mask_s, value_s):
        if mc == "1":
            if vc not in ("0", "1"):
                raise ValueError(f"masked value bit must be 0 or 1 in {text!r}")
            term.append(vc)
        elif mc == "0":
            if vc not in "01x_X":
                raise ValueError(f"bad value character {vc!r} in {text!r}")
            term.append("x")
        else:
            raise ValueError(f"bad mask character {mc!r} in {text!r}")
    return Ternary.parse("".join(term))


@dataclass(frozen=True)
class FlowRule:
    """One prioritized match-action rule, as an immutable value.

    Equality compares the three fields. The hash is computed once, at
    construction, and the text form on the first ``str()``, so a rule that
    is counted, set-tested and logged many times pays for each only once;
    ``dataclasses.replace`` builds a new rule with its own.
    """

    priority: int
    match: Ternary
    action: Action
    _hash: int = field(init=False, compare=False, repr=False)
    _text: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")
        object.__setattr__(self, "_hash", hash((self.priority, self.match, self.action)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", f"prio={self.priority} match={self.match} action={self.action}")
        return self._text


# -- line grammar shared by the readers (see the module docstring) -----------


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line left with text once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield lineno, line


def key_values(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in out:
            raise ValueError(f"repeated key {k}=")
        out[k] = v
    return out


def check_keys(kv: dict[str, str], keys: tuple[str, ...]) -> None:
    """A ValueError for the first key of ``kv`` outside ``keys``."""
    for k in kv:
        if k not in keys:
            raise ValueError(f"unknown key {k}=")


def number(kind: type, text: str, what: str):
    """``kind(text)`` for ASCII digits, which an int may lead with ``-`` and a
    float may break with one ``.``; a ValueError naming ``what`` for any
    other text, even text that Python's ``int`` or ``float`` would read."""
    digits = text.removeprefix("-") if kind is int else text.replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be a number, got {text!r}")
    return kind(text)


def split_endpoint(text: str) -> tuple[str, str]:
    if ":" not in text:
        raise ValueError(f"expected <switch>:<port>, got {text!r}")
    sw, port = text.split(":", 1)
    return sw, port


FLOWMOD_KEYS = ("prio", "match", "action")


def parse_flowmod(
    tokens: list[str], topo: Topology, parsed: dict[tuple[str, ...], FlowRule]
) -> tuple[str, str, FlowRule]:
    """Parse ``<op> <sw> prio= match= action=`` against ``topo``.

    ``parsed`` maps the tokens after the op to the rule already parsed
    from them, and gains each new rule that parses, so repeated rule text
    is parsed once and yields the same object; the op is checked on every
    line.
    """
    if len(tokens) < 5:
        raise ValueError("flowmod needs op, switch and rule fields")
    op, switch = tokens[0], tokens[1]
    if op not in ("add", "remove"):
        raise ValueError("flowmod op must be add or remove")
    rule_tokens = tuple(tokens[1:])
    if rule_tokens in parsed:
        return op, switch, parsed[rule_tokens]
    kv = key_values(tokens[2:])
    for key in FLOWMOD_KEYS:
        if key not in kv:
            raise ValueError(f"flowmod missing {key}=")
    match = Ternary.parse(kv["match"])
    action = Action.parse(kv["action"])
    rule = FlowRule(priority=number(int, kv["prio"], "prio="), match=match, action=action)
    topo.check_rule(switch, rule)
    check_keys(kv, FLOWMOD_KEYS)
    parsed[rule_tokens] = rule
    return op, switch, rule


@dataclass(frozen=True)
class FlowTable:
    """Prioritized match-action rules of one switch, as an immutable value.

    ``rules`` is in lookup order: descending priority, insertion order
    breaking ties (earlier wins). The constructor trusts the order it is
    given; ``add`` and ``remove`` return new tables and leave this one as
    it is. It memoises its ``lookup`` results by input space, and the
    tables that ``add`` and ``remove`` make start without them. It also
    keeps how many copies of each rule it holds, built on first need for
    a table constructed directly, and derived from the parent's by one
    dict copy for a table that ``add`` or ``remove`` makes, so no presence
    test scans the rules.
    """

    rules: tuple[FlowRule, ...] = ()
    _copies: dict[FlowRule, int] | None = field(default=None, compare=False, repr=False)
    _splits: dict[HeaderSpace, tuple[tuple[FlowRule | None, HeaderSpace], ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def add(self, rule: FlowRule) -> "FlowTable":
        """A table with `rule` after every rule of equal or higher priority."""
        i = bisect.bisect_right(self.rules, -rule.priority, key=lambda r: -r.priority)
        n = self.count(rule)
        copies = self._copies.copy()
        copies[rule] = n + 1
        return FlowTable(self.rules[:i] + (rule,) + self.rules[i:], copies)

    def remove(self, rule: FlowRule) -> "FlowTable":
        """A table without the first rule equal to `rule`; this very table when absent."""
        n = self.count(rule)
        if not n:
            return self
        copies = self._copies.copy()
        if n == 1:
            del copies[rule]
        else:
            copies[rule] = n - 1
        i = self.rules.index(rule)
        return FlowTable(self.rules[:i] + self.rules[i + 1:], copies)

    def count(self, rule: FlowRule) -> int:
        """How many rules equal `rule`, as ``rules.count(rule)`` says, without a scan."""
        if self._copies is None:
            object.__setattr__(self, "_copies", dict(Counter(self.rules)))
        return self._copies.get(rule, 0)

    def match_header(self, header: int) -> FlowRule | None:
        """The first rule, in lookup order, whose match holds `header`; None if none does."""
        for rule in self.rules:
            if header & rule.match.care == rule.match.value:
                return rule
        return None

    def lookup(self, space: HeaderSpace) -> tuple[tuple[FlowRule | None, HeaderSpace], ...]:
        """Split `space` by winning rule, in lookup order.

        Each pair carries the sub-space a rule wins after priority
        shadowing; a trailing (None, residual) pair reports the unmatched
        remainder, which is implicitly dropped. Empty sub-spaces are
        omitted. A repeated lookup of an equal space returns the memoised
        split.

        The split works on terms: a rule wins the meets of its match with
        the residual's terms, and the residual becomes their ``minus``
        pieces, compacted when it had more than one term (one term's
        pieces never subsume each other), exactly the terms that
        ``HeaderSpace.intersect`` and ``difference`` give.
        """
        split = self._splits.get(space)
        if split is not None:
            return split
        width = space.width
        out: list[tuple[FlowRule | None, HeaderSpace]] = []
        residual = space.terms
        for rule in self.rules:
            if not residual:
                break
            match = rule.match
            hit = [t for t in map(match.intersect, residual) if t is not None]
            if not hit:
                continue
            out.append((rule, _space(width, hit)))
            pieces = [p for r in residual for p in r.minus(match)]
            residual = pieces if len(residual) == 1 else _space(width, pieces).compact().terms
        if residual:
            out.append((None, _space(width, residual)))
        split = self._splits[space] = tuple(out)
        return split


@dataclass(frozen=True)
class Topology:
    width: int
    switch_ports: dict[str, tuple[str, ...]]
    links: tuple[Link, ...]
    access_points: tuple[AccessPoint, ...]
    locations: dict[str, str]
    fields: dict[str, tuple[int, int]]
    unkeyed: frozenset[str]
    _peer: dict[tuple[str, str], tuple[str, str]] = field(repr=False, default_factory=dict)
    _ap_at: dict[tuple[str, str], AccessPoint] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for link in self.links:
            (a, b) = link.endpoints()
            self._peer[a] = b
            self._peer[b] = a
        for ap in self.access_points:
            self._ap_at[ap.key()] = ap

    def peer(self, switch: str, port: str) -> tuple[str, str] | None:
        return self._peer.get((switch, port))

    def access_point_at(self, switch: str, port: str) -> AccessPoint | None:
        return self._ap_at.get((switch, port))

    def clients(self) -> list[str]:
        seen = []
        for ap in self.access_points:
            if ap.client not in seen:
                seen.append(ap.client)
        return seen

    def client_aps(self, client: str) -> list[AccessPoint]:
        """The client's access points, in document order; a client with none is unknown."""
        aps = [ap for ap in self.access_points if ap.client == client]
        if not aps:
            raise TopologyError(f"unknown client {client!r}")
        return aps

    def access_point(self, switch: str, port: str) -> AccessPoint:
        """The access point at ``switch:port``; any other endpoint is refused."""
        ap = self._ap_at.get((switch, port))
        if ap is None:
            raise TopologyError(f"{switch}:{port} is not an access point")
        return ap

    def access_point_of(self, client: str, text: str) -> AccessPoint:
        """The access point of ``client`` that ``<switch>:<port>`` names."""
        ap = self._ap_at.get(split_endpoint(text))
        if ap is None or ap.client != client:
            raise TopologyError(f"{text} is not an access point of {client}")
        return ap

    def check_rule(self, switch: str, rule: FlowRule) -> None:
        """Refuse a rule that does not fit ``switch``: its widths or its ports."""
        ports = self.switch_ports.get(switch)
        if ports is None:
            raise TopologyError(f"unknown switch {switch}")
        if rule.match.width != self.width:
            raise TopologyError(f"match width {rule.match.width} != header width {self.width}")
        rewrite = rule.action.rewrite
        if rewrite is not None and rewrite.width != self.width:
            raise TopologyError(f"rewrite width {rewrite.width} != header width {self.width}")
        for p in rule.action.ports:
            if p not in ports:
                raise TopologyError(f"switch {switch} has no port {p}")

    def field_pattern(self, name: str, value: int) -> Ternary:
        """Compile a named-field constraint to a match pattern.

        Field bit ranges come from the topology document (0 = most
        significant bit, inclusive); all other positions stay wildcards.
        """
        if name not in self.fields:
            raise TopologyError(f"unknown field {name!r}")
        start, end = self.fields[name]
        nbits = end - start + 1
        if not (0 <= value < (1 << nbits)):
            raise ValueError(f"value {value} does not fit field {name} ({nbits} bits)")
        shift = self.width - 1 - end
        care = ((1 << nbits) - 1) << shift
        return Ternary(self.width, care, value << shift)

    def path_between(self, src: str, dst: str) -> list[tuple[str, str]] | None:
        """The shortest route src..dst over links (BFS), None if unconnected.

        The route is its (switch, port toward the next switch) hops from
        src up to dst, dst itself left out, so src == dst gives [].
        """
        parent: dict[str, tuple[str, str] | None] = {src: None}
        frontier = [src]
        while frontier and dst not in parent:
            nxt = []
            for sw in frontier:
                for port in self.switch_ports[sw]:
                    peer = self.peer(sw, port)
                    if peer is not None and peer[0] not in parent:
                        parent[peer[0]] = (sw, port)
                        nxt.append(peer[0])
            frontier = nxt
        if dst not in parent:
            return None
        hops = []
        hop = parent[dst]
        while hop is not None:
            hops.append(hop)
            hop = parent[hop[0]]
        hops.reverse()
        return hops


def load_topology(text: str) -> Topology:
    width: int | None = None
    switch_ports: dict[str, tuple[str, ...]] = {}
    link_specs: list[tuple[str, str, str, str, int]] = []
    access_specs: list[tuple[str, str, str, int]] = []
    locations: dict[str, str] = {}
    fields: dict[str, tuple[int, int]] = {}
    unkeyed: dict[str, int] = {}  # client -> its last nokey line
    named_at: dict[tuple[str, str], int] = {}  # ("location" | "field", name) -> the line that last set it

    for lineno, line in numbered_lines(text):
        toks = line.split()
        kw = toks[0]
        try:
            if kw == "headerwidth":
                if len(toks) != 2:
                    raise ValueError("headerwidth takes one argument")
                width = number(int, toks[1], "header width")
                if width < 1:
                    raise ValueError(f"header width must be positive, got {width}")
            elif kw == "switch":
                if len(toks) != 4 or toks[2] != "ports":
                    raise ValueError("expected: switch <id> ports <n>")
                name = toks[1]
                if name in switch_ports:
                    raise ValueError(f"duplicate switch {name}")
                n = number(int, toks[3], "port count")
                if n < 1:
                    raise ValueError(f"switch {name} needs at least one port")
                switch_ports[name] = tuple(str(i) for i in range(1, n + 1))
            elif kw == "link":
                if len(toks) != 3:
                    raise ValueError("expected: link <sw>:<port> <sw>:<port>")
                a_sw, a_p = split_endpoint(toks[1])
                b_sw, b_p = split_endpoint(toks[2])
                link_specs.append((a_sw, a_p, b_sw, b_p, lineno))
            elif kw == "access":
                if len(toks) != 4 or toks[2] != "client":
                    raise ValueError("expected: access <sw>:<port> client <id>")
                sw, p = split_endpoint(toks[1])
                access_specs.append((sw, p, toks[3], lineno))
            elif kw == "location":
                if len(toks) != 3:
                    raise ValueError("expected: location <sw> <region>")
                locations[toks[1]] = toks[2]
                named_at[kw, toks[1]] = lineno
            elif kw == "field":
                if len(toks) != 4:
                    raise ValueError("expected: field <name> <startbit> <endbit>")
                fields[toks[1]] = (number(int, toks[2], "start bit"), number(int, toks[3], "end bit"))
                named_at[kw, toks[1]] = lineno
            elif kw == "nokey":
                if len(toks) != 2:
                    raise ValueError("expected: nokey <client>")
                unkeyed[toks[1]] = lineno
            else:
                raise ValueError(f"unknown directive {kw!r}")
        except ValueError as e:
            raise TopologyError(f"line {lineno}: {e}") from None

    if width is None:
        width = DEFAULT_WIDTH

    taken: dict[tuple[str, str], str] = {}
    links: list[Link] = []
    for a_sw, a_p, b_sw, b_p, lineno in link_specs:
        for sw, p in ((a_sw, a_p), (b_sw, b_p)):
            if sw not in switch_ports:
                raise TopologyError(f"line {lineno}: link references unknown switch {sw}")
            if p not in switch_ports[sw]:
                raise TopologyError(f"line {lineno}: switch {sw} has no port {p}")
        if (a_sw, a_p) == (b_sw, b_p):
            raise TopologyError(f"line {lineno}: link endpoints must differ")
        for sw, p in ((a_sw, a_p), (b_sw, b_p)):
            if (sw, p) in taken:
                raise TopologyError(f"line {lineno}: port {sw}:{p} already used as {taken[(sw, p)]}")
            taken[(sw, p)] = "link endpoint"
        links.append(Link(a_sw, a_p, b_sw, b_p))

    aps: list[AccessPoint] = []
    per_client_count: dict[str, int] = {}
    for sw, p, client, lineno in access_specs:
        if sw not in switch_ports:
            raise TopologyError(f"line {lineno}: access references unknown switch {sw}")
        if p not in switch_ports[sw]:
            raise TopologyError(f"line {lineno}: switch {sw} has no port {p}")
        if (sw, p) in taken:
            raise TopologyError(f"line {lineno}: port {sw}:{p} already used as {taken[(sw, p)]}")
        taken[(sw, p)] = f"access point of {client}"
        n = per_client_count.get(client, 0) + 1
        per_client_count[client] = n
        aps.append(AccessPoint(sw, p, client, f"{client}:ap{n}"))

    for sw, ports in switch_ports.items():
        for p in ports:
            if (sw, p) not in taken:
                raise TopologyError(f"port {sw}:{p} is neither linked nor an access point")

    for sw in locations:
        if sw not in switch_ports:
            raise TopologyError(f"line {named_at['location', sw]}: location references unknown switch {sw}")
    for name, (start, end) in fields.items():
        if not (0 <= start <= end < width):
            lineno = named_at["field", name]
            raise TopologyError(f"line {lineno}: field {name} range {start}..{end} outside width {width}")
    clients = {ap.client for ap in aps}
    for c, lineno in unkeyed.items():
        if c not in clients:
            raise TopologyError(f"line {lineno}: nokey references unknown client {c}")

    return Topology(
        width=width,
        switch_ports=switch_ports,
        links=tuple(links),
        access_points=tuple(aps),
        locations=locations,
        fields=fields,
        unkeyed=frozenset(unkeyed),
    )
