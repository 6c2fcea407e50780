"""Versioned configuration snapshots for the verification controller.

The controller builds its network view passively from the per-switch
event stream and actively by polling ground truth at random ticks. The
service returns what it finds, an event's sequence gap or a poll's
disagreements with the view, and the controller makes each a finding. A
poll copies its switch as of that switch's latest event, so a flowmod
numbered at or before it only advances the sequence. Every other flowmod
and every polled switch is numbered as a new version, with the tick at
which it was made; the immutable snapshot of a version, which holds its
number, its tick and the per-switch tables, and no record of whether a
table came from an event or a poll, is built only when ``current()`` is
read, so versions nobody reads cost a counter increment. Each (switch,
rule) presence change is logged when it happens, by a flowmod that adds
the first copy of a rule or removes the last one, or by a poll that
corrects the view; the log and the poll results are kept for a tick
window, so a short-lived rule is detected and attributed however many
versions came after it.

The view holds one immutable ``FlowTable`` per switch, and a change
rebinds it to a new table; a snapshot holds those table values
themselves, and two memos ride on them.

- Each table memoises its own lookup splits (see ``topology``). A switch
  whose table no flowmod or poll replaced keeps the same value, so its
  splits carry over to every later version, whatever changed elsewhere.
- Each snapshot carries ``reach``, the memo in which ``verify`` keeps the
  propagation results it derives from that snapshot. A newly built
  snapshot whose per-switch tables are all the very same values as those
  of the last snapshot built shares that snapshot's memo: a poll that
  confirms the view, a removal of an absent rule or a packet-in leaves
  the content unchanged. A flowmod that changes a table, or a poll that
  corrects the view by adopting the polled table, gives the next snapshot
  built a fresh memo. Sharing is sound because the memo is a function of
  the table values.

Snapshots built outside the service start with an empty reach memo; their
tables bring whatever splits they already hold.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .sim import Network, SwitchEvent
from .topology import FlowRule, FlowTable, Topology, check_keys, key_values, number, numbered_lines, parse_flowmod

DEFAULT_WINDOW = 1024


@dataclass(frozen=True)
class Snapshot:
    """One view version: the per-switch ``FlowTable`` values.

    ``verify`` trusts each table's rule order as lookup order (descending
    priority, earlier insertion first among equals) and does not re-sort
    it.
    """

    version: int
    tick: int
    tables: dict[str, FlowTable]
    # verify's memo: (access point, header space) -> propagation result
    reach: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class PollRecord:
    tick: int
    switch: str
    rules: tuple[FlowRule, ...]


@dataclass(frozen=True)
class TransientFinding:
    switch: str
    rule: FlowRule
    first_seen: int
    last_seen: int
    present_in: int  # number of polls that observed the rule
    status: str  # "appeared" | "vanished" | "reordered" | "flapping"

    def line(self) -> str:
        return (
            f"sw={self.switch} status={self.status} first_seen={self.first_seen} "
            f"last_seen={self.last_seen} polls={self.present_in} rule[{self.rule}]"
        )


def poll_ticks(seed: int | str, rate: float) -> Iterator[int]:
    """Endless poll ticks with memoryless (geometric) inter-arrival gaps, mean 1/rate.

    Deterministic per seed; the memoryless distribution maximizes the
    adversary's uncertainty about the next poll given the past.
    """
    if not rate > 0:  # NaN fails this too
        raise ValueError(f"poll rate must be positive, got {rate}")
    if rate >= 1.0:
        return itertools.count(1)
    scale = math.log(1.0 - rate)
    if not scale:  # below about 1e-16 no gap can be drawn
        raise ValueError(f"poll rate {rate} is too small: 1 - rate rounds to 1")
    rng = random.Random(f"{seed}:polls")
    return itertools.accumulate(1 + int(math.log(1.0 - rng.random()) / scale) for _ in itertools.count())


def schedule_polls(seed: int | str, rate: float, horizon: int) -> list[int]:
    """The ticks of ``poll_ticks`` up to and including ``horizon``."""
    return list(itertools.takewhile(lambda t: t <= horizon, poll_ticks(seed, rate)))


class SnapshotService:
    """Single-writer view builder; snapshots it hands out are immutable."""

    def __init__(self, topo: Topology, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"transient window must be positive, got {window}")
        self.topo = topo
        self.window = window
        self._tables: dict[str, FlowTable] = {sw: FlowTable() for sw in topo.switch_ports}
        self._last_seq: dict[str, int] = {sw: 0 for sw in topo.switch_ports}
        # per switch, the seq of the latest event its last poll reflects
        self._polled_seq: dict[str, int] = {sw: 0 for sw in topo.switch_ports}
        self._version = 0
        self._tick = 0
        self._version_tick = 0  # tick of the latest version
        self._built: Snapshot | None = None  # the last snapshot current() built
        # (tick, switch, rule, tick of the version before the change)
        self.changes: deque[tuple[int, str, FlowRule, int]] = deque()
        self.polls: deque[PollRecord] = deque()
        self._new_version()

    # -- internals -----------------------------------------------------

    def _new_version(self) -> None:
        self._version += 1
        self._version_tick = self._tick

    def _record(self, switch: str, rule: FlowRule) -> None:
        """Log a presence change that the next version makes."""
        self.changes.append((self._tick, switch, rule, self._version_tick))
        cutoff = self._tick - self.window
        while self.changes and self.changes[0][0] < cutoff:
            self.changes.popleft()

    # -- operations ------------------------------------------------------

    def ingest_event(self, event: SwitchEvent) -> int | None:
        """Fold one switch event into the view; the expected sequence
        number if the event skipped some (a gap), else None.

        A missed update is itself a security signal: the caller reports it
        and re-reads the switch. A flowmod that the switch's latest poll
        already reflects only advances the sequence.
        """
        sw = event.switch
        if sw not in self._tables:
            raise ValueError(f"event from unknown switch {sw}")
        expected = self._last_seq[sw] + 1
        self._last_seq[sw] = event.seq
        self._tick = max(self._tick, event.tick)
        if event.kind == "flowmod" and event.seq > self._polled_seq[sw]:
            rule, old = event.rule, self._tables[sw]
            if event.op == "add":
                self._tables[sw] = old.add(rule)
                if not old.count(rule):
                    self._record(sw, rule)
            elif not event.noop and (new := old.remove(rule)) is not old:
                self._tables[sw] = new
                if not new.count(rule):
                    self._record(sw, rule)
            self._new_version()
        return expected if event.seq != expected else None

    def active_poll(self, switch: str, net: Network) -> list[tuple[str, str, FlowRule]]:
        """Copy ground truth for one switch at the current tick, up to its
        latest event; the (switch, status, rule) of each disagreement.

        A rule present on the switch but not in the view has appeared, the
        reverse has vanished, and one in both at another place among the
        rules both hold, or in another number of copies, is reordered. The
        view is corrected to the polled truth.
        """
        if switch not in self._tables:
            raise ValueError(f"unknown switch {switch}")
        polled = net.tables[switch]
        truth = polled.rules
        self._polled_seq[switch] = net.seq[switch]
        self._tick = max(self._tick, net.tick)
        passive = self._tables[switch].rules
        found = []
        if truth != passive:
            truth_set, passive_set = set(truth), set(passive)
            appeared = [rule for rule in truth if rule not in passive_set]
            vanished = [rule for rule in passive if rule not in truth_set]
            kept_truth = [r for r in truth if r in passive_set]
            kept_view = [r for r in passive if r in truth_set]
            reordered = dict.fromkeys(a or b for a, b in itertools.zip_longest(kept_truth, kept_view) if a != b)
            for status, rules in (("appeared", appeared), ("vanished", vanished), ("reordered", reordered)):
                found += [(switch, status, rule) for rule in rules]
            for rule in dict.fromkeys(appeared + vanished):
                self._record(switch, rule)
            self._tables[switch] = polled
        self.polls.append(PollRecord(net.tick, switch, truth))
        while self.polls and self.polls[0].tick < self._tick - self.window:
            self.polls.popleft()
        self._new_version()
        return found

    def poll_all(self, net: Network) -> list[tuple[str, str, FlowRule]]:
        return [found for sw in self.topo.switch_ports for found in self.active_poll(sw, net)]

    def current(self) -> Snapshot:
        """The snapshot of the latest version, built on this first read of it.

        It shares the reach memo of the last snapshot built before it when
        every per-switch table is the very same value.
        """
        prev = self._built
        if prev is None or prev.version != self._version:
            tables = dict(self._tables)
            unchanged = prev is not None and all(table is prev.tables[sw] for sw, table in tables.items())
            self._built = Snapshot(self._version, self._version_tick, tables, prev.reach if unchanged else {})
        return self._built

    def last_seq(self, switch: str) -> int:
        return self._last_seq[switch]

    def detect_transients(self) -> list[TransientFinding]:
        """Report rules that both appeared and disappeared within the window.

        Reads the change log: a rule that changed presence at least twice
        in the window is reported. Rules that stay once installed (or were
        always there) are stable and not reported. A single appear/vanish
        episode that ends absent is "vanished"; anything with more state
        changes is "flapping". ``first_seen`` is the first appearance, or
        the window start for a rule present when the window opened;
        ``last_seen`` is the latest version's tick for a rule still
        present, else the tick of the last version that held it.
        ``present_in`` counts the in-window polls of that switch that
        observed the rule. The window is the service's own.
        """
        cutoff = self._tick - self.window
        per_rule: dict[tuple[str, FlowRule], list[tuple[int, int]]] = {}  # (tick, previous version's tick)
        for tick, sw, rule, prev_tick in self.changes:
            if tick >= cutoff:
                per_rule.setdefault((sw, rule), []).append((tick, prev_tick))
        findings: list[TransientFinding] = []
        for (sw, rule), ticks in sorted(per_rule.items(), key=lambda item: item[0][0]):
            if len(ticks) < 2:
                continue
            at_end = self._tables[sw].count(rule) > 0
            at_start = at_end != (len(ticks) % 2 == 1)
            polls_seen = sum(1 for p in self.polls if p.switch == sw and p.tick >= cutoff and rule in p.rules)
            findings.append(
                TransientFinding(
                    switch=sw,
                    rule=rule,
                    first_seen=max(cutoff, 0) if at_start else ticks[0][0],
                    last_seen=self._version_tick if at_end else ticks[-1][1],
                    present_in=polls_seen,
                    status="vanished" if not (at_end or at_start) and len(ticks) == 2 else "flapping",
                )
            )
        return findings


# -- snapshot text export ------------------------------------------------


def export_snapshot(snap: Snapshot) -> str:
    """Dump a snapshot as text; rule lines reuse the flowmod grammar."""
    lines = [f"version={snap.version} tick={snap.tick}"]
    for sw in sorted(snap.tables):
        for rule in snap.tables[sw].rules:
            lines.append(f"flowmod add {sw} {rule}")
    return "\n".join(lines) + "\n"


def parse_snapshot_dump(text: str, topo: Topology) -> Snapshot:
    version = 0
    tick = 0
    tables: dict[str, FlowTable] = {sw: FlowTable() for sw in topo.switch_ports}
    parsed: dict[tuple[str, ...], FlowRule] = {}
    for lineno, line in numbered_lines(text):
        toks = line.split()
        try:
            if toks[0].startswith("version="):
                kv = key_values(toks)
                version = number(int, kv.get("version", "0"), "version=")
                tick = number(int, kv.get("tick", "0"), "tick=")
                check_keys(kv, ("version", "tick"))
            elif toks[0] == "flowmod":
                op, switch, rule = parse_flowmod(toks[1:], topo, parsed)
                if op != "add":
                    raise ValueError("snapshot dumps contain only add lines")
                tables[switch] = tables[switch].add(rule)
            else:
                raise ValueError(f"unexpected snapshot line {line!r}")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return Snapshot(version=version, tick=tick, tables=tables)


def snapshot_of(net: Network, version: int = 0) -> Snapshot:
    """A snapshot taken directly from simulator state (test/tool helper)."""
    return Snapshot(version=version, tick=net.tick, tables=dict(net.tables))
