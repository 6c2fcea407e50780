"""Versioned configuration snapshots for the verification controller.

The controller builds its network view passively from the per-switch
event stream and actively by polling ground truth at random ticks. Every
view change appends an immutable snapshot to a bounded history; poll
results are additionally retained for a tick window so short-lived rule
changes can be detected and attributed.

Each snapshot carries ``reach``, the memo in which ``verify`` keeps the
flow tables and propagation results it derives from that snapshot. A new
snapshot whose per-switch rule tuples are all the very same objects as
its predecessor's (``FlowTable.rules`` returns one tuple until the table
changes) shares the predecessor's memo: a poll that confirms the view or
a packet-in leaves the content unchanged. A flowmod that changes a table,
or a poll that corrects the view, gives the new snapshot a fresh memo.
Snapshots built outside the service start with an empty memo.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .sim import Network, SwitchEvent
from .topology import FlowRule, FlowTable, Topology

DEFAULT_HISTORY = 256
DEFAULT_WINDOW = 1024


class GapDetected(Exception):
    """A switch event arrived out of sequence: an update was missed."""

    def __init__(self, switch: str, expected: int, got: int):
        super().__init__(f"event gap at {switch}: expected seq {expected}, got {got}")
        self.switch = switch
        self.expected = expected
        self.got = got


@dataclass(frozen=True)
class Provenance:
    kind: str  # "passive" | "polled"
    ref: int  # passive: last event seq; polled: poll tick


@dataclass(frozen=True)
class Snapshot:
    version: int
    tick: int
    tables: dict[str, tuple[FlowRule, ...]]
    provenance: dict[str, Provenance]
    reach: dict = field(default_factory=dict, compare=False, repr=False)  # verify's memo


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
    status: str  # "appeared" | "vanished" | "flapping"

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
    if rate <= 0:
        raise ValueError(f"poll rate must be positive, got {rate}")
    if rate >= 1.0:
        return itertools.count(1)
    rng = random.Random(f"{seed}:polls")
    scale = math.log(1.0 - rate)
    return itertools.accumulate(1 + int(math.log(1.0 - rng.random()) / scale) for _ in itertools.count())


def schedule_polls(seed: int | str, rate: float, horizon: int) -> list[int]:
    """The ticks of ``poll_ticks`` up to and including ``horizon``."""
    return list(itertools.takewhile(lambda t: t <= horizon, poll_ticks(seed, rate)))


class SnapshotService:
    """Single-writer view builder; snapshots it hands out are immutable."""

    def __init__(self, topo: Topology, history: int = DEFAULT_HISTORY, window: int = DEFAULT_WINDOW):
        self.topo = topo
        self.window = window
        self._tables: dict[str, FlowTable] = {sw: FlowTable(sw) for sw in topo.switch_ports}
        self._last_seq: dict[str, int] = {sw: 0 for sw in topo.switch_ports}
        self._provenance: dict[str, Provenance] = {sw: Provenance("passive", 0) for sw in topo.switch_ports}
        self._version = 0
        self._tick = 0
        self.ring: deque[Snapshot] = deque(maxlen=history)
        self.polls: list[PollRecord] = []
        self.poll_findings: list[TransientFinding] = []
        self._append_snapshot()

    # -- internals -----------------------------------------------------

    def _append_snapshot(self) -> int:
        self._version += 1
        tables = {sw: t.rules for sw, t in self._tables.items()}
        prev = self.ring[-1] if self.ring else None
        unchanged = prev is not None and all(rules is prev.tables[sw] for sw, rules in tables.items())
        snap = Snapshot(
            version=self._version,
            tick=self._tick,
            tables=tables,
            provenance=dict(self._provenance),
            reach=prev.reach if unchanged else {},
        )
        self.ring.append(snap)
        return self._version

    def _prune_polls(self) -> None:
        cutoff = self._tick - self.window
        self.polls = [p for p in self.polls if p.tick >= cutoff]

    # -- operations ------------------------------------------------------

    def ingest_event(self, event: SwitchEvent) -> int:
        """Fold one switch event into the view; returns the snapshot version.

        A sequence gap raises GapDetected: a missed update is itself a
        security signal and is never silently repaired here. Callers that
        choose to continue must resync() explicitly.
        """
        sw = event.switch
        if sw not in self._tables:
            raise ValueError(f"event from unknown switch {sw}")
        expected = self._last_seq[sw] + 1
        if event.seq != expected:
            raise GapDetected(sw, expected, event.seq)
        self._last_seq[sw] = event.seq
        self._tick = max(self._tick, event.tick)
        self._provenance[sw] = Provenance("passive", event.seq)
        if event.kind == "flowmod":
            if event.op == "add":
                self._tables[sw].add(event.rule)
            elif not event.noop:
                self._tables[sw].remove(event.rule)
            return self._append_snapshot()
        # packet_in / port_status advance the sequence but not the view
        return self._version

    def resync(self, switch: str, seq: int) -> None:
        """Accept a post-gap sequence position (after the gap was recorded)."""
        self._last_seq[switch] = seq

    def active_poll(self, switch: str, net: Network) -> int:
        """Copy ground truth for one switch at the current tick.

        Any disagreement with the passive view becomes a TransientFinding
        (appeared: present on the switch but not in the view; vanished:
        the reverse) appended to ``poll_findings``, and the view is
        corrected to the polled truth.
        """
        if switch not in self._tables:
            raise ValueError(f"unknown switch {switch}")
        truth = net.tables[switch].rules
        tick = net.tick
        self._tick = max(self._tick, tick)
        passive = self._tables[switch].rules
        truth_set = set(truth)
        passive_set = set(passive)
        for rule in truth:
            if rule not in passive_set:
                self.poll_findings.append(TransientFinding(switch, rule, tick, tick, 1, "appeared"))
        for rule in passive:
            if rule not in truth_set:
                self.poll_findings.append(TransientFinding(switch, rule, tick, tick, 0, "vanished"))
        if truth != passive:
            table = FlowTable(switch)
            for rule in truth:
                table.add(rule)
            self._tables[switch] = table
        self._provenance[switch] = Provenance("polled", tick)
        self.polls.append(PollRecord(tick, switch, truth))
        self._prune_polls()
        return self._append_snapshot()

    def poll_all(self, net: Network) -> int:
        version = self._version
        for sw in self.topo.switch_ports:
            version = self.active_poll(sw, net)
        return version

    def current(self) -> Snapshot:
        return self.ring[-1]

    def last_seq(self, switch: str) -> int:
        return self._last_seq[switch]

    def detect_transients(self, window: int | None = None) -> list[TransientFinding]:
        """Report rules that both appeared and disappeared within the window.

        Rules that stay once installed (or were always there) are stable
        and not reported. A single appear/vanish episode that ends absent
        is "vanished"; anything with more state changes is "flapping".
        ``present_in`` counts the in-window polls of that switch that
        observed the rule.
        """
        w = self.window if window is None else window
        cutoff = self._tick - w
        snaps = [s for s in self.ring if s.tick >= cutoff]
        if not snaps:
            return []
        findings: list[TransientFinding] = []
        for sw in sorted(self.topo.switch_ports):
            universe: list[FlowRule] = []
            for s in snaps:
                for rule in s.tables[sw]:
                    if rule not in universe:
                        universe.append(rule)
            for rule in universe:
                timeline = [rule in s.tables[sw] for s in snaps]
                changes = sum(1 for a, b in zip(timeline, timeline[1:]) if a != b)
                if changes < 2:
                    continue
                ticks_present = [s.tick for s, p in zip(snaps, timeline) if p]
                polls_seen = sum(
                    1 for p in self.polls if p.switch == sw and p.tick >= cutoff and rule in p.rules
                )
                status = "vanished" if (not timeline[-1] and changes == 2 and not timeline[0]) else "flapping"
                findings.append(
                    TransientFinding(
                        switch=sw,
                        rule=rule,
                        first_seen=min(ticks_present),
                        last_seen=max(ticks_present),
                        present_in=polls_seen,
                        status=status,
                    )
                )
        return findings


# -- snapshot text export ------------------------------------------------


def export_snapshot(snap: Snapshot) -> str:
    """Dump a snapshot as text; rule lines reuse the flowmod grammar."""
    lines = [f"version={snap.version} tick={snap.tick}"]
    for sw in sorted(snap.tables):
        for rule in snap.tables[sw]:
            lines.append(f"flowmod add {sw} prio={rule.priority} match={rule.match} action={rule.action}")
    return "\n".join(lines) + "\n"


def parse_snapshot_dump(text: str, topo: Topology) -> Snapshot:
    from .scenario import _parse_flowmod  # shared grammar

    version = 0
    tick = 0
    tables: dict[str, FlowTable] = {sw: FlowTable(sw) for sw in topo.switch_ports}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0].startswith("version="):
            kv = dict(t.split("=", 1) for t in toks)
            version = int(kv.get("version", "0"))
            tick = int(kv.get("tick", "0"))
        elif toks[0] == "flowmod":
            op, switch, rule = _parse_flowmod(toks[1:], topo, lineno)
            if op != "add":
                raise ValueError(f"line {lineno}: snapshot dumps contain only add lines")
            tables[switch].add(rule)
        else:
            raise ValueError(f"line {lineno}: unexpected snapshot line {line!r}")
    return Snapshot(
        version=version,
        tick=tick,
        tables={sw: t.rules for sw, t in tables.items()},
        provenance={sw: Provenance("passive", 0) for sw in topo.switch_ports},
    )


def snapshot_of(net: Network, version: int = 0) -> Snapshot:
    """A snapshot taken directly from simulator state (test/tool helper)."""
    return Snapshot(
        version=version,
        tick=net.tick,
        tables=net.snapshot_tables(),
        provenance={sw: Provenance("polled", net.tick) for sw in net.topo.switch_ports},
    )
