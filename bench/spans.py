"""In-memory span tracer that wraps routecheck's public functions from outside.

Nothing in ``src/`` knows about it: ``Tracer.install`` replaces module
functions and class methods with wrappers that record one span per call
(name, start, end, parent) in flat arrays, and ``uninstall`` puts the
originals back. A layer's self time is its spans' durations minus the
time their direct children cover. Counters that need a call's result
(terms returned, lookup pieces, parse errors) are taken in the same
wrappers, where the work happens.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass


def _terms(space) -> int:
    return len(space.terms)


def _answer_terms(result) -> int:
    return sum(len(e.sent.terms) + len(e.arriving.terms) for e in result.entries)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives, its span name, and an optional
    (counter, function of the result) pair."""

    owner: str  # "module" or "module:Class"
    attr: str
    span: str
    measure: tuple[str, object] | None = None


def _targets() -> list[Target]:
    t = Target
    return [
        # hspace
        t("routecheck.hspace:HeaderSpace", "difference", "hspace.difference", ("hspace.terms_out", _terms)),
        t("routecheck.hspace:HeaderSpace", "intersect", "hspace.intersect", ("hspace.terms_out", _terms)),
        t("routecheck.hspace:HeaderSpace", "compact", "hspace.compact", ("hspace.terms_out", _terms)),
        t("routecheck.hspace:HeaderSpace", "union", "hspace.union", ("hspace.terms_out", _terms)),
        # topology
        t("routecheck.topology", "load_topology", "topology.load_topology"),
        t("routecheck.topology:FlowTable", "lookup", "topology.lookup", ("topology.lookup.pieces", len)),
        t("routecheck.topology:FlowTable", "match_header", "topology.match_header"),
        # verify
        t("routecheck.verify", "reachable_endpoints", "verify.reachable_endpoints", ("verify.answer_terms", _answer_terms)),
        t("routecheck.verify", "reachable_sources", "verify.reachable_sources"),
        t("routecheck.verify", "isolation_candidates", "verify.isolation_candidates"),
        t("routecheck.verify", "geo_exposure", "verify.geo_exposure"),
        t("routecheck.verify", "transfer_summary", "verify.transfer_summary"),
        # snapshots
        t("routecheck.snapshots:SnapshotService", "ingest_event", "snapshots.ingest_event"),
        t("routecheck.snapshots:SnapshotService", "active_poll", "snapshots.active_poll"),
        t("routecheck.snapshots:SnapshotService", "poll_all", "snapshots.poll_all"),
        t("routecheck.snapshots:SnapshotService", "detect_transients", "snapshots.detect_transients"),
        t("routecheck.snapshots", "export_snapshot", "snapshots.export_snapshot"),
        # sim
        t("routecheck.sim:Network", "apply_flow_mod", "sim.apply_flow_mod"),
        t("routecheck.sim:Network", "inject", "sim.inject", ("sim.traces", len)),
        t("routecheck.sim:Network", "packet_out", "sim.packet_out"),
        # scenario
        t("routecheck.scenario", "parse_scenario", "scenario.parse_scenario"),
        t("routecheck.scenario", "expand", "scenario.expand", ("scenario.directives", len)),
        t("routecheck.scenario", "run_scenario", "scenario.run_scenario"),
        # protocol
        t("routecheck.protocol:Controller", "intercept", "protocol.intercept"),
        t("routecheck.protocol:Controller", "on_events", "protocol.on_events"),
        t("routecheck.protocol:Controller", "on_tick", "protocol.on_tick"),
        t("routecheck.protocol:Controller", "finish", "protocol.finish"),
        t("routecheck.protocol:ClientAgent", "make_query", "protocol.agent.make_query"),
        t("routecheck.protocol:ClientAgent", "on_delivery", "protocol.agent.on_delivery"),
        # keys
        t("routecheck.keys", "seal", "keys.seal"),
        t("routecheck.keys:SealKeyPair", "unseal", "keys.unseal"),
        t("routecheck.keys:SigningKey", "sign", "keys.sign"),
        t("routecheck.keys:VerifyKey", "verify", "keys.verify"),
        t("routecheck.keys:KeyRegistry", "provision", "keys.provision"),
        # wire
        t("routecheck.wire", "parse_frame", "wire.parse_frame"),
        # service
        t("routecheck.service", "load_run_inputs", "service.load_run_inputs"),
        t("routecheck.service", "run_session", "service.run_session"),
    ]


class Tracer:
    """Records spans while installed; one tracer per traced session."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self.peaks: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span: str, measure):
        nid = len(self.names)
        self.names.append(span)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        counts, peaks, clock = self.counts, self.peaks, time.perf_counter
        errors = span + ".errors"
        key, of = measure if measure else (None, None)

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end[idx] = clock()
                stack.pop()
                counts[errors] += 1
                raise
            end[idx] = clock()
            stack.pop()
            if key is not None:
                n = of(result)
                counts[key] += n
                if n > peaks[key]:
                    peaks[key] = n
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "routecheck" or n.startswith("routecheck.")]
        for target in _targets():
            mod_name, _, cls_name = target.owner.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target.span, target.measure))
                else:
                    wrapped = self._wrap(raw, target.span, target.measure)
                self._patch(cls, target.attr, raw, wrapped)
                continue
            fn = getattr(mod, target.attr)
            wrapped = self._wrap(fn, target.span, target.measure)
            # rebind every `from .x import name` copy, so internal calls are traced too
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, fn, wrapped)

    def _patch(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, tuple[int, float]], float]:
        """Per span name (calls, self seconds), plus the root spans' total duration."""
        n = len(self.start)
        if self._stack:
            raise RuntimeError("spans still open")
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        root = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                covered[p] += dur
            else:
                root += dur
        out: dict[str, list] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.name[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += end[i] - start[i] - covered[i]
        return {k: (c, s) for k, (c, s) in out.items()}, root

    def write(self, path) -> None:
        """Spans as tab-separated text: index, name, start, end, parent."""
        names = self.names
        with open(path, "w") as f:
            f.write("idx\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")
