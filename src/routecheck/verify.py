"""Routing-property queries answered in the logical space.

All operations are pure functions over an immutable snapshot: forward and
reverse reachability between access points, isolation candidate sets, geo
exposure, and the client-facing transfer summary. Propagation tracks the
header space as currently carried alongside the space as originally sent,
so results are reported in terms of what the client transmits even when
rules rewrite headers along the way.

Propagation splits each work item's space with the snapshot's own
``FlowTable`` values, trusting their rule order as lookup order. Work is
memoised at two grains, and both memos hold immutable values (tuples,
frozensets, frozen entries), so no caller can alter another query's
answer:

- each table memoises its splits by input space (see ``topology``), so
  the work items that reach an unchanged switch again, from another
  access point or in a later snapshot version, reuse its splits;
- results are memoised in ``Snapshot.reach``, keyed by (access point,
  header space). The snapshot service hands one reach memo to
  consecutive snapshots whose tables are the very same values (see
  ``snapshots``), so a query against an unchanged network reuses the
  reach computed for an earlier version; any table change starts a fresh
  reach memo.

``answer`` is the one dispatcher from a query kind to its answer: the
controller's in-band sessions and the ``routecheck query`` command both
call it. Client-facing renderings contain access-point aliases only,
never switch or link identifiers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .hspace import HeaderSpace, Ternary, WidthMismatch, _space
from .snapshots import Snapshot
from .topology import AccessPoint, Topology


@dataclass(frozen=True)
class ReachEntry:
    egress: AccessPoint
    arriving: HeaderSpace
    sent: HeaderSpace


@dataclass
class ReachResult:
    entries: list[ReachEntry]


def _propagate(
    topo: Topology, snap: Snapshot, start: AccessPoint, space: HeaderSpace
) -> tuple[tuple[ReachEntry, ...], frozenset[str]]:
    """Fixpoint propagation from one access point, memoised in ``snap.reach``.

    Work items carry (switch, current term, origin term, rewritten-bit
    mask); lookups ignore the ingress port, so items carry none. Each item
    is propagated once, and that suffices: within one lane (origin, mask)
    every current term equals the origin outside the mask and fixes every
    bit inside it, as a rewrite fixes the bits it writes and a match only
    adds constraints, so two terms of a lane are equal or disjoint and an
    arriving term is either wholly new or already propagated. Constraints
    discovered by matches are mirrored onto the origin term at positions
    that have not been overwritten yet.
    """
    key = (start, space)
    if key in snap.reach:
        return snap.reach[key]
    width = topo.width
    full_mask = (1 << width) - 1

    by_egress: dict[AccessPoint, tuple[list[Ternary], list[Ternary]]] = {}
    work = deque((start.switch, term, term, 0) for term in space.terms)
    seen = set(work)

    while work:
        sw, cur, orig, rwmask = work.popleft()
        for rule, sub in snap.tables[sw].lookup(_space(width, (cur,))):
            if rule is None or rule.action.kind in ("drop", "ctrl"):
                continue
            for st in sub.terms:
                orig2 = orig.intersect(st.restricted_to(full_mask & ~rwmask))
                if orig2 is None:
                    continue
                if rule.action.kind == "rewrite":
                    st2 = st.rewrite(rule.action.rewrite)
                    rwmask2 = rwmask | rule.action.rewrite.care
                else:
                    st2 = st
                    rwmask2 = rwmask
                for out_port in rule.action.ports:
                    ap = topo.access_point_at(sw, out_port)
                    if ap is not None:
                        arriving, sent = by_egress.setdefault(ap, ([], []))
                        arriving.append(st2)
                        sent.append(orig2)
                        continue
                    peer = topo.peer(sw, out_port)  # every port is an access point or linked
                    item = (peer[0], st2, orig2, rwmask2)
                    if item not in seen:
                        seen.add(item)
                        work.append(item)

    entries = []
    for ap in sorted(by_egress, key=lambda a: a.alias):
        arriving, sent = by_egress[ap]
        entries.append(
            ReachEntry(
                egress=ap,
                arriving=_space(width, arriving).compact(),
                sent=_space(width, sent).compact(),
            )
        )
    out = snap.reach[key] = (tuple(entries), frozenset(item[0] for item in seen))
    return out


def _check_registered(topo: Topology, ap: AccessPoint) -> None:
    """Refuse an access point that is not the one the topology has at its port."""
    if topo.access_point(*ap.key()) != ap:
        raise ValueError(f"{ap.alias} is not the access point at {ap.switch}:{ap.port}")


def reachable_endpoints(topo: Topology, snap: Snapshot, from_ap: AccessPoint, space: HeaderSpace) -> ReachResult:
    """All access points the given space can reach from one access point."""
    _check_registered(topo, from_ap)
    if space.is_empty():
        raise ValueError("reachability needs a non-empty header space")
    if space.width != topo.width:
        raise WidthMismatch(f"space width {space.width} vs topology width {topo.width}")
    entries, _ = _propagate(topo, snap, from_ap, space)
    return ReachResult(entries=list(entries))


def reachable_sources(topo: Topology, snap: Snapshot, to_ap: AccessPoint) -> list[tuple[AccessPoint, HeaderSpace]]:
    """Which other access points can currently reach `to_ap`, and with what.

    Computed by forward analysis from every other access point; the
    header space reported is the one at the source (as sent).
    """
    _check_registered(topo, to_ap)
    full = HeaderSpace.full(topo.width)
    out = []
    for ap in topo.access_points:
        if ap == to_ap:
            continue
        result = reachable_endpoints(topo, snap, ap, full)
        for entry in result.entries:
            if entry.egress == to_ap:
                out.append((ap, entry.sent))
    return out


def isolation_candidates(
    topo: Topology, snap: Snapshot, request_point: AccessPoint
) -> tuple[set[AccessPoint], set[AccessPoint]]:
    """Access points that can communicate with the request point.

    "Communicate" covers either direction: reachable from the request
    point or able to reach it. Returns the full candidate set partitioned
    into (own, foreign) relative to the request point's client.
    """
    candidates: set[AccessPoint] = set()
    full = HeaderSpace.full(topo.width)
    for entry in reachable_endpoints(topo, snap, request_point, full).entries:
        candidates.add(entry.egress)
    for ap, _ in reachable_sources(topo, snap, request_point):
        candidates.add(ap)
    own = {ap for ap in candidates if ap.client == request_point.client}
    foreign = candidates - own
    return own, foreign


def geo_exposure(topo: Topology, snap: Snapshot, client: str) -> set[str]:
    """Regions of every switch on any feasible route for the client's traffic."""
    full = HeaderSpace.full(topo.width)
    traversed: set[str] = set()
    for ap in topo.client_aps(client):
        traversed |= _propagate(topo, snap, ap, full)[1]
    return {region for region in map(topo.locations.get, traversed) if region is not None}


def transfer_summary(topo: Topology, snap: Snapshot, client: str) -> list[tuple[str, str, HeaderSpace, HeaderSpace]]:
    """Endpoint-to-endpoint view of the routing service offered to a client.

    Rows are (ingress alias, egress alias, sent, arriving), sorted by the
    two aliases; switch and link identifiers never appear.
    """
    full = HeaderSpace.full(topo.width)
    rows = []
    for ap in topo.client_aps(client):
        for entry in reachable_endpoints(topo, snap, ap, full).entries:
            rows.append((ap.alias, entry.egress.alias, entry.sent, entry.arriving))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


# -- client-facing text renderings ---------------------------------------


def render_isolation(client: str, request_alias: str, own: set[AccessPoint], foreign: set[AccessPoint]) -> str:
    own_s = ",".join(sorted(ap.alias for ap in own)) or "-"
    foreign_s = ",".join(sorted(ap.alias for ap in foreign)) or "-"
    return (
        f"kind=isolation\nclient={client}\nrequest_point={request_alias}\n"
        f"own={own_s}\nforeign={foreign_s}"
    )


def render_sources(client: str, point_alias: str, sources: list[tuple[AccessPoint, HeaderSpace]]) -> str:
    lines = [f"kind=sources\nclient={client}\npoint={point_alias}"]
    for ap, space in sorted(sources, key=lambda s: s[0].alias):
        lines.append(f"source={ap.alias} sent={space}")
    return "\n".join(lines)


def render_geo(client: str, regions: set[str]) -> str:
    names = ",".join(sorted(regions)) or "-"
    return f"kind=geo\nclient={client}\nregions={names}"


def render_summary(client: str, rows: list[tuple[str, str, HeaderSpace, HeaderSpace]]) -> str:
    lines = [f"kind=summary\nclient={client}"]
    for ingress, egress, sent, arriving in rows:
        lines.append(f"row ingress={ingress} egress={egress} sent={sent} arrives={arriving}")
    return "\n".join(lines)


# -- the one query dispatcher ----------------------------------------------


@dataclass(frozen=True)
class Answer:
    body: str  # the client-facing text
    candidates: tuple[AccessPoint, ...] = ()  # isolation: access points to challenge, by alias
    foreign: tuple[str, ...] = ()  # isolation: sorted aliases of other clients' candidates
    regions: frozenset[str] = frozenset()  # geo: regions on the client's routes


def answer(topo: Topology, snap: Snapshot, kind: str, point: AccessPoint) -> Answer:
    """Answer a query of one kind asked by ``point``'s client at ``point``."""
    client = point.client
    if kind == "isolation":
        own, foreign = isolation_candidates(topo, snap, point)
        return Answer(
            render_isolation(client, point.alias, own, foreign),
            candidates=tuple(sorted(own | foreign, key=lambda ap: ap.alias)),
            foreign=tuple(sorted(ap.alias for ap in foreign)),
        )
    if kind == "sources":
        return Answer(render_sources(client, point.alias, reachable_sources(topo, snap, point)))
    if kind == "geo":
        regions = geo_exposure(topo, snap, client)
        return Answer(render_geo(client, regions), regions=frozenset(regions))
    if kind == "summary":
        return Answer(render_summary(client, transfer_summary(topo, snap, client)))
    raise ValueError(f"unknown query kind {kind!r}")
