"""In-band client/controller protocol.

Clients encode queries as magic-header packets that pre-installed
interception rules steer to the verification controller as packet-ins.
For isolation queries the controller fans out authentication challenges
by packet-out to every candidate access point, collects signed replies
until a timeout (a positive number of ticks, so challenged endpoints get
at least one tick to answer) or the end of the run, whichever comes
first, then returns a signed report (carrying how many challenges were
sent and how many verified replies came back) to the request point.
Endpoints that never answer, or answer badly, show up as the
requested/received shortfall, which the querying client can see.
Each challenge is recorded once, in its session's ``challenges``; the
controller's ``outstanding`` index maps an open challenge nonce to that
session. Sending the report removes the session and all its challenge
nonces together, so a reply that arrives later is rejected as unknown and
changes no count.
The controller parses each packet-in once. Every packet-in it refuses
(bytes that do not parse, a query or a reply that fails a check, or a
message type that has no business arriving as a packet-in) becomes one
``Controller.rejects`` record of its tick and reason; rejects are not
yet written to an artifact (ROADMAP item 8).
Every other kind is answered at once. The answer comes from
``verify.answer``, the same path as ``routecheck query``. An answer too
large for a report field (``wire.MAX_STR`` bytes) is replaced by a signed
report of the same kind whose body is ``kind=``, ``client=`` and an
``error=`` line giving the body's size and the limit; the run goes on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .hspace import Ternary
from .keys import KeyRegistry, SigningKey, VerifyKey, seal
from .sim import Delivery, Network, Packet, SwitchEvent
from .snapshots import DEFAULT_WINDOW, SnapshotService, poll_ticks
from .topology import AccessPoint, Action, FlowRule, Topology
from . import verify, wire

DEFAULT_TIMEOUT = 8
DEFAULT_POLL_RATE = 0.05
REPLAY_WINDOW = 1024  # nonces remembered per client


class InterceptError(ValueError):
    """A packet-in was rejected (bad bytes, replay, spoofed ingress, ...)."""


@dataclass(frozen=True)
class Finding:
    tick: int
    kind: str  # "gap" | "transient" | "isolation" | "geo"
    detail: str

    def line(self) -> str:
        return f"t={self.tick} kind={self.kind} {self.detail}"


@dataclass
class Session:
    """One authenticated query, from its packet-in to its signed report."""

    nonce: bytes
    client: str
    kind: str
    request_point: AccessPoint
    body: str = ""
    deadline: int = 0  # the tick an isolation session reports at
    challenges: dict[bytes, AccessPoint] = field(default_factory=dict)  # challenge nonce -> target
    verified: list[str] = field(default_factory=list)


def encode_query(
    kind: str,
    client: str,
    nonce: bytes,
    params: list[tuple[str, str]],
    magic: Ternary,
    controller_seal_pub: bytes,
    rng: random.Random,
) -> Packet:
    """Seal a query to the controller inside a magic-header packet."""
    plaintext = wire.encode_query_plaintext(kind, client, nonce, params)
    sealed = seal(controller_seal_pub, plaintext, rng)
    return Packet(header=magic.value, payload=wire.frame_query(sealed))


def verify_report(frame: bytes | wire.Message, controller_key: VerifyKey):
    """Client-side check of a report's signature; (ok, parsed report or None).

    ``frame`` is the raw report frame, or the message already parsed from it.
    """
    if isinstance(frame, bytes):
        try:
            frame = wire.parse_frame(frame)
        except wire.WireError:
            return False, None
    report = frame.report
    if report is None:
        return False, None
    return controller_key.verify(report.signature, report.signed_portion), report


class ClientAgent:
    """The software a client runs: sends queries, answers challenges,
    verifies reports."""

    def __init__(
        self,
        client: str,
        topo: Topology,
        signing: SigningKey,
        controller_key: VerifyKey,
        controller_seal_pub: bytes,
        magic: Ternary,
        seed: int | str,
    ):
        self.client = client
        self.topo = topo
        self.signing = signing
        self.controller_key = controller_key
        self.controller_seal_pub = controller_seal_pub
        self.magic = magic
        self.rng = random.Random(f"{seed}:agent:{client}")
        self.outstanding: dict[bytes, str] = {}  # query nonce -> kind
        self.reports: list[tuple[int, bool, wire.Report]] = []

    def make_query(self, kind: str, at: tuple[str, str] | None = None, params=()) -> tuple[Packet, tuple[str, str]]:
        point = at if at is not None else self.topo.client_aps(self.client)[0].key()
        nonce = self.rng.randbytes(wire.NONCE_LEN)
        self.outstanding[nonce] = kind
        packet = encode_query(
            kind, self.client, nonce, list(params), self.magic, self.controller_seal_pub, self.rng
        )
        return packet, point

    def on_delivery(self, delivery: Delivery, tick: int, send_later) -> None:
        if not self.magic.matches(delivery.packet.header):
            return  # data traffic: every challenge and report comes with the magic header
        try:
            msg = wire.parse_frame(delivery.packet.payload)
        except wire.WireError:
            return
        if msg.msgtype == wire.MSG_CHALLENGE:
            ap = self.topo.access_point_at(delivery.switch, delivery.port)
            if ap is None or ap.client != self.client:
                return
            signed = wire.reply_signed_portion(msg.nonce, self.client, ap.alias)
            reply = wire.frame_reply(msg.nonce, self.client, ap.alias, self.signing.sign(signed))
            send_later(tick + 1, ap.switch, ap.port, Packet(self.magic.value, reply))
        elif msg.msgtype == wire.MSG_REPORT:
            ok, report = verify_report(msg, self.controller_key)
            asked = self.outstanding.pop(report.nonce, None) is not None
            self.reports.append((tick, ok and asked, report))


class Controller:
    """The trusted verification controller, driven by the scenario loop."""

    def __init__(
        self,
        topo: Topology,
        registry: KeyRegistry,
        magic: Ternary,
        seed: int | str = 0,
        timeout: int = DEFAULT_TIMEOUT,
        poll_rate: float = DEFAULT_POLL_RATE,
        window: int = DEFAULT_WINDOW,
    ):
        if not timeout > 0:
            raise ValueError(f"reply timeout must be positive, got {timeout}")
        self.topo = topo
        self.registry = registry
        self.magic = magic
        self.timeout = timeout
        self.service = SnapshotService(topo, window=window)
        self.rng = random.Random(f"{seed}:controller")
        self._polls = poll_ticks(seed, poll_rate)
        self._next_poll = next(self._polls)
        self.sessions: dict[bytes, Session] = {}
        self.outstanding: dict[bytes, Session] = {}  # open challenge nonce -> its session
        self.seen_nonces: dict[str, list[bytes]] = {}
        self.findings: list[Finding] = []
        self.rejects: list[tuple[int, str]] = []
        self.reports_sent: list[tuple[int, str, str, bytes, str]] = []  # tick, client, kind, frame, body
        self.last_geo: dict[str, frozenset[str]] = {}

    # -- wiring ----------------------------------------------------------

    def install_magic_rules(self, net: Network) -> None:
        """Install service-owned interception rules at access-point switches.

        The rules are part of the monitored configuration: if the
        adversary removes one, that shows up like any other table change.
        """
        rule = FlowRule(priority=65535, match=self.magic, action=Action("ctrl"))
        for sw in sorted({ap.switch for ap in self.topo.access_points}):
            net.apply_flow_mod(sw, "add", rule)

    def on_events(self, events: list[SwitchEvent], net: Network) -> None:
        """Fold a batch of events into the view, in order, and serve its packet-ins.

        A sequence gap is a finding, and its switch is re-read from ``net``
        at once, so no later query is answered from a view known to lack a
        change. The re-read reflects every event the switch had emitted,
        so the batch's later events of that switch only advance its
        sequence.
        """
        for ev in events:
            expected = self.service.ingest_event(ev)
            if expected is not None:
                detail = f"sw={ev.switch} expected_seq={expected} got_seq={ev.seq}"
                self.findings.append(Finding(ev.tick, "gap", detail))
                self._report_poll(ev.tick, self.service.active_poll(ev.switch, net))
            if ev.kind != "packet_in":
                continue
            try:
                session = self._handle_packet_in(ev)
            except InterceptError as e:
                self.rejects.append((ev.tick, str(e)))
                continue
            if session is not None:
                self._start_session(session, ev.tick, net)

    def on_tick(self, tick: int, net: Network) -> None:
        while self._next_poll <= tick:
            self._report_poll(tick, self.service.poll_all(net))
            self._next_poll = next(self._polls)
        due = [s for s in self.sessions.values() if s.deadline <= tick]
        for session in sorted(due, key=lambda s: s.nonce):
            self._finalize(session, tick, net)

    def _report_poll(self, tick: int, disagreements: list[tuple[str, str, FlowRule]]) -> None:
        for sw, status, rule in disagreements:
            self.findings.append(Finding(tick, "transient", f"poll_disagreement sw={sw} status={status} rule[{rule}]"))

    def close_sessions(self, tick: int, net: Network) -> None:
        """Report every session still open, with the replies received so far.

        The scenario loop calls this at its last tick, so a timeout that
        outlives the script still ends in a signed report.
        """
        for session in sorted(self.sessions.values(), key=lambda s: s.nonce):
            self._finalize(session, tick, net)

    def finish(self, net: Network) -> None:
        """End-of-run sweep: report rules that came and went within the window."""
        for f in self.service.detect_transients():
            self.findings.append(Finding(net.tick, "transient", f.line()))

    # -- the protocol proper ----------------------------------------------

    def intercept(self, event: SwitchEvent, msg: wire.Message) -> Session:
        """Decrypt + authenticate the query frame ``msg`` parsed from a packet-in;
        the session it opens, not yet answered.

        Raises InterceptError on a header outside the magic pattern,
        undecryptable payloads, replayed nonces, unenrolled clients,
        queries arriving at a different client's access point (spoofing),
        and queries with parameters: no query kind reads any yet, so a
        restricted question is refused rather than answered for the full
        header space.
        """
        if not self.magic.matches(event.packet.header):
            raise InterceptError("header does not match the magic pattern")
        try:
            plaintext = self.registry.controller_seal.unseal(msg.sealed)
        except ValueError:
            raise InterceptError("decryption failed") from None
        try:
            kind, client, nonce, params = wire.decode_query_plaintext(plaintext)
        except wire.WireError as e:
            raise InterceptError(f"bad query payload: {e}") from None
        if client not in self.registry.client_keys:
            raise InterceptError(f"client {client} is not enrolled")
        if nonce in self.seen_nonces.get(client, ()):
            raise InterceptError("replayed query nonce")
        ap = self.topo.access_point_at(event.switch, event.in_port)
        if ap is None:
            raise InterceptError("query did not enter at an access point")
        if ap.client != client:
            raise InterceptError(f"spoofed query: claims {client} but entered at {ap.alias}")
        if params:
            raise InterceptError(f"query parameters are not supported: {', '.join(key for key, _ in params)}")
        seen = self.seen_nonces.setdefault(client, [])
        seen.append(nonce)
        del seen[:-REPLAY_WINDOW]
        return Session(nonce, client, kind, ap)

    def _handle_packet_in(self, event: SwitchEvent) -> Session | None:
        """Parse a packet-in once: the query it authenticates, or None for a counted reply.

        Raises InterceptError on every refusal, which ``on_events`` records.
        """
        try:
            msg = wire.parse_frame(event.packet.payload)
        except wire.WireError as e:
            raise InterceptError(f"unparseable packet-in: {e}") from None
        if msg.msgtype == wire.MSG_QUERY:
            return self.intercept(event, msg)
        if msg.msgtype != wire.MSG_REPLY:
            raise InterceptError(f"unexpected in-band msgtype {msg.msgtype}")
        self._handle_reply(msg)
        return None

    def _start_session(self, session: Session, tick: int, net: Network) -> None:
        answer = verify.answer(self.topo, self.service.current(), session.kind, session.request_point)
        session.body = answer.body
        if session.kind == "isolation":
            if answer.foreign:
                detail = f"client={session.client} foreign={','.join(answer.foreign)}"
                self.findings.append(Finding(tick, "isolation", detail))
            session.deadline = tick + self.timeout
            for ap in answer.candidates:
                nonce_a = self.rng.randbytes(wire.NONCE_LEN)
                session.challenges[nonce_a] = ap
                self.outstanding[nonce_a] = session
                challenge = Packet(self.magic.value, wire.frame_challenge(nonce_a, ap.alias))
                net.packet_out(ap.switch, ap.port, challenge)
            self.sessions[session.nonce] = session
            return
        if session.kind == "geo":
            prev = self.last_geo.get(session.client)
            if prev is not None and answer.regions - prev:
                grown = ",".join(sorted(answer.regions - prev))
                self.findings.append(Finding(tick, "geo", f"client={session.client} new_regions={grown}"))
            self.last_geo[session.client] = answer.regions
        self._finalize(session, tick, net)

    def _handle_reply(self, msg: wire.Message) -> None:
        session = self.outstanding.get(msg.nonce)
        if session is None:
            raise InterceptError("reply with unknown or already-used challenge nonce")
        target = session.challenges[msg.nonce]
        if msg.alias != target.alias:
            raise InterceptError(f"reply alias {msg.alias} does not match challenged endpoint")
        if msg.client != target.client:
            raise InterceptError(f"reply claims {msg.client} for {target.alias}")
        key = self.registry.client_keys.get(msg.client)
        if key is None:
            raise InterceptError(f"reply from unenrolled client {msg.client}")
        if not key.verify(msg.signature, msg.signed_portion):
            raise InterceptError(f"reply signature check failed for {msg.alias}")
        del self.outstanding[msg.nonce]
        session.verified.append(target.alias)

    def _finalize(self, session: Session, tick: int, net: Network) -> None:
        params = [("body", session.body)]
        if session.kind == "isolation":
            params.append(("verified", ",".join(sorted(session.verified)) or "-"))
        counts = (len(session.challenges), len(session.verified))
        try:
            unsigned = wire.report_unsigned(session.kind, session.nonce, *counts, params)
        except wire.WireError as e:  # the answer does not fit a report: say so, signed
            size = len(session.body.encode("utf-8"))
            session.body = f"kind={session.kind}\nclient={session.client}\nerror=body of {size} bytes not sent: {e}"
            unsigned = wire.report_unsigned(session.kind, session.nonce, *counts, [("body", session.body)])
        frame = wire.frame_report(unsigned, self.registry.controller_signing.sign(unsigned))
        self.sessions.pop(session.nonce, None)
        for nonce_a in session.challenges:
            self.outstanding.pop(nonce_a, None)
        self.reports_sent.append((tick, session.client, session.kind, frame, session.body))
        rp = session.request_point
        net.packet_out(rp.switch, rp.port, Packet(self.magic.value, frame))


def default_magic(width: int) -> Ternary:
    """Reserved header pattern for protocol traffic: top four bits set."""
    if width <= 4:
        return Ternary.parse("1" * width)
    return Ternary.parse("1111" + "x" * (width - 4))


def build_agents(
    topo: Topology,
    registry: KeyRegistry,
    client_signing: dict[str, SigningKey],
    magic: Ternary,
    seed: int | str,
) -> dict[str, ClientAgent]:
    agents = {}
    for client in sorted(client_signing):
        agents[client] = ClientAgent(
            client=client,
            topo=topo,
            signing=client_signing[client],
            controller_key=registry.controller_signing.verify_key,
            controller_seal_pub=registry.controller_seal.public_raw,
            magic=magic,
            seed=seed,
        )
    return agents
