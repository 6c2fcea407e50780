"""Wire formats: byte-exact round trips and malformed-input rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecheck import wire


def test_query_plaintext_roundtrip():
    nonce = bytes(range(16))
    buf = wire.encode_query_plaintext("isolation", "alice", nonce, [("a", "1"), ("b", "x=y")])
    kind, client, got_nonce, params = wire.decode_query_plaintext(buf)
    assert (kind, client, got_nonce) == ("isolation", "alice", nonce)
    assert params == [("a", "1"), ("b", "x=y")]


def test_query_plaintext_size_bound():
    nonce = bytes(16)
    with pytest.raises(wire.WireError, match="exceeds"):
        wire.encode_query_plaintext("geo", "c", nonce, [("blob", "z" * 2000)])


def test_query_frame_roundtrip():
    framed = wire.frame_query(b"sealed-bytes")
    msg = wire.parse_frame(framed)
    assert msg.msgtype == wire.MSG_QUERY
    assert msg.sealed == b"sealed-bytes"


def test_challenge_roundtrip():
    nonce = bytes(range(16))
    framed = wire.frame_challenge(nonce, "bob:ap2")
    msg = wire.parse_frame(framed)
    assert msg.msgtype == wire.MSG_CHALLENGE
    assert msg.nonce == nonce
    assert msg.alias == "bob:ap2"


def test_reply_roundtrip_and_signed_portion():
    nonce = bytes(16)
    framed = wire.frame_reply(nonce, "bob", "bob:ap1", b"sig-bytes")
    msg = wire.parse_frame(framed)
    assert msg.msgtype == wire.MSG_REPLY
    assert (msg.client, msg.alias, msg.nonce) == ("bob", "bob:ap1", nonce)
    assert msg.signature == b"sig-bytes"
    assert msg.signed_portion == wire.reply_signed_portion(nonce, "bob", "bob:ap1")


def test_report_roundtrip():
    nonce = bytes(range(16))
    unsigned = wire.report_unsigned("isolation", nonce, 3, 2, [("body", "line1\nline2"), ("verified", "a,b")])
    framed = wire.frame_report(unsigned, b"controller-sig")
    msg = wire.parse_frame(framed)
    r = msg.report
    assert (r.kind, r.nonce, r.requested, r.received) == ("isolation", nonce, 3, 2)
    assert r.param("body") == "line1\nline2"
    assert r.param("verified") == "a,b"
    assert r.signed_portion == unsigned
    assert r.signature == b"controller-sig"


NONCES = st.binary(min_size=wire.NONCE_LEN, max_size=wire.NONCE_LEN)
TEXTS = st.text(max_size=12)
PARAMS = st.lists(st.tuples(TEXTS, TEXTS), max_size=3)
KINDS = st.sampled_from(list(wire.KIND_CODES))

# One well-formed frame of each of the four message types, from drawn fields.
FRAMES = st.one_of(
    st.binary(max_size=40).map(wire.frame_query),
    st.builds(wire.frame_challenge, NONCES, TEXTS),
    st.builds(wire.frame_reply, NONCES, TEXTS, TEXTS, st.binary(max_size=40)),
    st.builds(
        wire.frame_report,
        st.builds(wire.report_unsigned, KINDS, NONCES, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), PARAMS),
        st.binary(max_size=40),
    ),
)
PLAINTEXTS = st.builds(wire.encode_query_plaintext, KINDS, TEXTS, NONCES, PARAMS)


MSG_TYPES = {wire.MSG_QUERY, wire.MSG_CHALLENGE, wire.MSG_REPLY, wire.MSG_REPORT}


def assert_malformed_refused(parse, buf, header, data):
    """``buf`` parses; cut short or extended it raises WireError; with one
    byte flipped it parses or raises WireError, never anything else.
    ``header`` holds the values each leading byte may take: a flip to any
    other value there must be refused."""
    parse(buf)
    with pytest.raises(wire.WireError):
        parse(buf[: data.draw(st.integers(0, len(buf) - 1), label="cut")])
    with pytest.raises(wire.WireError):
        parse(buf + data.draw(st.binary(min_size=1, max_size=8), label="tail"))
    # half the flips land in the first three bytes, the version, type and kind codes
    at = data.draw(st.integers(0, min(2, len(buf) - 1)) | st.integers(0, len(buf) - 1), label="at")
    flipped = buf[:at] + bytes([buf[at] ^ data.draw(st.integers(1, 255), label="mask")]) + buf[at + 1 :]
    if at < len(header) and flipped[at] not in header[at]:
        with pytest.raises(wire.WireError):
            parse(flipped)
        return
    try:
        parse(flipped)
    except wire.WireError:
        pass


@settings(max_examples=400, deadline=None)
@given(FRAMES, st.data())
def test_parse_rejects_malformed(frame, data):
    """The controller's packet-in path reads adversarial bytes with ``parse_frame``."""
    header = [{wire.WIRE_VERSION}, MSG_TYPES]
    if frame[1] == wire.MSG_REPORT:
        header.append(set(wire.KIND_NAMES))
    assert_malformed_refused(wire.parse_frame, frame, header, data)


@settings(max_examples=200, deadline=None)
@given(PLAINTEXTS, st.data())
def test_query_plaintext_rejects_malformed(plaintext, data):
    assert_malformed_refused(wire.decode_query_plaintext, plaintext, [{wire.WIRE_VERSION}, set(wire.KIND_NAMES)], data)


GOOD_REPORT = wire.frame_report(wire.report_unsigned("geo", bytes(16), 0, 0, []), b"s")
GOOD_PLAINTEXT = wire.encode_query_plaintext("geo", "c", bytes(16), [])


@pytest.mark.parametrize(
    "parse, buf, text",
    [
        (wire.parse_frame, b"", "frame too short"),
        (wire.parse_frame, bytes([9, wire.MSG_QUERY, 0, 0]), "unsupported wire version 9"),
        (wire.parse_frame, bytes([wire.WIRE_VERSION, 200]), "unknown message type 200"),
        (wire.parse_frame, bytes([wire.WIRE_VERSION, wire.MSG_QUERY, 0, 9]) + b"xx", "bad query frame length"),
        (wire.parse_frame, GOOD_REPORT[:2] + bytes([99]) + GOOD_REPORT[3:], "unknown report kind code 99"),
        (wire.parse_frame, GOOD_REPORT[:-1], "bad report signature block"),
        (wire.decode_query_plaintext, bytes([9]) + GOOD_PLAINTEXT[1:], "bad query version"),
        (wire.decode_query_plaintext, GOOD_PLAINTEXT[:1] + bytes([99]) + GOOD_PLAINTEXT[2:], "unknown kind code 99"),
    ],
)
def test_malformed_header_is_refused(parse, buf, text):
    with pytest.raises(wire.WireError, match=f"^{text}$"):
        parse(buf)


def test_every_nonce_length_checked():
    for fn in (
        lambda: wire.encode_query_plaintext("geo", "c", b"short", []),
        lambda: wire.frame_challenge(b"short", "a"),
        lambda: wire.reply_signed_portion(b"short", "c", "a"),
        lambda: wire.report_unsigned("geo", b"short", 0, 0, []),
    ):
        with pytest.raises(wire.WireError):
            fn()
