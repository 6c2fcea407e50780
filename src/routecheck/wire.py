"""Byte layouts of the in-band protocol messages.

Both ends of every exchange live in this repository and must agree
bit-exactly; the layouts are fixed here. A length-prefixed string holds at
most ``MAX_STR`` (65,535) bytes.

Outer frame (packet payload)::

    version   u8      (WIRE_VERSION)
    msgtype   u8      (1 query, 2 challenge, 3 reply, 4 report)
    body      ...

Query body: one sealed blob, length-prefixed (u16 BE). The sealed
plaintext is::

    version   u8
    kind      u8      (1 isolation, 2 sources, 3 geo, 4 summary)
    client    u16 BE length + UTF-8
    nonce     16 bytes
    params    u8 count, then per pair u16 BE length + UTF-8 "key=value"

Challenge body: nonce (16 bytes) + target alias (u16 BE length + UTF-8).

Reply body: client + alias (each u16 BE length + UTF-8) + nonce (16
bytes) + signature (u16 BE length); the signature covers the frame
prefix up to and excluding the signature length field.

Report frame: the outer header, then fields that mirror the query
plaintext, counters and a trailing signature block::

    version   u8
    msgtype   u8      (4 report)
    kind      u8
    nonce     16 bytes          (echo of the query nonce)
    auth_requested  u32 BE
    auth_received   u32 BE
    params    u8 count, then length-prefixed "key=value" pairs
    signature u16 BE length + bytes   (over everything before this field)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

WIRE_VERSION = 1
MSG_QUERY = 1
MSG_CHALLENGE = 2
MSG_REPLY = 3
MSG_REPORT = 4

KIND_CODES = {"isolation": 1, "sources": 2, "geo": 3, "summary": 4}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}

NONCE_LEN = 16
MAX_QUERY_PAYLOAD = 1024
MAX_STR = 0xFFFF  # bytes in one length-prefixed string


class WireError(ValueError):
    """Malformed protocol bytes."""


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > MAX_STR:
        raise WireError(f"string of {len(raw)} bytes exceeds the {MAX_STR}-byte limit")
    return struct.pack(">H", len(raw)) + raw


def _unpack_str(buf: bytes, off: int) -> tuple[str, int]:
    if off + 2 > len(buf):
        raise WireError("truncated string length")
    (n,) = struct.unpack_from(">H", buf, off)
    off += 2
    if off + n > len(buf):
        raise WireError("truncated string")
    try:
        return buf[off : off + n].decode("utf-8"), off + n
    except UnicodeDecodeError:
        raise WireError("string is not valid UTF-8") from None


def _pack_params(params: list[tuple[str, str]]) -> bytes:
    if len(params) > 0xFF:
        raise WireError("too many params")
    out = [struct.pack(">B", len(params))]
    for k, v in params:
        out.append(_pack_str(f"{k}={v}"))
    return b"".join(out)


def _unpack_params(buf: bytes, off: int) -> tuple[list[tuple[str, str]], int]:
    if off + 1 > len(buf):
        raise WireError("truncated param count")
    n = buf[off]
    off += 1
    params = []
    for _ in range(n):
        pair, off = _unpack_str(buf, off)
        if "=" not in pair:
            raise WireError(f"param without '=': {pair!r}")
        k, v = pair.split("=", 1)
        params.append((k, v))
    return params, off


# -- query ---------------------------------------------------------------


def encode_query_plaintext(kind: str, client: str, nonce: bytes, params: list[tuple[str, str]]) -> bytes:
    if kind not in KIND_CODES:
        raise WireError(f"unknown query kind {kind!r}")
    if len(nonce) != NONCE_LEN:
        raise WireError(f"nonce must be {NONCE_LEN} bytes")
    buf = bytes([WIRE_VERSION, KIND_CODES[kind]]) + _pack_str(client) + nonce + _pack_params(params)
    if len(buf) > MAX_QUERY_PAYLOAD:
        raise WireError(f"query payload exceeds {MAX_QUERY_PAYLOAD} bytes")
    return buf


def decode_query_plaintext(buf: bytes) -> tuple[str, str, bytes, list[tuple[str, str]]]:
    if len(buf) < 2 or buf[0] != WIRE_VERSION:
        raise WireError("bad query version")
    kind = KIND_NAMES.get(buf[1])
    if kind is None:
        raise WireError(f"unknown kind code {buf[1]}")
    client, off = _unpack_str(buf, 2)
    if off + NONCE_LEN > len(buf):
        raise WireError("truncated nonce")
    nonce = buf[off : off + NONCE_LEN]
    params, off = _unpack_params(buf, off + NONCE_LEN)
    if off != len(buf):
        raise WireError("trailing bytes in query")
    return kind, client, nonce, params


def frame_query(sealed: bytes) -> bytes:
    if len(sealed) > 0xFFFF:
        raise WireError("sealed query too long")
    return bytes([WIRE_VERSION, MSG_QUERY]) + struct.pack(">H", len(sealed)) + sealed


# -- challenge / reply -----------------------------------------------------


def frame_challenge(nonce: bytes, alias: str) -> bytes:
    if len(nonce) != NONCE_LEN:
        raise WireError(f"nonce must be {NONCE_LEN} bytes")
    return bytes([WIRE_VERSION, MSG_CHALLENGE]) + nonce + _pack_str(alias)


def reply_signed_portion(nonce: bytes, client: str, alias: str) -> bytes:
    if len(nonce) != NONCE_LEN:
        raise WireError(f"nonce must be {NONCE_LEN} bytes")
    return bytes([WIRE_VERSION, MSG_REPLY]) + _pack_str(client) + _pack_str(alias) + nonce


def frame_reply(nonce: bytes, client: str, alias: str, signature: bytes) -> bytes:
    return reply_signed_portion(nonce, client, alias) + struct.pack(">H", len(signature)) + signature


# -- report ----------------------------------------------------------------


def report_unsigned(kind: str, nonce: bytes, requested: int, received: int, params: list[tuple[str, str]]) -> bytes:
    if kind not in KIND_CODES:
        raise WireError(f"unknown report kind {kind!r}")
    if len(nonce) != NONCE_LEN:
        raise WireError(f"nonce must be {NONCE_LEN} bytes")
    return (
        bytes([WIRE_VERSION, MSG_REPORT, KIND_CODES[kind]])
        + nonce
        + struct.pack(">II", requested, received)
        + _pack_params(params)
    )


def frame_report(unsigned: bytes, signature: bytes) -> bytes:
    return unsigned + struct.pack(">H", len(signature)) + signature


@dataclass(frozen=True)
class Report:
    kind: str
    nonce: bytes
    requested: int
    received: int
    params: list[tuple[str, str]]
    signed_portion: bytes
    signature: bytes

    def param(self, key: str, default: str = "") -> str:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Message:
    msgtype: int
    # query
    sealed: bytes = b""
    # challenge / reply
    nonce: bytes = b""
    alias: str = ""
    client: str = ""
    signature: bytes = b""
    signed_portion: bytes = b""
    # report
    report: Report | None = None


def _unpack_signature(buf: bytes, off: int, what: str) -> tuple[bytes, bytes]:
    """(signed portion, signature) of a frame whose signature block starts at ``off`` and ends it."""
    if off + 2 > len(buf):
        raise WireError(f"missing {what} signature")
    (siglen,) = struct.unpack_from(">H", buf, off)
    signature = buf[off + 2 : off + 2 + siglen]
    if len(signature) != siglen or off + 2 + siglen != len(buf):
        raise WireError(f"bad {what} signature block")
    return buf[:off], signature


def parse_frame(buf: bytes) -> Message:
    if len(buf) < 2:
        raise WireError("frame too short")
    if buf[0] != WIRE_VERSION:
        raise WireError(f"unsupported wire version {buf[0]}")
    msgtype = buf[1]
    if msgtype == MSG_QUERY:
        if len(buf) < 4:
            raise WireError("truncated query frame")
        (n,) = struct.unpack_from(">H", buf, 2)
        sealed = buf[4 : 4 + n]
        if len(sealed) != n or len(buf) != 4 + n:
            raise WireError("bad query frame length")
        return Message(MSG_QUERY, sealed=sealed)
    if msgtype == MSG_CHALLENGE:
        if len(buf) < 2 + NONCE_LEN + 2:
            raise WireError("truncated challenge")
        nonce = buf[2 : 2 + NONCE_LEN]
        alias, off = _unpack_str(buf, 2 + NONCE_LEN)
        if off != len(buf):
            raise WireError("trailing bytes in challenge")
        return Message(MSG_CHALLENGE, nonce=nonce, alias=alias)
    if msgtype == MSG_REPLY:
        client, off = _unpack_str(buf, 2)
        alias, off = _unpack_str(buf, off)
        if off + NONCE_LEN > len(buf):
            raise WireError("truncated reply")
        nonce = buf[off : off + NONCE_LEN]
        signed_portion, signature = _unpack_signature(buf, off + NONCE_LEN, "reply")
        return Message(
            MSG_REPLY,
            client=client,
            alias=alias,
            nonce=nonce,
            signature=signature,
            signed_portion=signed_portion,
        )
    if msgtype == MSG_REPORT:
        if len(buf) < 3 + NONCE_LEN + 8 + 1:
            raise WireError("truncated report")
        kind = KIND_NAMES.get(buf[2])
        if kind is None:
            raise WireError(f"unknown report kind code {buf[2]}")
        off = 3
        nonce = buf[off : off + NONCE_LEN]
        off += NONCE_LEN
        requested, received = struct.unpack_from(">II", buf, off)
        off += 8
        params, off = _unpack_params(buf, off)
        signed_portion, signature = _unpack_signature(buf, off, "report")
        report = Report(kind, nonce, requested, received, params, signed_portion, signature)
        return Message(MSG_REPORT, report=report)
    raise WireError(f"unknown message type {msgtype}")
