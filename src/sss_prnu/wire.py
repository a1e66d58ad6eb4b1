"""Framed binary wire format shared by every channel in the protocol.

Frame layout, big-endian throughout:

    length (4 bytes, excludes itself) | type (1 byte) | payload

Message types:

    0x01 ENROLL      id-length (2B) | id bytes | share vector
    0x02 ENROLL_ACK  empty
    0x03 QUERY       id-length (2B) | id bytes | share vector
    0x04 PARTIAL     partial correlation (24 bytes)
    0x05 FETCH       id-length (2B) | id bytes
    0x06 SHARE       share vector
    0x7F ERROR       code (2B, one of ERR_* below) | utf-8 message

The in-process transport and the TCP transport both move exactly these
bytes, so traffic inspectors and golden traces behave identically on
either.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

MSG_ENROLL = 0x01
MSG_ENROLL_ACK = 0x02
MSG_QUERY = 0x03
MSG_PARTIAL = 0x04
MSG_FETCH = 0x05
MSG_SHARE = 0x06
MSG_ERROR = 0x7F

ERR_MALFORMED = 1  # a request that does not parse or does not fit this server
ERR_UNKNOWN_ID = 2  # no share stored under the request's id
ERR_INTERNAL = 3  # the server failed to carry out a well-formed request
ERR_LENGTH = 4  # a query whose length does not fit the enrolled share

# 64 MiB: a share vector frame holds up to about 8.4 million elements,
# a 2896x2896 image.
MAX_FRAME = 1 << 26

_LEN = struct.Struct(">I")
_LEN_TYPE = struct.Struct(">IB")
_ID_LEN = struct.Struct(">H")
_ERR_CODE = struct.Struct(">H")


class FrameError(ValueError):
    """Malformed frame or payload."""


class ConnectionClosed(ConnectionError):
    """Peer closed the stream between frames."""


def check_frame_length(length: int) -> None:
    """Refuse a frame whose length field (type byte plus payload) would
    exceed MAX_FRAME, which no reader accepts."""
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds the {MAX_FRAME}-byte limit")


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    if not 0 <= ftype <= 0xFF:
        raise FrameError(f"frame type {ftype} out of range")
    length = 1 + len(payload)
    check_frame_length(length)
    return _LEN_TYPE.pack(length, ftype) + payload


def _read_exact(fh: BinaryIO, count: int) -> bytes:
    data = fh.read(count)
    if data is None or len(data) == 0:
        raise ConnectionClosed("stream closed")
    if len(data) != count:
        raise FrameError(f"truncated read: wanted {count} bytes, got {len(data)}")
    return data


def _check_declared(length: int) -> int:
    """A length field as read: it must cover the type byte and stay
    within MAX_FRAME."""
    if length < 1:
        raise FrameError("frame length must cover the type byte")
    if length > MAX_FRAME:
        raise FrameError(f"declared frame length {length} exceeds limit")
    return length


def read_frame(fh: BinaryIO) -> tuple[int, bytes]:
    """Read one frame; raises ConnectionClosed on clean EOF between frames."""
    (length,) = _LEN.unpack(_read_exact(fh, _LEN.size))
    body = _read_exact(fh, _check_declared(length))
    return body[0], body[1:]


class FrameSplitter:
    """Splits a byte stream into frames as its bytes arrive, under
    read_frame's length rules, for a reader that must not block."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """The frames that `data` completes, in order; a bad length field
        raises FrameError."""
        buf = self._buf
        buf += data
        frames = []
        while len(buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(buf)
            end = _LEN.size + _check_declared(length)
            if len(buf) < end:
                break
            with memoryview(buf) as view:
                frames.append((buf[_LEN.size], bytes(view[_LEN.size + 1 : end])))
            del buf[:end]
        return frames


def write_frame(fh: BinaryIO, ftype: int, payload: bytes = b"") -> None:
    fh.write(encode_frame(ftype, payload))
    fh.flush()


def pack_identified(fid: str, rest: bytes = b"") -> bytes:
    """id-length (2B) | id utf-8 bytes | rest."""
    raw = fid.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FrameError("fingerprint id too long")
    if not raw:
        raise FrameError("fingerprint id must be nonempty")
    return _ID_LEN.pack(len(raw)) + raw + rest


def unpack_identified(payload: bytes) -> tuple[str, bytes]:
    if len(payload) < _ID_LEN.size:
        raise FrameError("payload too short for an id")
    (id_len,) = _ID_LEN.unpack_from(payload)
    end = _ID_LEN.size + id_len
    if id_len == 0 or len(payload) < end:
        raise FrameError("truncated fingerprint id")
    try:
        fid = payload[_ID_LEN.size : end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError("fingerprint id is not valid utf-8") from exc
    return fid, payload[end:]


def pack_error(code: int, message: str) -> bytes:
    return _ERR_CODE.pack(code) + message.encode("utf-8")


def unpack_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < _ERR_CODE.size:
        raise FrameError("error payload too short")
    (code,) = _ERR_CODE.unpack_from(payload)
    return code, payload[_ERR_CODE.size :].decode("utf-8", errors="replace")
