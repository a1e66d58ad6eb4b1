"""Four-party matching protocol over untrusting cloud servers.

Entities and their trust boundaries:

  * Fingerprint Source: owns camera fingerprints, shares each out once
    at enrollment time, together with its own square sum Q.
  * Cloud servers (n of them): each stores exactly one share per
    fingerprint and computes partial correlations locally.  They never
    talk to each other and never see plaintext.
  * Match Maker Server: fans a query out, collects the first quorum of
    partials, reconstructs P and Q.
  * Match Maker: extracts the query residual, sums its own square R in
    the clear, applies the threshold to the final r.

In this implementation the trusted roles are plain driver functions
(enroll, query, verify_consistency) and the servers are CloudServer
instances reachable through a link abstraction: LocalLink calls the
server in-process, TcpLink speaks the wire format over a socket.  Both
move identical frame bytes, so traffic observers see the same thing
either way.

Each link also owns its concurrency.  The drivers send every request
through `_gather`, which calls `link.send(ftype, payload, deadline)` for
each server and parses each reply on the calling thread.  LocalLink
runs the request at once on the calling thread: an in-process server
shares the caller's interpreter lock, so a thread would add start-up
cost and no overlap.  TcpLink writes the frame at once and returns a
Future; the n servers of a fan-out then work in parallel, and one
process-wide `TcpLink-io` thread reads every server's replies, in order
per connection.  A request still unanswered at its deadline fails with
TransportError and takes its connection down, so a hung server costs
each query at most one wait and never a thread.
"""

from __future__ import annotations

import contextlib
import errno
import logging
import math
import os
import random
import selectors
import socket
import socketserver
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import wire
from .correlation import (
    MatchResult,
    PartialCorrelation,
    compute_partials,
    deserialize_partial,
    finalize,
    prepare_fingerprint,
    prepare_vector,
    reconstruct_partials,
    reconstruct_sum_ints,
    serialize_partial,
)
from .field import ELEMENT_DTYPE, PrimeField
from .fixedpoint import Scaling
from .prnu import DimensionMismatch, GaussianDenoiser, extract_residual
from .sharing import (
    LengthMismatch,
    ShareScheme,
    ShareVector,
    SharingError,
    deserialize_share_vector,
    interpolate_vector,
    lagrange_weights,
    serialize_share_vector,
    serialized_size,
)

_log = logging.getLogger(__name__)


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class TransportError(ProtocolError):
    """A server could not be reached or gave an unusable answer."""


def _causes(failed: Sequence[tuple]) -> str:
    """Each failed server's cause, from (link, exception) records."""
    return "; ".join(str(exc) for _, exc in failed)


class EnrollTimeout(ProtocolError):
    """Enrollment failed at some server; `failed` holds (link, cause) records."""

    def __init__(self, failed: Sequence[tuple]):
        self.points = tuple(link.point for link, _ in failed)
        super().__init__(
            f"enrollment failed at servers {self.points}; rolled back ({_causes(failed)})"
        )


class QuorumNotReached(ProtocolError):
    """Too few partials; `failed` holds the (link, cause) records of the rest."""

    def __init__(self, responded: int, required: int, failed: Sequence[tuple]):
        self.responded = responded
        self.required = required
        super().__init__(
            f"only {responded} of the required {required} servers responded"
            f" ({_causes(failed)})"
        )


class UnknownFingerprint(ProtocolError):
    def __init__(self, points: Sequence[int]):
        self.points = tuple(points)
        super().__init__(f"servers {self.points} do not know this fingerprint id")


class NotApplicable(ProtocolError):
    """Consistency checking needs spare servers beyond the quorum."""


# Observer hook shared by both transports: (server point, "send"/"recv",
# raw frame bytes).  Used for golden traces and confidentiality audits.
Observer = Callable[[int, str, bytes], None]

@dataclass
class ProtocolConfig:
    """Deployment-wide constants every party must agree on."""

    scheme: ShareScheme
    threshold: float
    scaling: Scaling = dc_field(default_factory=Scaling)
    denoiser: GaussianDenoiser = dc_field(default_factory=GaussianDenoiser)
    timeout_ms: int = 5000

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")

    @property
    def quorum(self) -> int:
        return self.scheme.quorum


class ServerStore:
    """One server's share database: fingerprint id -> ShareVector.

    Optionally persistent: one file per id under `directory`, named by
    the hex of the id so arbitrary ids stay filesystem-safe.  An entry
    that cannot be read or parsed, or fails `check`, is logged and
    skipped, so one bad file cannot keep the server from starting.  A
    `.share.tmp` file left by a `put` that crashed before its `os.replace`
    is removed: the `.share` file, if any, is the authoritative copy.  All
    mutations go through one lock.
    """

    def __init__(self, point: int, field: PrimeField, directory: Optional[str] = None):
        self.point = point
        self.field = field
        self.directory = directory
        self._lock = threading.Lock()
        self._vectors: dict[str, ShareVector] = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            for name in os.listdir(directory):
                if name.endswith(".share.tmp"):
                    _log.warning("removing leftover %s in %s", name, directory)
                    with contextlib.suppress(OSError):
                        os.remove(os.path.join(directory, name))
                    continue
                if not name.endswith(".share"):
                    continue
                try:
                    fid = bytes.fromhex(name[: -len(".share")]).decode("utf-8")
                    with open(os.path.join(directory, name), "rb") as fh:
                        self._vectors[fid] = self.check(deserialize_share_vector(fh.read()))
                except (ValueError, OSError) as exc:
                    _log.warning("skipping share file %s in %s: %s", name, directory, exc)

    def _path(self, fid: str) -> str:
        return os.path.join(self.directory, fid.encode("utf-8").hex() + ".share")

    def check(self, vec: ShareVector) -> ShareVector:
        """`vec`, if it is a share at this store's point with every value
        in the field; otherwise ValueError."""
        if vec.point != self.point:
            raise ValueError(f"share for point {vec.point} at server {self.point}")
        if len(vec) and int(vec.values.max()) >= self.field.p:
            raise ValueError(f"share values outside Z_{self.field.p}")
        return vec

    def put(self, fid: str, vec: ShareVector) -> None:
        """Store `vec` under `fid`, on disk first: if the write fails, the
        store keeps the old share in memory and on disk, and no temporary
        file is left behind."""
        self.check(vec)
        with self._lock:
            if self.directory is not None:
                tmp = self._path(fid) + ".tmp"
                try:
                    with open(tmp, "wb") as fh:
                        fh.write(serialize_share_vector(vec))
                    os.replace(tmp, self._path(fid))
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.remove(tmp)
                    raise
            self._vectors[fid] = vec

    def get(self, fid: str) -> Optional[ShareVector]:
        with self._lock:
            return self._vectors.get(fid)

    def delete(self, fid: str) -> None:
        """Drop `fid`, on disk first: if the file cannot be removed, the
        store keeps serving the share, as a reloaded store would."""
        with self._lock:
            if self.directory is not None and os.path.exists(self._path(fid)):
                os.remove(self._path(fid))
            self._vectors.pop(fid, None)

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._vectors)


class _UnknownId(LookupError):
    """A request names an id under which the store holds no share."""


_REFUSALS = (
    (_UnknownId, wire.ERR_UNKNOWN_ID),
    (LengthMismatch, wire.ERR_LENGTH),
    ((wire.FrameError, SharingError, ValueError), wire.ERR_MALFORMED),
    (Exception, wire.ERR_INTERNAL),
)


class CloudServer:
    """Request handler for one share point; transport-agnostic, with no state but its store.

    `handle` returns success frames only and raises every refusal;
    `safe_handle` alone answers it with an ERROR frame: the code of the
    first `_REFUSALS` row that the exception matches, and its text.  It
    logs the traceback of an internal failure (ERR_INTERNAL) only.
    """

    def __init__(self, point: int, cfg: ProtocolConfig, store: Optional[ServerStore] = None):
        if point not in cfg.scheme.evaluation_points:
            raise ValueError(f"point {point} is not part of the scheme")
        self.point = point
        self.cfg = cfg
        self.store = store if store is not None else ServerStore(point, cfg.scheme.field)

    def safe_handle(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        """handle(), with every exception answered by an ERROR frame."""
        try:
            return self.handle(ftype, payload)
        except Exception as exc:
            code = next(code for kind, code in _REFUSALS if isinstance(exc, kind))
            if code == wire.ERR_INTERNAL:
                # The client sees only the text; the traceback stays here.
                _log.exception("server %d: frame type %#04x failed", self.point, ftype)
            return wire.MSG_ERROR, wire.pack_error(code, str(exc))

    def handle(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        if ftype not in (wire.MSG_ENROLL, wire.MSG_QUERY, wire.MSG_FETCH):
            raise wire.FrameError(f"unexpected frame type {ftype:#04x}")
        fid, rest = wire.unpack_identified(payload)
        if ftype == wire.MSG_FETCH:
            return wire.MSG_SHARE, serialize_share_vector(self._stored(fid))
        vec = deserialize_share_vector(rest)
        if ftype == wire.MSG_QUERY:
            qvec = self.store.check(vec)
            pc = compute_partials(self._stored(fid), qvec, self.cfg.scheme)
            return wire.MSG_PARTIAL, serialize_partial(pc)
        if len(vec) == 0:
            # Zero-length vector is the delete marker used for rollback.
            self.store.delete(fid)
        else:
            self.store.put(fid, vec)
        return wire.MSG_ENROLL_ACK, b""

    def _stored(self, fid: str) -> ShareVector:
        stored = self.store.get(fid)
        if stored is None:
            raise _UnknownId(f"no share stored under id {fid!r}")
        return stored


class LocalLink:
    """In-process channel to a CloudServer, moving real frame bytes."""

    def __init__(
        self,
        server: CloudServer,
        observer: Optional[Observer] = None,
        down: bool = False,
    ):
        self.server = server
        self.observer = observer
        self.down = down

    @property
    def point(self) -> int:
        return self.server.point

    def send(self, ftype: int, payload: bytes, deadline: float) -> Future:
        """Run the request at once on the calling thread, unless `deadline`
        (on the time.monotonic clock) has passed; the returned Future of
        (rtype, rpayload) is already done."""
        fut: Future = Future()
        try:
            if time.monotonic() > deadline:
                raise TransportError(f"server {self.point}: request not sent before its deadline")
            fut.set_result(self.request(ftype, payload))
        except Exception as exc:  # kept in the Future, raised by result()
            fut.set_exception(exc)
        return fut

    def request(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        if self.down:
            raise TransportError(f"server {self.point} is unreachable")
        frame = wire.encode_frame(ftype, payload)
        if self.observer is not None:
            self.observer(self.point, "send", frame)
        rtype, rpayload = self.server.safe_handle(ftype, payload)
        reply = wire.encode_frame(rtype, rpayload)
        if self.observer is not None:
            self.observer(self.point, "recv", reply)
        return rtype, rpayload

    def close(self) -> None:
        pass


class TcpLink:
    """Persistent client connection to one server over TCP.

    `send` writes a request frame from the calling thread at once and
    returns the Future of its reply, so requests pipeline on the one
    connection and their replies come back in order.  The process-wide
    `TcpLink-io` thread (`_IoLoop`) reads every link's replies as they
    arrive, stragglers included, and finishes any write the socket did
    not take at once.  A request still unanswered at its deadline fails,
    and its connection is torn down with every request behind it, since
    its late reply would answer the next one; the next `send` connects
    afresh.  `request` is `send` waited on, under a deadline `timeout_ms`
    from now.  `close()` fails every request still out, and each one
    sent later fails as this server's TransportError without opening a
    socket.
    """

    def __init__(
        self,
        point: int,
        address: tuple[str, int],
        timeout_ms: int = 5000,
        observer: Optional[Observer] = None,
    ):
        self.point = point
        self.address = address
        self.timeout = timeout_ms / 1000.0
        self.observer = observer
        # _sending orders senders and close(), and covers a connect's
        # name lookup; _lock guards what the TcpLink-io thread shares.
        self._sending = threading.Lock()
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[_IoLoop] = None
        self._closed = False
        self._pending: deque = deque()  # (Future, deadline) per request out, in send order
        self._out: deque = deque()  # memoryviews of frame bytes the socket has not taken
        self._frames = wire.FrameSplitter()

    def _connect(self) -> None:
        """Start an IPv4 connect, as servers listen, without waiting: frames
        queue until the TcpLink-io thread finds the socket writable, and a
        connect that never completes fails at its requests' deadline."""
        sock = socket.socket()
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            err = sock.connect_ex(self.address)
            if err not in (0, errno.EINPROGRESS):
                raise OSError(err, os.strerror(err))
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def send(self, ftype: int, payload: bytes, deadline: float) -> Future:
        """Write one request now and return the Future of its reply,
        (rtype, rpayload).  A request that cannot go out fails as this
        server's TransportError; so does one still unanswered at
        `deadline`, on the time.monotonic clock."""
        with self._sending:
            now = time.monotonic()
            if self._closed:
                return self._failed("link closed")
            if now > deadline:
                return self._failed("request not sent before its deadline")
            with self._lock:
                if self._overdue(now):
                    self._drop("no reply by the deadline")
                fresh = self._sock is None
            try:
                frame = wire.encode_frame(ftype, payload)
                if fresh:
                    self._connect()  # outside self._lock, which the TcpLink-io thread takes
                    if self._loop is None:
                        self._loop = _IoLoop.join(self)
            except (OSError, wire.FrameError) as exc:
                return self._failed(exc)
            fut: Future = Future()
            with self._lock:
                if self.observer is not None:
                    self.observer(self.point, "send", frame)
                self._pending.append((fut, deadline))
                waiting = bool(self._out)
                self._out.append(memoryview(frame))
                try:
                    self._flush()
                except OSError as exc:
                    self._drop(str(exc))
                    return fut
                # The loop learns of a fresh socket only now, with the
                # request queued, so it cannot tear it down before.
                if fresh or (self._out and not waiting):
                    self._loop.watch(self)
            self._loop.expect(deadline)
            return fut

    def request(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        """One request, waited on; its failure raises TransportError."""
        return self.send(ftype, payload, time.monotonic() + self.timeout).result()

    def _failed(self, cause) -> Future:
        """A Future that has already failed as this server's TransportError."""
        fut: Future = Future()
        fut.set_exception(TransportError(f"server {self.point}: {cause}"))
        return fut

    # -- called with self._lock held -------------------------------------------

    def _overdue(self, now: float) -> bool:
        return any(deadline < now for _, deadline in self._pending)

    def _flush(self) -> None:
        """Write queued bytes until the socket takes no more."""
        while self._out:
            view = self._out[0]
            try:
                sent = self._sock.send(view)
            except BlockingIOError:
                return
            if sent < len(view):
                self._out[0] = view[sent:]
                return
            self._out.popleft()

    def _drop(self, cause: str) -> None:
        """Tear the connection down; every request out fails with `cause`."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.retire(sock)
        self._out.clear()
        self._frames = wire.FrameSplitter()
        while self._pending:
            fut, _ = self._pending.popleft()
            fut.set_exception(TransportError(f"server {self.point}: {cause}"))

    # -- called by the TcpLink-io thread ---------------------------------------

    def _on_ready(self, sock: socket.socket, mask: int, buf: bytearray) -> None:
        """Write what the socket takes and read what has arrived; a reply
        completes the oldest request out."""
        with self._lock:
            if sock is not self._sock:
                return  # torn down; the loop closes it
            try:
                if mask & selectors.EVENT_WRITE:
                    self._flush()
                if mask & selectors.EVENT_READ:
                    try:
                        count = sock.recv_into(buf)
                    except BlockingIOError:
                        return
                    if count == 0:
                        raise wire.ConnectionClosed("stream closed")
                    with memoryview(buf) as view:
                        frames = self._frames.feed(view[:count])
                    for rtype, rpayload in frames:
                        if not self._pending:
                            raise wire.FrameError(f"unsolicited frame type {rtype:#04x}")
                        if self.observer is not None:
                            self.observer(self.point, "recv", wire.encode_frame(rtype, rpayload))
                        self._pending.popleft()[0].set_result((rtype, rpayload))
            except (OSError, wire.FrameError) as exc:
                self._drop(str(exc))
            except Exception as exc:  # the TcpLink-io thread serves every link: keep it running
                _log.exception("server %d: reply handling failed", self.point)
                self._drop(f"reply handling failed: {exc}")

    def _expire(self, now: float) -> float:
        """Tear the connection down if a request out has passed its
        deadline; returns the earliest deadline still pending."""
        with self._lock:
            if self._overdue(now):
                self._drop("no reply by the deadline")
            return min((deadline for _, deadline in self._pending), default=math.inf)

    def _interest(self) -> tuple[Optional[socket.socket], int]:
        """The socket to watch and the events to watch it for."""
        with self._lock:
            return self._sock, selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)

    def close(self) -> None:
        with self._sending, self._lock:
            self._closed = True
            self._drop("link closed")
            loop, self._loop = self._loop, None
        if loop is not None:
            loop.leave(self)


class _IoLoop:
    """One life of the process-wide `TcpLink-io` thread.

    The thread starts when the first TcpLink connects and ends when the
    last connected link closes; a link that connects after that starts a
    new one.  It runs a `selectors` loop over every link's socket: it
    reads replies and hands each to its link, finishes writes the socket
    did not take at once, fails requests whose deadline has passed, and
    unregisters and closes the sockets that links tear down.  Only this
    thread touches the selector; links tell it what changed through
    `watch`, `expect` and `retire`, which wake it through a socket pair.
    Lock order: a link's lock, then `_IoLoop._lock`, never the reverse.
    """

    _lock = threading.Lock()  # the current loop and every loop's fields below
    _current: Optional["_IoLoop"] = None

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._links: set = set()
        self._changed: set = set()  # links whose socket or writes changed
        self._retired: list = []  # sockets torn down, to unregister and close
        self._due = math.inf  # no request out has an earlier deadline
        self._woken = False
        self._stopping = False
        self._thread = threading.Thread(target=self._run, name="TcpLink-io", daemon=True)

    @classmethod
    def join(cls, link: TcpLink) -> "_IoLoop":
        with cls._lock:
            loop = cls._current
            if loop is None:
                loop = cls._current = cls()
                loop._thread.start()
            loop._links.add(link)
            return loop

    def leave(self, link: TcpLink) -> None:
        """`link` closed; the last link to leave ends the thread and waits for it."""
        with self._lock:
            self._links.discard(link)
            if self._links:
                return
            self._stopping = True
            if _IoLoop._current is self:
                _IoLoop._current = None
            self._wake()
        if threading.current_thread() is not self._thread:
            self._thread.join()

    def watch(self, link: TcpLink) -> None:
        with self._lock:
            self._changed.add(link)
            self._wake()

    def expect(self, deadline: float) -> None:
        """A request with `deadline` is out."""
        with self._lock:
            if deadline < self._due:
                self._due = deadline
                self._wake()

    def retire(self, sock: socket.socket) -> None:
        with self._lock:
            self._retired.append(sock)
            self._wake()

    def _wake(self) -> None:
        # Called with _lock held.
        if not self._woken:
            self._woken = True
            self._wake_w.send(b"\0")

    def _run(self) -> None:
        buf = bytearray(1 << 16)
        try:
            while True:
                now = time.monotonic()
                with self._lock:
                    retired, self._retired = self._retired, []
                    changed, self._changed = self._changed, set()
                    stopping = self._stopping
                    links = list(self._links) if self._due <= now else []
                    if links:
                        self._due = math.inf  # lowered again by each `expect` from here on
                for sock in retired:
                    with contextlib.suppress(KeyError):
                        self._selector.unregister(sock)
                    sock.close()
                if stopping:
                    return
                for link in changed:
                    self._register(link)
                # Only once a deadline is due: fail what is overdue and
                # find the next deadline among the requests still out.
                due = min((link._expire(now) for link in links), default=math.inf)
                with self._lock:
                    self._due = min(self._due, due)
                    timeout = None if self._due == math.inf else max(0.0, self._due - now)
                for key, mask in self._selector.select(timeout):
                    if key.data is None:
                        # Drained before the flag drops: a wake in between
                        # sends no byte, and the next pass reads its change.
                        with contextlib.suppress(BlockingIOError):
                            while self._wake_r.recv(64):
                                pass
                        with self._lock:
                            self._woken = False
                        continue
                    key.data._on_ready(key.fileobj, mask, buf)
                    if mask & selectors.EVENT_WRITE:
                        self._register(key.data)
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._wake_w.close()

    def _register(self, link: TcpLink) -> None:
        """Watch `link`'s current socket for what it needs."""
        sock, events = link._interest()
        if sock is None:
            return
        try:
            if self._selector.get_key(sock).events != events:
                self._selector.modify(sock, events, link)
        except KeyError:
            self._selector.register(sock, events, link)


def flip_one_element(rng: random.Random, p: int) -> Callable[[ShareVector], ShareVector]:
    """Tamper rule: replace one stored element with a uniform field value."""

    def rule(vec: ShareVector) -> ShareVector:
        values = vec.values.copy()
        values[rng.randrange(len(values))] = rng.randrange(p)
        return ShareVector(vec.point, values)

    return rule


class LocalCluster:
    """All n servers plus their links, wired up in one process."""

    def __init__(
        self,
        cfg: ProtocolConfig,
        store_root: Optional[str] = None,
        observer: Optional[Observer] = None,
    ):
        self.cfg = cfg
        self.servers: dict[int, CloudServer] = {}
        self.links: list[LocalLink] = []
        for u in cfg.scheme.evaluation_points:
            directory = os.path.join(store_root, f"server_{u}") if store_root else None
            server = CloudServer(u, cfg, ServerStore(u, cfg.scheme.field, directory))
            self.servers[u] = server
            self.links.append(LocalLink(server, observer=observer))

    def set_down(self, points: Sequence[int]) -> None:
        down = set(points)
        for link in self.links:
            link.down = link.point in down

    def tamper_stored(
        self, point: int, fid: str, rule: Callable[[ShareVector], ShareVector]
    ) -> None:
        store = self.servers[point].store
        vec = store.get(fid)
        if vec is None:
            raise KeyError(f"server {point} has no share for {fid!r}")
        store.put(fid, rule(vec))


# ---------------------------------------------------------------------------
# Trusted-side drivers.


def _check_request(links: Sequence, cfg: ProtocolConfig, fid: str, count: int) -> None:
    """Refuse, before any request is sent, links that do not cover the
    scheme's points in order, or an ENROLL or QUERY frame whose
    `count`-element share vector would exceed `wire.MAX_FRAME`."""
    points = tuple(link.point for link in links)
    if points != tuple(cfg.scheme.evaluation_points):
        raise ValueError(
            f"links cover points {points}, scheme expects {cfg.scheme.evaluation_points}"
        )
    wire.check_frame_length(1 + len(wire.pack_identified(fid)) + serialized_size(count))


class _ServerRefusal(TransportError):
    """A server's ERROR frame of any code but an unknown id; `code` stays private."""

    def __init__(self, point: int, code: int, message: str):
        self.code = code
        super().__init__(f"server {point}: {message} (code {code})")


def _expect(link, want: int, reply: tuple[int, bytes], parse: Callable = bytes):
    """`parse` of the payload of `link`'s `reply` if it is a `want` frame.

    The one place that decodes an ERROR frame: ERR_UNKNOWN_ID raises
    UnknownFingerprint for that server, any other code its
    _ServerRefusal.  A frame of any other type, or a payload that `parse`
    or the ERROR's layout refuses with ValueError, raises its TransportError.
    """
    rtype, rpayload = reply
    if rtype not in (want, wire.MSG_ERROR):
        raise TransportError(f"server {link.point} sent frame type {rtype:#04x}")
    try:
        if rtype == want:
            return parse(rpayload)
        code, message = wire.unpack_error(rpayload)
    except ValueError as exc:
        raise TransportError(f"server {link.point}: {exc}") from exc
    if code == wire.ERR_UNKNOWN_ID:
        raise UnknownFingerprint([link.point])
    raise _ServerRefusal(link.point, code, message)


def _gather(
    links: Sequence, requests: Iterable[tuple], cfg: ProtocolConfig, stop_at=None
) -> list[tuple]:
    """Send the i-th of `requests`, a (frame type, payload, parser)
    triple, on `links[i]` under one deadline, and parse the replies.

    Each request is drawn just before its link sends it, so a payload is
    built while the ones before it travel.  The deadline is
    `cfg.timeout_ms` from now; a link fails each request still
    unanswered by then.  Waiting ends at the deadline, once every server
    replied, or once `stop_at` replies parsed; the links read the late
    replies.  Each reply goes through `parser(link, (rtype, rpayload))`
    on the calling thread.  Returns one (link, parsed reply or exception)
    record per server, in arrival order, those that arrive together in
    link order.  Each server not heard from when waiting ends gets a
    TransportError record.
    """
    deadline = time.monotonic() + cfg.timeout_ms / 1000.0
    sent = [
        (link, link.send(ftype, payload, deadline), parse)
        for link, (ftype, payload, parse) in zip(links, requests)
    ]
    records: list[tuple] = []
    succeeded = 0
    pending = {fut for _, fut, _ in sent}
    while pending and (stop_at is None or succeeded < stop_at):
        remaining = max(0.0, deadline - time.monotonic())
        done, pending = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
        if not done:
            break
        for link, fut, parse in sent:
            if fut not in done:
                continue
            try:
                records.append((link, parse(link, fut.result())))
                succeeded += 1
            except ProtocolError as exc:
                records.append((link, exc))
    records.extend(
        (link, TransportError(f"server {link.point}: no reply by the deadline"))
        for link, fut, _ in sent
        if fut in pending
    )
    return records


def _parse_ack(link, reply: tuple[int, bytes]) -> bytes:
    return _expect(link, wire.MSG_ENROLL_ACK, reply)


def _enroll_requests(fid: str, vectors: Sequence[ShareVector]):
    """One ENROLL request per share vector, serialized as `_gather` draws
    it: each frame is on the wire while the next is serialized."""
    for vec in vectors:
        yield wire.MSG_ENROLL, wire.pack_identified(fid, serialize_share_vector(vec)), _parse_ack


def enroll(
    fingerprint: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> tuple[int, ...]:
    """Share a fingerprint and its square sum Q to every server; all-or-nothing.

    The n ENROLLs go out as one `_gather`, and every server must
    acknowledge by its deadline.  Otherwise every server gets a delete
    marker under a second deadline, since one that did not acknowledge
    may still store the share (a lost or late ACK) or keep an older one
    (a refused re-enroll); then EnrollTimeout names each failed server
    and its cause.  A failed enrollment thus costs at most two deadlines.
    On its link the marker follows the server's ENROLL.  One race
    remains: a TcpLink whose ENROLL timed out sends the marker on a
    fresh connection, and a server still working on that ENROLL can
    store the share after the marker deleted it.
    """
    _check_request(links, cfg, fid, np.size(fingerprint) + 1)
    vectors = prepare_fingerprint(fingerprint, cfg.scaling, cfg.scheme, rng)
    records = _gather(links, _enroll_requests(fid, vectors), cfg)
    failed = [(link, result) for link, result in records if isinstance(result, Exception)]
    if failed:
        markers = [ShareVector(link.point, []) for link in links]
        # Best effort; the id was never fully enrolled.
        _gather(links, _enroll_requests(fid, markers), cfg)
        raise EnrollTimeout(failed)
    return tuple(link.point for link in links)


def _parse_partial(link, reply: tuple[int, bytes]) -> PartialCorrelation:
    pc = _expect(link, wire.MSG_PARTIAL, reply, deserialize_partial)
    if pc.point != link.point:
        raise TransportError(f"server {link.point} answered for point {pc.point}")
    return pc


def _no_quorum(
    responded: int, records: list[tuple], cfg: ProtocolConfig
) -> ProtocolError | DimensionMismatch:
    """The error for a gather of partials that fell short of the quorum:
    UnknownFingerprint if a server lacks the id, else DimensionMismatch if
    one refused the query's length (ERR_LENGTH, an image of another size),
    else QuorumNotReached, which names every other failure and refusal."""
    failed = [(link, result) for link, result in records if isinstance(result, Exception)]
    unknown = [u for _, exc in failed if isinstance(exc, UnknownFingerprint) for u in exc.points]
    if unknown:
        return UnknownFingerprint(unknown)
    length = [exc for _, exc in failed if getattr(exc, "code", None) == wire.ERR_LENGTH]
    if length:
        return DimensionMismatch("servers refused the query: " + "; ".join(map(str, length)))
    return QuorumNotReached(responded, cfg.quorum, failed)


def _query_servers(
    residual: np.ndarray, fid: str, cfg: ProtocolConfig, links: Sequence, rng, stop_at
) -> tuple[int, list[ShareVector], list[PartialCorrelation]]:
    """Share a residual out as QUERYs and gather the partials.

    Returns the residual's own square sum R, the query shares sent and
    the partials in arrival order; fewer than a quorum raise
    `_no_quorum`'s error.
    """
    flat = np.asarray(residual, dtype=np.float64).ravel()
    _check_request(links, cfg, fid, flat.size)
    vectors, r_int = prepare_vector(flat, cfg.scaling, cfg.scheme, rng)
    requests = (
        (wire.MSG_QUERY, wire.pack_identified(fid, serialize_share_vector(vec)), _parse_partial)
        for vec in vectors
    )
    records = _gather(links, requests, cfg, stop_at)
    parts = [result for _, result in records if isinstance(result, PartialCorrelation)]
    if len(parts) < cfg.quorum:
        raise _no_quorum(len(parts), records, cfg)
    return r_int, vectors, parts


def query_residual(
    residual: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> MatchResult:
    """Correlate an already-extracted residual against an enrolled id."""
    r_int, _, parts = _query_servers(residual, fid, cfg, links, rng, stop_at=cfg.quorum)
    first = parts[: cfg.quorum]
    p_val, q_val, r_val = reconstruct_partials(first, r_int, cfg.scheme, cfg.scaling)
    return finalize(
        p_val, q_val, r_val, cfg.threshold, server_subset=[pc.point for pc in first]
    )


def query(
    image: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> MatchResult:
    """Full query path: residual extraction, then encrypted correlation."""
    residual = extract_residual(np.asarray(image, dtype=np.float64), cfg.denoiser)
    return query_residual(residual, fid, cfg, links, rng)


def _parse_share(link, reply: tuple[int, bytes]) -> ShareVector:
    return _expect(link, wire.MSG_SHARE, reply, deserialize_share_vector)


def fetch_share(fid: str, link) -> ShareVector:
    """Pull one server's stored share for auditing."""
    return _parse_share(link, link.request(wire.MSG_FETCH, wire.pack_identified(fid)))


@dataclass
class ConsistencyReport:
    """Outcome of cross-checking every quorum subset of one query.

    `audit` says how the suspects were located: "none" when every subset
    agreed, "probe" when the probe round named them, "fetch" when the
    stored shares were fetched and audited.
    """

    consistent: bool
    responding: tuple[int, ...]
    triples: dict[tuple[int, ...], tuple[int, int, int]]
    suspects: tuple[int, ...]
    implicated: dict[int, list[tuple[int, ...]]]
    audit: str


# A probe's public weights are uniform in [0, 2**21): one limb each.
_PROBE_BITS = 21


def _probe_stores(
    links: Sequence, fid: str, count: int, cfg: ProtocolConfig, rng: random.Random
) -> Optional[set[int]]:
    """The servers whose stores one probe round locates as tampered, or
    None if its answers cannot be decoded.

    The probe is an ordinary QUERY to each of `links`, whose vector is
    one public rho: `count` weights uniform in [0, 2**21), drawn from
    `rng`, the same for every server and stamped with its point.  Its
    PARTIAL then carries sum_k rho_k * a_u,k over the stored elements
    0..N-1, beside the stored Q share, element N.  Over honest stores
    both lie on polynomials of degree l-1 in u; `_decode_errors` names
    the points that leave them.  A tampered element k escapes only if
    rho_k is 0, with probability 2**-21; a tampered Q share never does.
    """
    mask = (1 << _PROBE_BITS) - 1
    rho = (np.frombuffer(rng.randbytes(4 * count), dtype="<u4") & mask).astype(ELEMENT_DTYPE)
    requests = (
        (
            wire.MSG_QUERY,
            wire.pack_identified(fid, serialize_share_vector(ShareVector(link.point, rho))),
            _parse_partial,
        )
        for link in links
    )
    parts = [pc for _, pc in _gather(links, requests, cfg) if isinstance(pc, PartialCorrelation)]
    return _decode_errors(
        [pc.point for pc in parts],
        ([pc.p_share for pc in parts], [pc.q_share for pc in parts]),
        cfg.scheme.l,
        cfg.scheme.field,
    )


def _decode_errors(
    points: Sequence[int], columns: Sequence[Sequence[int]], l: int, field: PrimeField
) -> Optional[set[int]]:
    """The points whose values, in some column, leave the one polynomial
    of degree l-1 through all the others; None if a column cannot be
    decoded.  Each column holds one value per point.

    Reed-Solomon unique decoding: of m values, up to t = (m-l) // 2
    wrong ones are located, since two polynomials that each miss at most
    t values share m-2t >= l of them and are one.  Each l-subset of the
    points is tried as the base until the polynomial through it misses at
    most t values of the column; with none such, the column has more
    than t wrong values.  A value outside [0, p) is wrong under every
    base.  Each base's Lagrange weights to the other points are computed
    once and serve every column.
    """
    p, m = field.p, len(points)
    if m < l:
        return None
    t = (m - l) // 2
    bases: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    located: set[int] = set()
    for column in columns:
        for base in combinations(range(m), l):
            if any(column[i] >= p for i in base):
                continue
            if base not in bases:
                at = [points[i] for i in base]
                bases[base] = [
                    (x, lagrange_weights(at, points[x], field)) for x in range(m) if x not in base
                ]
            wrong = {
                points[x]
                for x, weights in bases[base]
                if sum(w * column[i] for w, i in zip(weights, base)) % p != column[x]
            }
            if len(wrong) <= t:
                located |= wrong
                break
        else:
            return None
    return located


def _audit_stored_shares(
    fetched: dict[int, ShareVector], scheme: ShareScheme
) -> set[int]:
    """Identify servers whose stored vector leaves the polynomial.

    Each candidate s is tested by leave-one-out: the polynomial through
    the first l of the other points is evaluated at every remaining
    point, and s is a suspect when it alone deviates, in some column.

    The work follows the disagreement, not the vector length.  A screen
    interpolates from the first l points to each of the n-l others over
    the whole vector: (n-l) full interpolations.  For a candidate
    outside those l points the leave-one-out base is the same l points,
    so its deviations are the screen's.  A column where the screen finds
    no deviation, and the base holds residues, lies on one polynomial
    of degree l-1 and deviates under no base; so each of the l base
    candidates interpolates over the flagged columns only: l*(n-l)
    interpolations of that width.  A tampered value that collides with
    the original is indistinguishable and escapes.
    """
    f = scheme.field
    points = sorted(fetched)
    if len(points) <= scheme.l:
        return set()
    length = min(len(fetched[u]) for u in points)
    values = {u: fetched[u].values[:length] for u in points}
    base, rest = points[: scheme.l], points[scheme.l :]
    base_rows = [values[u] for u in base]
    screen = [interpolate_vector(base, base_rows, t, f) != values[t] for t in rest]
    deviating = [t for t, mask in zip(rest, screen) if mask.any()]
    suspects = set(deviating) if len(deviating) == 1 else set()
    columns = np.flatnonzero(np.logical_or.reduce(screen + [row >= f.p for row in base_rows]))
    if columns.size == 0:
        return suspects
    flagged = {u: values[u][columns] for u in points}
    for s in base:
        others = [u for u in points if u != s]
        base_s, rest_s = others[: scheme.l], others[scheme.l :]
        base_s_rows = [flagged[u] for u in base_s]
        deviating = [
            t
            for t in rest_s + [s]
            if not np.array_equal(interpolate_vector(base_s, base_s_rows, t, f), flagged[t])
        ]
        if deviating == [s]:
            suspects.add(s)
    return suspects


def _audit_partials(
    fetched: dict[int, ShareVector],
    sent: dict[int, ShareVector],
    received: dict[int, PartialCorrelation],
    cfg: ProtocolConfig,
) -> set[int]:
    """Replay each server's local computation from its fetched store.

    A mismatch means the server lied about its arithmetic (a tampered
    store replays consistently and is caught by the polynomial audit
    instead).
    """
    suspects: set[int] = set()
    for u, pc in received.items():
        if u not in fetched or u not in sent:
            continue
        try:
            expected = compute_partials(fetched[u], sent[u], cfg.scheme)
        except Exception:
            suspects.add(u)
            continue
        if (expected.p_share, expected.q_share) != (pc.p_share, pc.q_share):
            suspects.add(u)
    return suspects


def verify_residual(
    residual: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> ConsistencyReport:
    """Cross-check reconstruction over every quorum subset of servers.

    All subsets agree exactly on the integer (P, Q, R) triple when
    nobody tampered; R is the querier's own, the same in every triple,
    so P and Q carry the comparison.  Spare servers beyond the quorum
    are what make any of this observable.

    On disagreement, every server that answered gets one probe
    (`_probe_stores`), a QUERY whose public weights rho are drawn from
    `rng`, or from the system RNG when it is None.  Only when the probe
    names no store, or its answers cannot be decoded, are the stored
    shares fetched and audited: `_audit_stored_shares` and
    `_audit_partials`, which also names a server whose store is clean but
    whose sums lie.  The probe locates stores only, up to (m-l) // 2 of
    the m that answer it: at (2, 4), a second server that lies only about
    its sums, beside a tampered store, is not named.  That case is beyond
    one fault.  A tampered verify thus waits at most three deadlines: the
    verify's, the probe's and the FETCH's.
    """
    scheme = cfg.scheme
    if scheme.n == scheme.quorum:
        raise NotApplicable(
            "with n equal to the quorum there is a single subset and nothing to compare"
        )
    r_int, vectors, parts = _query_servers(residual, fid, cfg, links, rng, stop_at=None)
    sent = {vec.point: vec for vec in vectors}
    parts = sorted(parts, key=lambda pc: pc.point)
    by_point = {pc.point: pc for pc in parts}
    responding = tuple(pc.point for pc in parts)

    triples: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for subset in combinations(parts, cfg.quorum):
        key = tuple(pc.point for pc in subset)
        triples[key] = reconstruct_sum_ints(subset, r_int, scheme)
    consistent = len(set(triples.values())) == 1

    suspects: set[int] = set()
    implicated: dict[int, list[tuple[int, ...]]] = {}
    audit = "none"
    if not consistent:
        answered = [link for link in links if link.point in by_point]
        probe_rng = rng if rng is not None else random.SystemRandom()
        located = _probe_stores(answered, fid, len(vectors[0]), cfg, probe_rng)
        if located:
            audit, suspects = "probe", located
        else:
            audit = "fetch"
            fetch = (wire.MSG_FETCH, wire.pack_identified(fid), _parse_share)
            records = _gather(answered, [fetch] * len(answered), cfg)
            fetched = {link.point: vec for link, vec in records if isinstance(vec, ShareVector)}
            suspects = _audit_stored_shares(fetched, scheme)
            suspects |= _audit_partials(fetched, sent, by_point, cfg)
        honest = _honest_triple(triples, suspects)
        for s in sorted(suspects):
            bad = [
                subset
                for subset, triple in sorted(triples.items())
                if s in subset and (honest is None or triple != honest)
            ]
            implicated[s] = bad
    return ConsistencyReport(
        consistent=consistent,
        responding=responding,
        triples=triples,
        suspects=tuple(sorted(suspects)),
        implicated=implicated,
        audit=audit,
    )


def _honest_triple(
    triples: dict[tuple[int, ...], tuple[int, int, int]], suspects: set[int]
) -> Optional[tuple[int, int, int]]:
    """The agreed triple of subsets that avoid every suspect, if any."""
    clean = [t for subset, t in triples.items() if not (set(subset) & suspects)]
    if clean and all(t == clean[0] for t in clean):
        return clean[0]
    return None


def verify_consistency(
    image: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> ConsistencyReport:
    residual = extract_residual(np.asarray(image, dtype=np.float64), cfg.denoiser)
    return verify_residual(residual, fid, cfg, links, rng)


# ---------------------------------------------------------------------------
# TCP serving side.


class _FrameHandler(socketserver.StreamRequestHandler):
    # A client pipelines requests, so one reply can follow another that is
    # not yet acknowledged; Nagle's algorithm would hold it until the
    # client's delayed ACK, some 40 ms.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: CloudServer = self.server.cloud_server  # type: ignore[attr-defined]
        while True:
            try:
                ftype, payload = wire.read_frame(self.rfile)
            except wire.ConnectionClosed:
                return
            except wire.FrameError as exc:
                # Framing is gone; answer once and drop the connection.
                try:
                    wire.write_frame(
                        self.wfile,
                        wire.MSG_ERROR,
                        wire.pack_error(wire.ERR_MALFORMED, str(exc)),
                    )
                except OSError:
                    pass
                return
            rtype, rpayload = server.safe_handle(ftype, payload)
            try:
                wire.write_frame(self.wfile, rtype, rpayload)
            except OSError:
                return


class TcpCloudServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], cloud_server: CloudServer):
        super().__init__(address, _FrameHandler)
        self.cloud_server = cloud_server

