"""Four-party matching protocol over untrusting cloud servers.

Entities and their trust boundaries:

  * Fingerprint Source: owns camera fingerprints, shares them out once
    at enrollment time.
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
through `_gather`, which hands it to `link.submit(fn, deadline)`.  LocalLink
runs it at once on the calling thread: an in-process server shares the
caller's interpreter lock, so a thread would add start-up cost and no
overlap.  TcpLink queues it on its one long-lived worker thread, so the
n servers of a fan-out work in parallel while each link carries one
request at a time, in order.  A request that its link reaches only
after its deadline fails with TransportError and is never sent, so a
hung server costs each query at most one wait and never a thread.
"""

from __future__ import annotations

import contextlib
import logging
import os
import random
import socket
import socketserver
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from . import wire
from .correlation import (
    MatchResult,
    PartialCorrelation,
    compute_partials,
    deserialize_partial,
    finalize,
    prepare_vector,
    reconstruct_partials,
    reconstruct_sum_ints,
    serialize_partial,
)
from .field import PrimeField
from .fixedpoint import Scaling
from .prnu import DimensionMismatch, GaussianDenoiser, extract_residual
from .sharing import (
    ShareScheme,
    ShareVector,
    SharingError,
    deserialize_share_vector,
    interpolate_vector,
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

_T = TypeVar("_T")


def _run_by(deadline: float, point: int, fn: Callable[[], _T]) -> _T:
    """Run a request for server `point` unless `deadline` (on the
    time.monotonic clock) has passed; then it fails unsent."""
    if time.monotonic() > deadline:
        raise TransportError(f"server {point}: request not started before its deadline")
    return fn()


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
    the hex of the id so arbitrary ids stay filesystem-safe.  A file that
    does not parse, holds another point's share or holds values outside
    `field` is logged and skipped, so one bad file cannot keep the server
    from starting.  A `.share.tmp` file left by a `put` that crashed
    before its `os.replace` is removed: the `.share` file, if any, is the
    authoritative copy.  All mutations go through one lock.
    """

    def __init__(self, point: int, field: PrimeField, directory: Optional[str] = None):
        self.point = point
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
                        vec = self._check_point(deserialize_share_vector(fh.read()))
                    if len(vec) and int(vec.values.max()) >= field.p:
                        raise ValueError(f"share values outside Z_{field.p}")
                    self._vectors[fid] = vec
                except ValueError as exc:
                    _log.warning("skipping share file %s in %s: %s", name, directory, exc)

    def _path(self, fid: str) -> str:
        return os.path.join(self.directory, fid.encode("utf-8").hex() + ".share")

    def _check_point(self, vec: ShareVector) -> ShareVector:
        if vec.point != self.point:
            raise ValueError(f"share for point {vec.point} stored at server {self.point}")
        return vec

    def put(self, fid: str, vec: ShareVector) -> None:
        """Store `vec` under `fid`, on disk first: if the write fails, the
        store keeps the old share in memory and on disk, and no temporary
        file is left behind."""
        self._check_point(vec)
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


class CloudServer:
    """Request handler for one share point; transport-agnostic."""

    def __init__(self, point: int, cfg: ProtocolConfig, store: Optional[ServerStore] = None):
        if point not in cfg.scheme.evaluation_points:
            raise ValueError(f"point {point} is not part of the scheme")
        self.point = point
        self.cfg = cfg
        self.store = store if store is not None else ServerStore(point, cfg.scheme.field)
        self._own: dict[str, tuple] = {}  # fid -> (stored vector, its Q share)

    def safe_handle(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        """handle() with every failure mapped to an ERROR frame."""
        try:
            return self.handle(ftype, payload)
        except (wire.FrameError, SharingError, ValueError) as exc:
            return wire.MSG_ERROR, wire.pack_error(wire.ERR_MALFORMED, str(exc))
        except Exception as exc:
            return wire.MSG_ERROR, wire.pack_error(wire.ERR_INTERNAL, str(exc))

    def handle(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        if ftype == wire.MSG_ENROLL:
            return self._enroll(payload)
        if ftype == wire.MSG_QUERY:
            return self._query(payload)
        if ftype == wire.MSG_FETCH:
            return self._fetch(payload)
        return wire.MSG_ERROR, wire.pack_error(
            wire.ERR_MALFORMED, f"unexpected frame type {ftype:#04x}"
        )

    def _check_vector(self, vec: ShareVector) -> None:
        if vec.point != self.point:
            raise wire.FrameError(
                f"share for point {vec.point} routed to server {self.point}"
            )
        if len(vec) and int(vec.values.max()) >= self.cfg.scheme.field.p:
            raise wire.FrameError("share values outside the field")

    def _enroll(self, payload: bytes) -> tuple[int, bytes]:
        fid, rest = wire.unpack_identified(payload)
        vec = deserialize_share_vector(rest)
        self._own.pop(fid, None)
        if len(vec) == 0:
            # Zero-length vector is the delete marker used for rollback.
            self.store.delete(fid)
            return wire.MSG_ENROLL_ACK, b""
        self._check_vector(vec)
        self.store.put(fid, vec)
        return wire.MSG_ENROLL_ACK, b""

    def _query(self, payload: bytes) -> tuple[int, bytes]:
        fid, rest = wire.unpack_identified(payload)
        qvec = deserialize_share_vector(rest)
        self._check_vector(qvec)
        stored = self.store.get(fid)
        if stored is None:
            return wire.MSG_ERROR, wire.pack_error(
                wire.ERR_UNKNOWN_ID, f"no share stored under id {fid!r}"
            )
        if len(qvec) != len(stored):
            raise wire.FrameError(
                f"query has {len(qvec)} elements but id {fid!r} was enrolled with {len(stored)}"
            )
        # Cached from the id's first QUERY until its next ENROLL; an entry for
        # a vector the store no longer holds (tampered, reloaded) is refilled.
        entry = self._own.get(fid)
        q = entry[1] if entry is not None and entry[0] is stored else None
        pc = compute_partials(stored, qvec, self.cfg.scheme, q)
        self._own[fid] = (stored, pc.q_share)
        return wire.MSG_PARTIAL, serialize_partial(pc)

    def _fetch(self, payload: bytes) -> tuple[int, bytes]:
        fid, _ = wire.unpack_identified(payload)
        stored = self.store.get(fid)
        if stored is None:
            return wire.MSG_ERROR, wire.pack_error(
                wire.ERR_UNKNOWN_ID, f"no share stored under id {fid!r}"
            )
        return wire.MSG_SHARE, serialize_share_vector(stored)


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

    def submit(self, fn: Callable[[], _T], deadline: float) -> Future:
        """Run `fn` at once on the calling thread; the returned Future is
        already done."""
        fut: Future = Future()
        try:
            fut.set_result(_run_by(deadline, self.point, fn))
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

    `submit` queues requests on the link's one worker thread, which
    starts on first use and runs them one at a time, in order.  `request`
    may also be called directly; a lock keeps the two from interleaving
    frames on the socket.  `close()` ends the worker: requests still
    queued are cancelled, the one in flight fails at once, and each one
    submitted or requested later fails as this server's TransportError
    without opening a socket.
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
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._closed = False
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"TcpLink-{point}")

    def submit(self, fn: Callable[[], _T], deadline: float) -> Future:
        """Queue `fn` behind this link's earlier requests.  After `close()`
        the returned Future has already failed with TransportError."""
        try:
            return self._worker.submit(_run_by, deadline, self.point, fn)
        except RuntimeError:  # the worker was shut down by close()
            fut: Future = Future()
            fut.set_exception(TransportError(f"server {self.point}: link closed"))
            return fut

    def _connect(self) -> None:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._fh = sock.makefile("rwb")

    def request(self, ftype: int, payload: bytes) -> tuple[int, bytes]:
        with self._lock:
            if self._closed:
                raise TransportError(f"server {self.point}: link closed")
            try:
                if self._fh is None:
                    self._connect()
                frame = wire.encode_frame(ftype, payload)
                if self.observer is not None:
                    self.observer(self.point, "send", frame)
                self._fh.write(frame)
                self._fh.flush()
                rtype, rpayload = wire.read_frame(self._fh)
            except (OSError, wire.ConnectionClosed, wire.FrameError) as exc:
                self._teardown()
                raise TransportError(f"server {self.point}: {exc}") from exc
            if self.observer is not None:
                self.observer(self.point, "recv", wire.encode_frame(rtype, rpayload))
            return rtype, rpayload

    def _teardown(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._fh = None
        self._sock = None

    def close(self) -> None:
        # `request` reads this under the lock: once it is set, no request
        # opens a socket.
        self._closed = True
        self._worker.shutdown(wait=False, cancel_futures=True)
        sock = self._sock
        if sock is not None:
            # Wakes a worker blocked on a server that does not answer.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._worker.shutdown(wait=True)
        with self._lock:
            self._teardown()


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


class _ServerRefusal(Exception):
    """ERROR frame from a server, kept out of the public exception set."""

    def __init__(self, point: int, code: int, message: str):
        self.point = point
        self.code = code
        super().__init__(f"server {point}: {message} (code {code})")


def _expect(link, want: int, reply: tuple[int, bytes]) -> bytes:
    """The payload of `link`'s `reply` if it is a `want` frame.

    An ERROR raises that server's _ServerRefusal; an ERROR that does not
    parse, or a frame of any other type, raises its TransportError.
    """
    rtype, rpayload = reply
    if rtype == want:
        return rpayload
    if rtype != wire.MSG_ERROR:
        raise TransportError(f"server {link.point} sent frame type {rtype:#04x}")
    try:
        code, message = wire.unpack_error(rpayload)
    except wire.FrameError as exc:
        raise TransportError(f"server {link.point}: {exc}") from exc
    raise _ServerRefusal(link.point, code, message)


def _gather(
    links: Sequence, requests: Iterable[Callable], cfg: ProtocolConfig, stop_at=None
) -> list[tuple]:
    """Run the i-th of `requests` on `links[i]` under one deadline.

    Each request is drawn just before its link gets it, and each link
    runs it as its transport decides (`submit`).  The deadline is
    `cfg.timeout_ms` from now: a request that its link reaches only
    after it fails as that server's TransportError and is never sent,
    and waiting ends there.  Waiting also ends once every server replied
    or `stop_at` requests succeeded; the requests left stay with their
    links, which send each one they reach by the deadline.  Returns one
    (link, result or exception) record per server, in arrival order,
    those that arrive together in link order.  Each server not heard
    from when waiting ends gets a TransportError record.
    """
    deadline = time.monotonic() + cfg.timeout_ms / 1000.0
    futures = [link.submit(fn, deadline) for link, fn in zip(links, requests)]
    records: list[tuple] = []
    succeeded = 0
    pending = set(futures)
    while pending and (stop_at is None or succeeded < stop_at):
        remaining = max(0.0, deadline - time.monotonic())
        done, pending = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
        if not done:
            break
        for link, fut in zip(links, futures):
            if fut not in done:
                continue
            try:
                records.append((link, fut.result()))
                succeeded += 1
            except (ProtocolError, _ServerRefusal) as exc:
                records.append((link, exc))
    records.extend(
        (link, TransportError(f"server {link.point}: no reply by the deadline"))
        for link, fut in zip(links, futures)
        if fut in pending
    )
    return records


def _send_enroll(link, payload: bytes) -> None:
    _expect(link, wire.MSG_ENROLL_ACK, link.request(wire.MSG_ENROLL, payload))


def _enroll_requests(links: Sequence, fid: str, vectors: Sequence[ShareVector]):
    """One ENROLL request per link.  Each share is serialized on the calling
    thread as `_gather` draws its request: on the TcpLink workers the n
    serializations would contend for the interpreter lock."""
    for link, vec in zip(links, vectors):
        yield partial(_send_enroll, link, wire.pack_identified(fid, serialize_share_vector(vec)))


def enroll(
    fingerprint: np.ndarray,
    fid: str,
    cfg: ProtocolConfig,
    links: Sequence,
    rng: Optional[random.Random] = None,
) -> tuple[int, ...]:
    """Share a fingerprint to every server; all-or-nothing.

    The n ENROLLs go out as one `_gather`, and every server must
    acknowledge by its deadline.  Otherwise every server gets a delete
    marker under a second deadline, since one that did not acknowledge
    may still store the share (a lost or late ACK) or keep an older one
    (a refused re-enroll); then EnrollTimeout names each failed server
    and its cause.  A failed enrollment thus costs at most two deadlines.
    On its link the marker queues behind the server's ENROLL.  One race
    remains: a TcpLink whose ENROLL timed out sends the marker on a
    fresh connection, and a server still working on that ENROLL can
    store the share after the marker deleted it.
    """
    _check_request(links, cfg, fid, np.size(fingerprint))
    vectors, _ = prepare_vector(fingerprint, cfg.scaling, cfg.scheme, rng)
    records = _gather(links, _enroll_requests(links, fid, vectors), cfg)
    failed = [(link, result) for link, result in records if isinstance(result, Exception)]
    if failed:
        markers = [ShareVector(link.point, []) for link in links]
        # Best effort; the id was never fully enrolled.
        _gather(links, _enroll_requests(links, fid, markers), cfg)
        raise EnrollTimeout(failed)
    return tuple(link.point for link in links)


def _send_query(link, fid: str, vec: ShareVector) -> PartialCorrelation:
    payload = wire.pack_identified(fid, serialize_share_vector(vec))
    rpayload = _expect(link, wire.MSG_PARTIAL, link.request(wire.MSG_QUERY, payload))
    try:
        pc = deserialize_partial(rpayload)
    except ValueError as exc:
        raise TransportError(f"server {link.point}: {exc}") from exc
    if pc.point != vec.point:
        raise TransportError(f"server {link.point} answered for point {pc.point}")
    return pc


def _no_quorum(
    responded: int, records: list[tuple], cfg: ProtocolConfig
) -> ProtocolError | DimensionMismatch:
    """The error for a gather of partials that fell short of the quorum.

    Servers refuse a well-formed client's query as malformed only when
    it does not fit the enrolled share, such as an image of another size.
    """
    failed = [(link, result) for link, result in records if isinstance(result, Exception)]
    refusals = [exc for _, exc in failed if isinstance(exc, _ServerRefusal)]
    unknown = [exc.point for exc in refusals if exc.code == wire.ERR_UNKNOWN_ID]
    if unknown:
        return UnknownFingerprint(unknown)
    malformed = [exc for exc in refusals if exc.code == wire.ERR_MALFORMED]
    if malformed:
        return DimensionMismatch(
            "servers refused the query: " + "; ".join(str(exc) for exc in malformed)
        )
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
    requests = [partial(_send_query, link, fid, vec) for link, vec in zip(links, vectors)]
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


def fetch_share(fid: str, link) -> ShareVector:
    """Pull one server's stored share for auditing."""
    try:
        rpayload = _expect(
            link, wire.MSG_SHARE, link.request(wire.MSG_FETCH, wire.pack_identified(fid))
        )
    except _ServerRefusal as exc:
        if exc.code == wire.ERR_UNKNOWN_ID:
            raise UnknownFingerprint([link.point]) from exc
        raise TransportError(str(exc)) from exc
    try:
        return deserialize_share_vector(rpayload)
    except ValueError as exc:
        raise TransportError(f"server {link.point}: {exc}") from exc


@dataclass
class ConsistencyReport:
    """Outcome of cross-checking every quorum subset of one query."""

    consistent: bool
    responding: tuple[int, ...]
    triples: dict[tuple[int, ...], tuple[int, int, int]]
    suspects: tuple[int, ...]
    implicated: dict[int, list[tuple[int, ...]]]


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
    so P and Q carry the comparison.  On disagreement, stored shares are
    fetched and audited to identify the culprit; spare servers beyond
    the quorum are what make any of this observable.
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
    if not consistent:
        answered = [link for link in links if link.point in by_point]
        records = _gather(answered, [partial(fetch_share, fid, link) for link in answered], cfg)
        fetched = {link.point: vec for link, vec in records if isinstance(vec, ShareVector)}
        suspects |= _audit_stored_shares(fetched, scheme)
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

