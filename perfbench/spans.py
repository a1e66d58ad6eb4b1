"""In-memory span recorder and the layer-boundary wrappers of the traced run.

Nothing under src/ is edited.  Each wrapper replaces, at run time, the
name a consumer module looks up: `sss_prnu.protocol.prepare_vector`
(what protocol imported from correlation), `sss_prnu.correlation.
share_vector`, the `wire` module's functions, and a few methods on the
protocol classes.  A span is (id, parent id, name, thread, start ns,
end ns, info); the parent is the innermost open span of the same
thread, so a span's self time is its duration minus its children's.
Spans stay in memory until the run writes them out at the end.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `info(args, outcome)` adds detail."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            outcome = None
            start = time.perf_counter_ns()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = info(args, outcome) if info is not None else None
                self.spans.append(
                    (sid, parent, name, threading.get_ident(), start, end, extra)
                )

        return traced

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def _length(args, outcome):
    return len(outcome) if isinstance(outcome, (bytes, bytearray)) else None


def _request_outcome(args, outcome):
    """(request frame type, failed?, server point) for a link request span."""
    from sss_prnu import wire

    link, ftype = args[0], args[1]
    failed = isinstance(outcome, BaseException) or outcome[0] == wire.MSG_ERROR
    return [ftype, failed, link.point]


def _report_outcome(args, outcome):
    """(servers responding, suspects named) for a verify span."""
    if isinstance(outcome, BaseException):
        return None
    return [len(outcome.responding), len(outcome.suspects)]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the package, client and server side."""
    from sss_prnu import correlation, prnu, protocol, wire

    patches = [
        # (owner whose name the consumer looks up, attribute, span name, info)
        (protocol, "extract_residual", "prnu.extract_residual", None),
        (prnu, "estimate_fingerprint", "prnu.estimate_fingerprint", None),
        (prnu, "pearson", "prnu.pearson", None),
        (protocol, "prepare_vector", "correlation.prepare_vector", None),
        (correlation, "share_vector", "sharing.share_vector", None),
        (protocol, "serialize_share_vector", "sharing.serialize", _length),
        (protocol, "deserialize_share_vector", "sharing.deserialize", None),
        (protocol, "compute_partials", "correlation.compute_partials", None),
        (protocol, "reconstruct_partials", "correlation.reconstruct", None),
        (protocol, "reconstruct_sum_ints", "correlation.reconstruct", None),
        (wire, "encode_frame", "wire.encode_frame", None),
        (wire, "read_frame", "wire.read_frame", None),
        (protocol.CloudServer, "handle", "protocol.server_handle", None),
        (protocol.ServerStore, "put", "protocol.store_put", None),
        (protocol.LocalLink, "request", "protocol.link_request", _request_outcome),
        (protocol.TcpLink, "request", "protocol.link_request", _request_outcome),
        (protocol, "enroll", "protocol.enroll", None),
        (protocol, "query", "protocol.query", None),
        (protocol, "query_residual", "protocol.query_residual", None),
        (protocol, "verify_consistency", "protocol.verify_consistency", None),
        (protocol, "verify_residual", "protocol.verify_residual", _report_outcome),
        (protocol, "fetch_share", "protocol.fetch_share", None),
    ]
    for owner, attr, name, info in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))


class SpanSet:
    """Spans of one process, indexed for self-time and child lookups."""

    def __init__(self, spans: Iterable) -> None:
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[1]:
                self.children[s[1]].append(s)

    def parent_name(self, span: tuple) -> Optional[str]:
        parent = self.by_id.get(span[1])
        return parent[2] if parent else None

    def self_ns(self, span: tuple) -> int:
        return (span[5] - span[4]) - sum(c[5] - c[4] for c in self.children[span[0]])

    def named(self, name: str, windows: Optional[list] = None) -> list[tuple]:
        """Spans called `name`; with `windows` (sorted, disjoint [start, end]
        pairs in ns), only those that lie wholly inside one of them."""
        out = [s for s in self.spans if s[2] == name]
        if windows is not None:
            starts = [lo for lo, _ in windows]

            def inside(span: tuple) -> bool:
                i = bisect.bisect_right(starts, span[4]) - 1
                return i >= 0 and span[5] <= windows[i][1]

            out = [s for s in out if inside(s)]
        return out
