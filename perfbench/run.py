"""Benchmark of the sss_prnu library: 1:K attribution, TCP fan-out, write/audit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the deployment from this checkout's `src/`, then runs closed-loop
cycles with one client thread on one link set for S seconds.  Without
tracing, spare set-ups spread over the run (each on its own servers,
closed at once) make setup_s a median of SETUP_SAMPLES.  Every
output is checked against an integer oracle (`oracle.py`); any failed
or wrong operation makes the command exit 1.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1
every layer boundary is wrapped (`spans.py`) and the metrics are per
layer.  A fuller report of each run goes to perfbench/results/.

`--workload all` runs every workload in turn.  `--size` shrinks the
images for the self-test (`selftest.py`); measurements never use it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SCRATCH = os.path.join(HERE, "tmp")

sys.path.insert(0, SRC)

import oracle  # noqa: E402
import spans  # noqa: E402
import sss_prnu  # noqa: E402
from sss_prnu import prnu, protocol, sharing, wire  # noqa: E402

# Deployment under test: (l, n) = (2, 4), d = 4, plaintext centering.
L_THRESHOLD, N_SERVERS, DIGITS, MATCH_THRESHOLD = 2, 4, 4, 0.3
CAMERAS = 4  # K enrolled ids; every cycle attributes one shot against all K
ENROLL_IMAGES = 8
SETUP_SAMPLES = 9  # untraced runs: set-ups spread evenly over the run
PROBE_LIMIT = 50  # untimed probe queries tried for one that reached every server
P90_MIN_QUERIES = 100  # a p90 needs ten samples beyond it
IDLE_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One cycle is a 1:K attribution, then one write/audit round."""

    name: str
    size: int  # images are size x size
    transport: str  # "local" (LocalCluster) or "tcp" (serve subprocesses)
    fresh_ids: bool  # each round enrolls a new id instead of overwriting one


WORKLOADS = {
    w.name: w
    for w in (
        Workload("attribute-tcp-64", 64, "tcp", True),
        Workload("audit-local-128", 128, "local", False),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "identify_p50_ms": "ms",
    "query_per_s": "1/s",
    "enroll_p50_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_tampered_p50_ms": "ms",
    "wire_bytes_per_query": "B",
    "peak_rss_mib": "MiB",
}

FRAME_TYPES = ("ENROLL", "ENROLL_ACK", "QUERY", "PARTIAL", "FETCH", "SHARE", "ERROR")
REQUEST_KINDS = {wire.MSG_ENROLL: "enroll", wire.MSG_QUERY: "query", wire.MSG_FETCH: "fetch"}

LAYER_UNITS = {
    "prnu.extract_residual_ms": "ms",
    "prnu.estimate_fingerprint_ms": "ms",
    "prnu.pearson_ms": "ms",
    "prnu.encrypted_over_plaintext": "x",
    "fixedpoint.encode_ms": "ms",
    "sharing.share_vector_ms": "ms",
    "sharing.serialize_ms": "ms",
    "sharing.deserialize_ms": "ms",
    "sharing.vector_bytes": "B",
    "correlation.compute_partials_ms": "ms",
    "correlation.reconstruct_ms": "ms",
    "wire.frames_per_query": "count",
    **{f"wire.bytes_by_type.{t}": "B/cycle" for t in FRAME_TYPES},
    "wire.encode_frame_ms": "ms/cycle",
    "wire.read_frame_ms": "ms/cycle",
    "protocol.server_handle_ms": "ms",
    "protocol.transport_ms": "ms",
    "protocol.fanout_wait_ms": "ms",
    "protocol.straggler_ms": "ms",
    "protocol.useful_partials_ratio": "ratio",
    "protocol.store_put_ms": "ms",
    "protocol.enroll_self_ms": "ms",
    "protocol.fetch_share_ms": "ms",
    "protocol.audit_ms": "ms",
    "protocol.server_peak_rss_mib": "MiB",
    **{f"protocol.failed_requests.{k}": "count" for k in REQUEST_KINDS.values()},
    "trace.query_p50_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def _median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WireCounter:
    """Links' observer: counts every frame, sent and received, by type."""

    def __init__(self, points) -> None:
        self._names = {getattr(wire, f"MSG_{t}"): t for t in FRAME_TYPES}
        self._lock = threading.Lock()
        self.bytes = Counter()
        self.frames = Counter()
        self.sent = Counter({u: 0 for u in points})
        self.received = Counter({u: 0 for u in points})

    def __call__(self, point: int, direction: str, frame: bytes) -> None:
        name = self._names.get(frame[4], f"0x{frame[4]:02x}")
        with self._lock:
            self.bytes[name] += len(frame)
            self.frames[name] += 1
            (self.sent if direction == "send" else self.received)[point] += 1

    def wait_idle(self, timeout: float) -> bool:
        """Wait until every request sent has had its reply, stragglers too."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self.sent == self.received:
                    return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)

    def snapshot(self) -> tuple[Counter, Counter, Counter]:
        """(bytes by type, frames by type, requests sent by point) so far."""
        with self._lock:
            return Counter(self.bytes), Counter(self.frames), Counter(self.sent)


class Deployment:
    """The n servers of one set-up, their stores and the client's links."""

    def __init__(self, wl: Workload, cfg, observer: WireCounter, traced: bool) -> None:
        self.cfg = cfg
        self.points = cfg.scheme.evaluation_points
        self.procs: list[subprocess.Popen] = []
        self.span_files: list[str] = []
        self.connections = 0
        self.cluster = None
        self.links: list = []
        self.workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH)
        try:
            if wl.transport == "local":
                self.cluster = protocol.LocalCluster(cfg, store_root=self.workdir, observer=observer)
                self.links = self.cluster.links
            else:
                self._start_servers(observer, traced)
        except BaseException:
            self.close()
            raise

    def _start_servers(self, observer: WireCounter, traced: bool) -> None:
        deployment = self

        class CountingTcpLink(protocol.TcpLink):
            def _connect(self) -> None:
                super()._connect()
                deployment.connections += 1

        env = dict(os.environ, PYTHONPATH=SRC)
        for u in self.points:
            serve = [
                "serve", "--point", str(u), "--listen", "127.0.0.1:0",
                "--store", os.path.join(self.workdir, f"server_{u}"),
                "--l", str(L_THRESHOLD), "--n", str(N_SERVERS), "--d", str(DIGITS),
                "--centering", "plaintext", "--threshold", str(MATCH_THRESHOLD),
            ]
            if traced:
                spans_file = os.path.join(self.workdir, f"spans_{u}.json")
                self.span_files.append(spans_file)
                cmd = [sys.executable, os.path.join(HERE, "server_main.py"), spans_file, *serve]
            else:
                cmd = [sys.executable, "-m", "sss_prnu", *serve]
            self.procs.append(
                subprocess.Popen(cmd, env=env, cwd=self.workdir, stdout=subprocess.PIPE)
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        for u, proc in zip(self.points, self.procs):
            address = _read_listening(proc, deadline)
            self.links.append(CountingTcpLink(u, address, self.cfg.timeout_ms, observer=observer))

    def tamper(self, point: int, fid: str, rng: random.Random) -> None:
        """One server's stored share for `fid` gets one element rewritten."""
        rule = protocol.flip_one_element(rng, self.cfg.scheme.field.p)
        if self.cluster is not None:
            self.cluster.tamper_stored(point, fid, rule)
            return
        # Over TCP the store lives in another process: read the share back
        # and overwrite it on that one server through its own link.
        link = self.links[self.points.index(point)]
        rtype, payload = link.request(wire.MSG_FETCH, wire.pack_identified(fid))
        if rtype != wire.MSG_SHARE:
            raise RuntimeError(f"server {point} refused FETCH for {fid!r}")
        bad = rule(sharing.deserialize_share_vector(payload))
        rtype, _ = link.request(
            wire.MSG_ENROLL, wire.pack_identified(fid, sharing.serialize_share_vector(bad))
        )
        if rtype != wire.MSG_ENROLL_ACK:
            raise RuntimeError(f"server {point} refused the tampered share")

    def close(self) -> list[dict]:
        """Stop servers and delete stores; returns traced servers' span dumps."""
        for link in self.links:
            link.close()
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []
        dumps = []
        for path in self.span_files:
            if os.path.exists(path):
                with open(path) as fh:
                    dumps.append(json.load(fh))
        self.span_files = []
        shutil.rmtree(self.workdir, ignore_errors=True)
        return dumps


def _read_listening(proc: subprocess.Popen, deadline: float) -> tuple[str, int]:
    """Wait for a serve process's `listening=host:port` line."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        for line in buf.split(b"\n")[:-1]:
            if line.startswith(b"listening="):
                host, _, port = line.decode().partition("=")[2].rpartition(":")
                return host, int(port)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("server did not report listening= in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited with code {proc.wait()} before listening")
            buf += chunk


class Run:
    """One benchmark run: set-up, closed-loop cycles, checks, metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float, tracer) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.cfg = protocol.ProtocolConfig(
            scheme=sharing.ShareScheme(l=L_THRESHOLD, n=N_SERVERS),
            threshold=MATCH_THRESHOLD,
            scaling=sss_prnu.Scaling(DIGITS),
        )
        self.points = self.cfg.scheme.evaluation_points
        self.scale = 10**DIGITS
        self.wire = WireCounter(self.points)
        self.deployment: Optional[Deployment] = None
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("query", "identify", "enroll", "verify", "verify_tampered")
        }
        self.attempted = Counter()
        self.failures: list[str] = []
        self.threads_peak = threading.active_count()
        self.setup_s: list[float] = []
        self.connections = 0
        self.probes_cut_short = 0
        self.server_dumps: list[dict] = []
        # Measured windows [start ns, end ns]: the cycles, without the
        # set-ups and tampers between them.
        self.windows: list[list[int]] = []
        self.window_bytes = Counter()

    # -- set-up ------------------------------------------------------------

    def timed_setup(self, observer: WireCounter) -> tuple:
        """Synthesize cameras, estimate fingerprints, start servers, enroll.

        The k-th set-up of a run draws its inputs from (seed, k).  Returns
        (cameras, fingerprints, deployment, share rng) and adds to setup_s.
        """
        k, size = len(self.setup_s), self.wl.size
        # Start from a clean heap, as a fresh process does: a closed spare
        # deployment leaves cyclic garbage behind, and without this a set-up
        # at 128x128 sometimes took 0.6 s instead of 0.37 s.
        gc.collect()
        t0 = time.perf_counter()
        cameras = [
            prnu.SyntheticCamera.create(size, size, seed=self.seed * 1000003 + 100 * k + i)
            for i in range(CAMERAS)
        ]
        fingerprints = [
            prnu.estimate_fingerprint([cam.shoot() for _ in range(ENROLL_IMAGES)])
            for cam in cameras
        ]
        deployment = Deployment(self.wl, self.cfg, observer, self.tracer is not None)
        try:
            share_rng = random.Random(f"{self.seed}:{k}:share")
            for i, fp in enumerate(fingerprints):
                protocol.enroll(fp, self._camera_id(i), self.cfg, deployment.links, share_rng)
        except BaseException:
            deployment.close()
            raise
        self.setup_s.append(time.perf_counter() - t0)
        return cameras, fingerprints, deployment, share_rng

    def spare_setup(self) -> None:
        """One more timed set-up for setup_s, on its own servers, closed at once."""
        deployment = self.timed_setup(WireCounter(self.points))[2]
        self.connections += deployment.connections
        deployment.close()

    def close(self) -> None:
        if self.deployment is not None:
            self.connections += self.deployment.connections
            self.server_dumps += self.deployment.close()
            self.deployment = None

    @staticmethod
    def _camera_id(i: int) -> str:
        return f"cam{i:03d}"

    # -- operations --------------------------------------------------------

    def _attempt(self, kind: str, fn: Callable):
        """Run one operation; returns (output, seconds), or None if it raised."""
        self.attempted[kind] += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, none retried
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        return out, time.perf_counter() - t0

    def _fail(self, kind: str, reason: Optional[str]) -> bool:
        if reason is not None:
            self.failures.append(f"{kind}: {reason}")
            return True
        return False

    def _probe(self, image) -> list[int]:
        """The oracle's quantized residual of a query image."""
        return oracle.quantize(prnu.extract_residual(image, self.cfg.denoiser), self.scale)

    def _query(self, image, camera: int):
        return self._attempt(
            "query",
            lambda: protocol.query(
                image, self._camera_id(camera), self.cfg, self.links, self.share_rng
            ),
        )

    def identify(self, camera: int) -> None:
        """Attribute one fresh shot by querying every enrolled id."""
        image = self.cameras[camera].shoot()
        t0 = time.perf_counter()
        results = [self._query(image, i) for i in range(CAMERAS)]
        elapsed = time.perf_counter() - t0
        self.attempted["identify"] += 1
        self.threads_peak = max(self.threads_peak, threading.active_count())

        probe = self._probe(image)
        ok = True
        for ref, done in zip(self.references, results):
            if done is None:
                ok = False
            elif self._fail(
                "query", oracle.check_query(done[0], ref.correlation(probe), MATCH_THRESHOLD)
            ):
                ok = False
            else:
                self.samples["query"].append(done[1])
        if not ok:
            self.failures.append(f"identify: a query of camera {camera}'s shot failed")
            return
        scores = [done[0].r for done in results]
        if not self._fail("identify", oracle.check_identify(scores, camera)):
            self.samples["identify"].append(elapsed)

    def audit_round(self, cycle: int) -> None:
        """Enroll, honest verify, tamper one server, tampered verify."""
        camera = cycle % CAMERAS
        fid = f"w{cycle if self.wl.fresh_ids else 0:06d}"
        done = self._attempt(
            "enroll",
            lambda: protocol.enroll(
                self.fingerprints[camera], fid, self.cfg, self.links, self.share_rng
            ),
        )
        if done is None:
            return
        if self._fail("enroll", None if done[0] == self.points else f"acked by {done[0]}"):
            return
        self.samples["enroll"].append(done[1])

        image = self.cameras[camera].shoot()
        done = self._attempt(
            "verify",
            lambda: protocol.verify_consistency(image, fid, self.cfg, self.links, self.share_rng),
        )
        if done is not None:
            expected = self.references[camera].sums(self._probe(image))
            if not self._fail("verify", oracle.check_honest_verify(done[0], expected)):
                self.samples["verify"].append(done[1])

        # The tamper is the benchmark's own doing, not the program's: it
        # runs on idle links between two measured windows, so none of its
        # frames or spans is counted.
        target = self.tamper_rng.choice(self.points)
        self._wait_idle("before a tamper")
        self._close_window()
        tampered = self._attempt("tamper", lambda: self.deployment.tamper(target, fid, self.tamper_rng))
        self._open_window()
        if tampered is None:
            return
        image = self.cameras[camera].shoot()
        done = self._attempt(
            "verify_tampered",
            lambda: protocol.verify_consistency(image, fid, self.cfg, self.links, self.share_rng),
        )
        if done is not None:
            if not self._fail("verify_tampered", oracle.check_tampered_verify(done[0], target)):
                self.samples["verify_tampered"].append(done[1])
        self.threads_peak = max(self.threads_peak, threading.active_count())

    def _wait_idle(self, when: str) -> None:
        """A checked step: every request sent has had its reply."""
        self.attempted["wire_idle"] += 1
        if not self.wire.wait_idle(IDLE_TIMEOUT_S):
            self.failures.append(f"wire_idle: links still busy {when}")

    def _open_window(self) -> None:
        self.windows.append([time.perf_counter_ns(), 0])
        self._window_wire = self.wire.snapshot()[0]

    def _close_window(self) -> None:
        self.windows[-1][1] = time.perf_counter_ns()
        self.window_bytes += self.wire.snapshot()[0] - self._window_wire

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        self.cameras, self.fingerprints, self.deployment, self.share_rng = self.timed_setup(self.wire)
        self.links = self.deployment.links
        self.references = [oracle.Reference(fp, self.scale) for fp in self.fingerprints]
        self.tamper_rng = random.Random(f"{self.seed}:tamper")
        # Spare set-ups, evenly spread over the run so that setup_s is a
        # median over the same stretch of time as the other metrics.  Their
        # time is not counted in the run's seconds.  A traced run reports
        # no setup_s and makes none.
        spares = 0 if self.tracer is not None else SETUP_SAMPLES - 1
        cycles = 0
        self._open_window()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.seconds and not self.failures:
            due = (len(self.setup_s) / SETUP_SAMPLES) * self.seconds
            if len(self.setup_s) <= spares and time.perf_counter() - t0 >= due:
                self._wait_idle("before a spare set-up")
                self._close_window()
                t_spare = time.perf_counter()
                failed = self._attempt("setup", self.spare_setup) is None
                t0 += time.perf_counter() - t_spare
                self._open_window()
                if failed:
                    break
            self.identify(cycles % CAMERAS)
            self.audit_round(cycles)
            cycles += 1
        self._wait_idle("after the run")
        self._close_window()
        threads_idle = threading.active_count()

        # Wire cost of one 1:1 query: untimed, checked queries, each counted
        # once every link is idle so that the last reply is in.  The fan-out
        # cancels a request that has not started by quorum, so probes go on
        # until one reached every server (at most PROBE_LIMIT) and the
        # largest counts; the probes cut short are reported.
        probes = []  # (bytes, frames)
        while len(probes) < PROBE_LIMIT and not self.failures:
            before = self.wire.snapshot()
            image = self.cameras[0].shoot()
            done = self._query(image, 0)
            if done is None:
                break
            expected = self.references[0].correlation(self._probe(image))
            if self._fail("query", oracle.check_query(done[0], expected, MATCH_THRESHOLD)):
                break
            self._wait_idle("after a probe query")
            after = self.wire.snapshot()
            probes.append((sum((after[0] - before[0]).values()), sum((after[1] - before[1]).values())))
            if all(after[2][u] - before[2][u] == 1 for u in self.points):
                break
            self.probes_cut_short += 1
        query_bytes, query_frames = max(probes, default=(None, None))
        return {
            "cycles": cycles,
            "measured_s": sum(hi - lo for lo, hi in self.windows) / 1e9,
            "query_bytes": query_bytes,
            "query_frames": query_frames,
            "bytes_per_cycle": {t: self.window_bytes[t] / max(cycles, 1) for t in FRAME_TYPES},
            "threads_idle": threads_idle,
        }

    def end_to_end(self, info: dict) -> dict[str, float]:
        s = self.samples

        def p50_ms(kind: str) -> float:
            return statistics.median(s[kind]) * 1e3 if s[kind] else 0.0

        return {
            "setup_s": statistics.median(self.setup_s),
            "query_p50_ms": p50_ms("query"),
            "identify_p50_ms": p50_ms("identify"),
            "query_per_s": len(s["query"]) / sum(s["query"]) if s["query"] else 0.0,
            "enroll_p50_ms": p50_ms("enroll"),
            "verify_p50_ms": p50_ms("verify"),
            "verify_tampered_p50_ms": p50_ms("verify_tampered"),
            "wire_bytes_per_query": info["query_bytes"],
            "peak_rss_mib": _peak_rss_mib(),
        }

    def per_layer(self, info: dict) -> tuple[dict, dict]:
        """Per-layer metrics from the spans inside the measured windows."""
        server_dumps = self.server_dumps
        client = spans.SpanSet(self.tracer.spans)
        servers = [spans.SpanSet(d["spans"]) for d in server_dumps]
        window = self.windows
        # Server-side layers run in this process on local links and in
        # the serve subprocesses over TCP.
        server_sets = servers or [client]
        both = [client] + servers

        def self_ms(sets, name, window=window) -> float:
            return _median_ms([ss.self_ns(sp) for ss in sets for sp in ss.named(name, window)])

        def call_ms(sets, name) -> float:
            return _median_ms([sp[5] - sp[4] for ss in sets for sp in ss.named(name, window)])

        def total_ms_per_cycle(sets, name) -> float:
            total = sum(ss.self_ns(sp) for ss in sets for sp in ss.named(name, window))
            return total / 1e6 / max(info["cycles"], 1)

        queries = client.named("protocol.query", window)
        query_residuals = client.named("protocol.query_residual", window)
        verifies = client.named("protocol.verify_residual", window)
        tampered = [sp for sp in verifies if sp[6] and sp[6][1] > 0]
        requests = client.named("protocol.link_request", window)

        # Straggler time: from quorum (the reconstruct call right after
        # the fan-out) to the last reply to that query's requests; 0 when
        # every reply was in by then.
        stragglers = []
        cancelled = 0  # fan-outs that sent fewer than n QUERY frames
        for q in query_residuals:
            quorum = [c[4] for c in client.children[q[0]] if c[2] == "correlation.reconstruct"]
            ends = [r[5] for r in requests if r[6][0] == wire.MSG_QUERY and q[4] <= r[4] <= q[5]]
            cancelled += len(ends) < N_SERVERS
            if quorum and ends:
                stragglers.append(max(0, max(ends) - quorum[0]))

        computed = sum(
            1
            for ss in server_sets
            for sp in ss.named("correlation.compute_partials", window)
            if ss.parent_name(sp) == "protocol.server_handle"
        )
        used = self.cfg.quorum * len(query_residuals) + sum(sp[6][0] for sp in verifies if sp[6])

        # Transport time: a request's round trip minus the server's
        # handling.  Over TCP, requests are matched to server spans by
        # per-connection order: each link carries one request at a time,
        # so the k-th reply a link got is the k-th request its server handled.
        transport = []
        if servers:
            for u, ss in zip(self.points, servers):
                handled = sorted(ss.named("protocol.server_handle", window), key=lambda s: s[4])
                mine = sorted((r for r in requests if r[6][2] == u), key=lambda s: s[5])
                transport += [(c[5] - c[4]) - (h[5] - h[4]) for c, h in zip(mine, handled)]
        else:
            for r in requests:
                handled = [c for c in client.children[r[0]] if c[2] == "protocol.server_handle"]
                transport.append((r[5] - r[4]) - sum(h[5] - h[4] for h in handled))

        failed = Counter(REQUEST_KINDS[sp[6][0]] for sp in requests if sp[6][1])
        query_p50 = call_ms([client], "protocol.query")
        # The plaintext floor at this size, timed once no server thread runs.
        floor = []
        for cam, fp in zip(self.cameras, self.fingerprints):
            residual = prnu.extract_residual(cam.shoot(), self.cfg.denoiser)
            for _ in range(5):
                t0 = time.perf_counter()
                prnu.pearson(fp, residual)
                floor.append(time.perf_counter() - t0)
        pearson_p50 = statistics.median(floor) * 1e3
        serialized = [sp[6] for ss in both for sp in ss.named("sharing.serialize") if sp[6]]
        metrics = {
            "prnu.extract_residual_ms": self_ms([client], "prnu.extract_residual"),
            "prnu.estimate_fingerprint_ms": self_ms([client], "prnu.estimate_fingerprint", None),
            "prnu.pearson_ms": pearson_p50,
            "prnu.encrypted_over_plaintext": query_p50 / pearson_p50,
            # prepare_vector's self time, once share_vector is taken out.
            "fixedpoint.encode_ms": self_ms([client], "correlation.prepare_vector"),
            "sharing.share_vector_ms": self_ms([client], "sharing.share_vector"),
            "sharing.serialize_ms": self_ms(both, "sharing.serialize"),
            "sharing.deserialize_ms": self_ms(both, "sharing.deserialize"),
            "sharing.vector_bytes": statistics.median(serialized),
            "correlation.compute_partials_ms": self_ms(server_sets, "correlation.compute_partials"),
            "correlation.reconstruct_ms": self_ms([client], "correlation.reconstruct"),
            "wire.frames_per_query": info["query_frames"],
            **{f"wire.bytes_by_type.{t}": v for t, v in info["bytes_per_cycle"].items()},
            "wire.encode_frame_ms": total_ms_per_cycle(both, "wire.encode_frame"),
            # Client side only: a serving thread also blocks in read_frame while idle.
            "wire.read_frame_ms": total_ms_per_cycle([client], "wire.read_frame"),
            "protocol.server_handle_ms": self_ms(server_sets, "protocol.server_handle"),
            "protocol.transport_ms": _median_ms(transport),
            "protocol.fanout_wait_ms": _median_ms([client.self_ns(q) for q in query_residuals]),
            "protocol.straggler_ms": _median_ms(stragglers),
            "protocol.useful_partials_ratio": used / computed,
            "protocol.store_put_ms": call_ms(server_sets, "protocol.store_put"),
            "protocol.enroll_self_ms": self_ms([client], "protocol.enroll"),
            "protocol.fetch_share_ms": call_ms([client], "protocol.fetch_share"),
            "protocol.audit_ms": _median_ms([client.self_ns(sp) for sp in tampered]),
            "protocol.server_peak_rss_mib": (
                max(d["peak_rss_mib"] for d in server_dumps) if servers else _peak_rss_mib()
            ),
            **{f"protocol.failed_requests.{k}": failed[k] for k in REQUEST_KINDS.values()},
            "trace.query_p50_ms": query_p50,
            "trace.unattributed_ms": _median_ms([client.self_ns(q) for q in queries]),
        }
        # The blocking steps of a traced query are its spans on the calling
        # thread; the query span's own self time is what no layer accounts for.
        breakdown = Counter()
        for q in queries:
            stack = [q]
            while stack:
                sp = stack.pop()
                breakdown[sp[2]] += client.self_ns(sp)
                stack.extend(client.children[sp[0]])
        detail = {
            "blocking_self_ms_per_query": {
                k: v / 1e6 / max(len(queries), 1) for k, v in sorted(breakdown.items())
            },
            "straggler_samples": len(stragglers),
            "queries_with_a_cancelled_request": cancelled,
            "partials_used": used,
            "partials_computed": computed,
        }
        return metrics, detail


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(SCRATCH, exist_ok=True)

    run = Run(wl, seed, seconds, tracer)
    try:
        info = run.execute()
    finally:
        run.close()
    attempted = sum(run.attempted.values())
    failed = len(run.failures)
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": wl.size,
        "transport": (
            "tcp over loopback 127.0.0.1 to 4 serve subprocesses, not a real network link"
            if wl.transport == "tcp"
            else "in-process LocalLink"
        ),
        "load": "closed loop, 1 client thread, one link set for the whole run",
        "spare_setups": len(run.setup_s) - 1,
        "cycles": info["cycles"],
        "measured_s": info["measured_s"],
        "setup_s_samples": run.setup_s,
        "attempted": dict(run.attempted),
        "error_rate": failed / attempted,
        "failures": run.failures,
        "threads_peak": run.threads_peak,
        "threads_after_idle": info["threads_idle"],
        "tcp_connections_opened": run.connections,
        "probes_cut_short": run.probes_cut_short,
        "samples_ms": {k: [x * 1e3 for x in v] for k, v in run.samples.items()},
    }
    # Reported, not gated: its run-to-run spread is too wide for a bound.
    if len(run.samples["query"]) >= P90_MIN_QUERIES:
        report["query_p90_ms"] = statistics.quantiles(run.samples["query"], n=10)[-1] * 1e3
    if trace:
        metrics, report["trace_detail"] = run.per_layer(info)
        units = LAYER_UNITS
        tracer.dump(
            os.path.join(RESULTS, f"{wl.name}-seed{seed}-spans.json"),
            {"servers": run.server_dumps, "measured_windows_ns": run.windows},
        )
    else:
        metrics = run.end_to_end(info)
        units = E2E_UNITS
    report["metrics"] = metrics
    with open(os.path.join(RESULTS, f"{wl.name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload={wl.name} seed={seed} trace={int(trace)} cycles={info['cycles']}")
    for key in ("transport", "load", "threads_peak", "threads_after_idle", "tcp_connections_opened"):
        print(f"{key}={report[key]}")
    print(f"error_rate={report['error_rate']} ratio")
    if "query_p90_ms" in report:
        print(f"query_p90_ms={report['query_p90_ms']} ms")
    for name, value in metrics.items():
        print(f"{name}={value} {units[name]}")
    for failure in run.failures[:20]:
        print(f"failure={failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="self-test only: image side")
    args = parser.parse_args(argv)
    if not os.path.abspath(sss_prnu.__file__).startswith(SRC + os.sep):
        print(f"error=sss_prnu imported from {sss_prnu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            forwarded = ["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.size is not None:
                forwarded += ["--size", str(args.size)]
            status |= subprocess.call([sys.executable, os.path.abspath(__file__), *forwarded])
        return status
    wl = WORKLOADS[args.workload]
    if args.size is not None:
        wl = replace(wl, size=args.size)
    return run_workload(wl, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
