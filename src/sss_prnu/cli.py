"""Command-line driver for the matching pipeline.

Output is line-oriented key=value pairs so runs are grep-able and
reproducible; matching commands end with a bare MATCH or NO-MATCH
token.  Exit codes: 0 match (or success), 1 no-match, 2 usage error,
3 protocol error (quorum lost, tampering, transport), 4 any other
failure, with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from contextlib import contextmanager
from typing import Optional, Sequence

from .field import DEFAULT_PRIME, PrimeField
from .fixedpoint import Scaling
from .prnu import (
    GaussianDenoiser,
    SyntheticCamera,
    estimate_fingerprint,
    extract_residual,
    match_decision,
    pearson,
    read_nmat,
    read_pgm,
    write_nmat,
    write_pgm,
)
from .correlation import InconsistentSums
from .protocol import (
    CloudServer,
    LocalCluster,
    ProtocolConfig,
    ProtocolError,
    ServerStore,
    TcpCloudServer,
    TcpLink,
    enroll,
    query,
    verify_consistency,
)
from .sharing import ShareScheme, SharingError


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _resolve_seed(args) -> Optional[int]:
    env = os.environ.get("SSS_PRNU_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _make_rng(seed: Optional[int]) -> Optional[random.Random]:
    return random.Random(seed) if seed is not None else None


def _make_config(args) -> ProtocolConfig:
    scheme = ShareScheme(l=args.l, n=args.n, field=PrimeField(args.prime))
    return ProtocolConfig(
        scheme=scheme,
        threshold=args.threshold if args.threshold is not None else 0.0,
        scaling=Scaling(args.d),
        denoiser=GaussianDenoiser(sigma=args.sigma, radius=args.radius),
        timeout_ms=args.timeout_ms,
    )


def _echo_config(args, cfg: ProtocolConfig, seed: Optional[int]) -> None:
    _emit("prime", cfg.scheme.field.p)
    _emit("d", cfg.scaling.d)
    _emit("l", cfg.scheme.l)
    _emit("n", cfg.scheme.n)
    _emit("threshold", cfg.threshold)
    _emit("sigma", cfg.denoiser.sigma)
    _emit("radius", cfg.denoiser.radius)
    _emit("timeout_ms", cfg.timeout_ms)
    _emit("seed", seed if seed is not None else "none")


def _address(text: str, what: str, lowest: int) -> tuple[str, int]:
    """Split host:port, refusing a port outside lowest..65535."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not lowest <= int(port) <= 65535:
        raise ValueError(f"bad {what} {text!r}: need host:port, port {lowest}-65535")
    return host, int(port)


@contextmanager
def _links(args, cfg: ProtocolConfig):
    """The links to `--servers` or to a `--store-root` cluster, closed on
    exit so that no TcpLink thread outlives the command."""
    if args.servers:
        parts = [s.strip() for s in args.servers.split(",") if s.strip()]
        if len(parts) != cfg.scheme.n:
            raise ValueError(
                f"--servers lists {len(parts)} endpoints, scheme needs {cfg.scheme.n}"
            )
        addresses = [_address(endpoint, "server endpoint", 1) for endpoint in parts]
        points = cfg.scheme.evaluation_points
        links = [TcpLink(u, a, cfg.timeout_ms) for u, a in zip(points, addresses)]
    elif args.store_root:
        links = LocalCluster(cfg, store_root=args.store_root).links
    else:
        raise ValueError("need either --servers or --store-root")
    try:
        yield links
    finally:
        for link in links:
            link.close()


def _require_threshold(args) -> None:
    if args.threshold is None:
        raise ValueError("--threshold is required for matching commands")


def _sorted_pgms(directory: str) -> list[str]:
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".pgm"))
    return [os.path.join(directory, n) for n in names]


def cmd_fingerprint(args) -> int:
    paths = _sorted_pgms(args.images)
    if not paths:
        raise ValueError(f"no .pgm images under {args.images}")
    denoiser = GaussianDenoiser(sigma=args.sigma, radius=args.radius)
    imgs = [read_pgm(p) for p in paths]
    fp = estimate_fingerprint(imgs, denoiser)
    write_nmat(args.out, fp)
    _emit("images", len(paths))
    _emit("sigma", denoiser.sigma)
    _emit("radius", denoiser.radius)
    _emit("out", args.out)
    return 0


def cmd_synth(args) -> int:
    if args.size <= 0:
        raise ValueError("--size must be positive")
    if args.cameras <= 0 or args.images <= 0:
        raise ValueError("--cameras and --images must be positive")
    seed = _resolve_seed(args)
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    for cam_index in range(args.cameras):
        cam = SyntheticCamera.create(
            args.size, args.size, seed=seed * 1000003 + cam_index
        )
        cam_dir = os.path.join(args.out, f"cam{cam_index:02d}")
        enroll_dir = os.path.join(cam_dir, "enroll")
        os.makedirs(enroll_dir, exist_ok=True)
        for img_index in range(args.images):
            write_pgm(
                os.path.join(enroll_dir, f"img{img_index:02d}.pgm"), cam.shoot()
            )
        write_pgm(os.path.join(cam_dir, "query.pgm"), cam.shoot())
    _emit("cameras", args.cameras)
    _emit("images", args.images)
    _emit("size", args.size)
    _emit("seed", seed)
    _emit("out", args.out)
    return 0


def cmd_match_local(args) -> int:
    _require_threshold(args)
    denoiser = GaussianDenoiser(sigma=args.sigma, radius=args.radius)
    fp = read_nmat(args.fingerprint)
    residual = extract_residual(read_pgm(args.image), denoiser)
    r = pearson(fp, residual)
    matched = match_decision(r, args.threshold)
    _emit("threshold", args.threshold)
    _emit("r", f"{r:.4f}")
    print("MATCH" if matched else "NO-MATCH")
    return 0 if matched else 1


def cmd_enroll(args) -> int:
    cfg = _make_config(args)
    seed = _resolve_seed(args)
    _echo_config(args, cfg, seed)
    fp = read_nmat(args.fingerprint)
    with _links(args, cfg) as links:
        acked = enroll(fp, args.id, cfg, links, _make_rng(seed))
    _emit("id", args.id)
    _emit("acked", ",".join(str(p) for p in acked))
    return 0


def cmd_query(args) -> int:
    _require_threshold(args)
    cfg = _make_config(args)
    seed = _resolve_seed(args)
    _echo_config(args, cfg, seed)
    image = read_pgm(args.image)
    with _links(args, cfg) as links:
        result = query(image, args.id, cfg, links, _make_rng(seed))
    _emit("id", args.id)
    _emit("servers_used", ",".join(str(p) for p in result.server_subset))
    _emit("p_val", repr(result.p_val))
    _emit("q_val", repr(result.q_val))
    _emit("r_val", repr(result.r_val))
    _emit("r_exact", repr(result.r))
    _emit("r", f"{result.r:.4f}")
    print("MATCH" if result.matched else "NO-MATCH")
    return 0 if result.matched else 1


def cmd_verify(args) -> int:
    cfg = _make_config(args)
    seed = _resolve_seed(args)
    _echo_config(args, cfg, seed)
    image = read_pgm(args.image)
    with _links(args, cfg) as links:
        report = verify_consistency(image, args.id, cfg, links, _make_rng(seed))
    _emit("id", args.id)
    _emit("responding", ",".join(str(p) for p in report.responding))
    _emit("consistent", str(report.consistent).lower())
    for subset, triple in sorted(report.triples.items()):
        key = "subset_" + "_".join(str(p) for p in subset)
        _emit(key, f"{triple[0]},{triple[1]},{triple[2]}")
    _emit("suspects", ",".join(str(p) for p in report.suspects) or "none")
    _emit("audit", report.audit)
    if not report.consistent:
        print("error=share tampering detected", file=sys.stderr)
        return 3
    return 0


def cmd_serve(args) -> int:
    cfg = _make_config(args)
    if args.point not in cfg.scheme.evaluation_points:
        raise ValueError(f"--point {args.point} is not one of the scheme's points")
    address = _address(args.listen, "--listen address", 0)
    store = ServerStore(args.point, cfg.scheme.field, args.store)
    server = CloudServer(args.point, cfg, store)
    with TcpCloudServer(address, server) as srv:
        bound_host, bound_port = srv.server_address[:2]
        _emit("point", args.point)
        _emit("listening", f"{bound_host}:{bound_port}")
        sys.stdout.flush()
        srv.serve_forever()
    return 0


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="field modulus")
    p.add_argument("--d", type=int, default=4, help="fixed-point decimal digits")
    p.add_argument("--l", type=int, default=2, help="reconstruction threshold")
    p.add_argument("--n", type=int, default=4, help="number of cloud servers")
    p.add_argument(
        "--centering",
        choices=["plaintext"],
        default="plaintext",
        help="accepted for existing scripts; each owner centers its input before sharing",
    )
    p.add_argument("--timeout-ms", type=int, default=5000, dest="timeout_ms")
    p.add_argument("--threshold", type=float, default=None, help="match threshold")


def _add_denoiser_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=1.0, help="denoiser kernel sigma")
    p.add_argument("--radius", type=int, default=2, help="denoiser kernel radius")


def _add_transport_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--servers", default=None, help="host:port[,host:port...]")
    p.add_argument("--store-root", default=None, dest="store_root",
                   help="directory for an in-process server cluster")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (env SSS_PRNU_SEED overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sss-prnu",
        description="Privacy-preserving camera attribution over secret shares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="estimate a fingerprint from a PGM directory")
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("synth", help="generate a synthetic camera dataset")
    p.add_argument("--cameras", type=int, required=True)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match-local", help="plaintext correlation, no servers")
    p.add_argument("--fingerprint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--threshold", type=float, default=None)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_match_local)

    p = sub.add_parser("enroll", help="share a fingerprint out to the servers")
    p.add_argument("--fingerprint", required=True)
    p.add_argument("--id", required=True)
    _add_scheme_flags(p)
    _add_denoiser_flags(p)
    _add_transport_flags(p)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("query", help="match a query image against an enrolled id")
    p.add_argument("--image", required=True)
    p.add_argument("--id", required=True)
    _add_scheme_flags(p)
    _add_denoiser_flags(p)
    _add_transport_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="cross-check servers for share tampering")
    p.add_argument("--image", required=True)
    p.add_argument("--id", required=True)
    _add_scheme_flags(p)
    _add_denoiser_flags(p)
    _add_transport_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve", help="run one cloud server")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--listen", required=True, help="host:port (port 0 for ephemeral)")
    p.add_argument("--store", required=True, help="share database directory")
    _add_scheme_flags(p)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InconsistentSums, ProtocolError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, SharingError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
