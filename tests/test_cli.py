import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import sss_prnu
from conftest import oracle_sums
from sss_prnu import (
    CloudServer,
    GaussianDenoiser,
    PrimeField,
    ProtocolConfig,
    Scaling,
    ServerStore,
    ShareScheme,
    TcpCloudServer,
    extract_residual,
    read_nmat,
    read_pgm,
    wire,
    write_pgm,
)
from sss_prnu.cli import build_parser, cmd_serve, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def tree_bytes(root):
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                snapshot[os.path.relpath(path, root)] = fh.read()
    return snapshot


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Two synthetic cameras plus the fingerprint of the first."""
    root = tmp_path_factory.mktemp("data")
    code = main(
        ["synth", "--cameras", "2", "--images", "8", "--size", "32",
         "--out", str(root), "--seed", "42"]
    )
    assert code == 0
    fp = str(root / "fp00.nmat")
    code = main(["fingerprint", "--images", str(root / "cam00" / "enroll"), "--out", fp])
    assert code == 0
    return {
        "root": root,
        "fp": fp,
        "same_query": str(root / "cam00" / "query.pgm"),
        "cross_query": str(root / "cam01" / "query.pgm"),
    }


def test_synth_is_deterministic(tmp_path, capsys):
    args = ["synth", "--cameras", "2", "--images", "2", "--size", "16", "--seed", "9"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert tree_bytes(a) == tree_bytes(b)
    other = ["synth", "--cameras", "2", "--images", "2", "--size", "16", "--seed", "10"]
    assert run_cli(other + ["--out", str(c)], capsys)[0] == 0
    assert tree_bytes(a) != tree_bytes(c)


def test_synth_layout(tmp_path, capsys):
    code, out, _ = run_cli(
        ["synth", "--cameras", "3", "--images", "2", "--size", "16",
         "--out", str(tmp_path), "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert kv(out)["cameras"] == "3"
    for cam in range(3):
        cam_dir = tmp_path / f"cam{cam:02d}"
        assert (cam_dir / "query.pgm").is_file()
        enrolled = sorted(os.listdir(cam_dir / "enroll"))
        assert enrolled == ["img00.pgm", "img01.pgm"]


def test_synth_rejects_bad_arguments(tmp_path, capsys):
    code, _, err = run_cli(
        ["synth", "--cameras", "2", "--images", "2", "--size", "0",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "error=" in err


def test_fingerprint_of_single_image_is_its_residual(tmp_path, capsys):
    gen = np.random.default_rng(3)
    img = gen.uniform(0, 255, (16, 16))
    write_pgm(str(tmp_path / "one.pgm"), img)
    out_path = str(tmp_path / "fp.nmat")
    code, _, _ = run_cli(
        ["fingerprint", "--images", str(tmp_path), "--out", out_path], capsys
    )
    assert code == 0
    fp = read_nmat(out_path)
    expected = extract_residual(read_pgm(str(tmp_path / "one.pgm")), GaussianDenoiser())
    assert np.array_equal(fp, expected)


def test_fingerprint_empty_dir_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["fingerprint", "--images", str(tmp_path), "--out", str(tmp_path / "x.nmat")],
        capsys,
    )
    assert code == 2
    assert "error=" in err


def test_match_local_same_camera(dataset, capsys):
    code, out, _ = run_cli(
        ["match-local", "--fingerprint", dataset["fp"],
         "--image", dataset["same_query"], "--threshold", "0.3"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("MATCH")
    r = float(kv(out)["r"])
    assert r > 0.3


def test_match_local_cross_camera(dataset, capsys):
    code, out, _ = run_cli(
        ["match-local", "--fingerprint", dataset["fp"],
         "--image", dataset["cross_query"], "--threshold", "0.3"],
        capsys,
    )
    assert code == 1
    assert out.strip().endswith("NO-MATCH")


def test_match_local_requires_threshold(dataset, capsys):
    code, _, err = run_cli(
        ["match-local", "--fingerprint", dataset["fp"], "--image", dataset["same_query"]],
        capsys,
    )
    assert code == 2
    assert "threshold" in err


def test_enroll_query_verify_over_store_root(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    code, out, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert kv(out)["acked"] == "1,2,3,4"

    code, out, _ = run_cli(
        ["query", "--image", dataset["same_query"], "--id", "cam00",
         "--store-root", store, "--threshold", "0.3", "--seed", "6"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("MATCH")
    encrypted_r = float(kv(out)["r_exact"])

    code, out, _ = run_cli(
        ["match-local", "--fingerprint", dataset["fp"],
         "--image", dataset["same_query"], "--threshold", "0.3"],
        capsys,
    )
    assert code == 0
    plain_r = float(kv(out)["r"])
    assert abs(encrypted_r - plain_r) <= 5e-3

    code, out, _ = run_cli(
        ["query", "--image", dataset["cross_query"], "--id", "cam00",
         "--store-root", store, "--threshold", "0.3", "--seed", "7"],
        capsys,
    )
    assert code == 1
    assert out.strip().endswith("NO-MATCH")

    code, out, _ = run_cli(
        ["verify", "--image", dataset["same_query"], "--id", "cam00",
         "--store-root", store, "--seed", "8"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["consistent"] == "true"
    assert pairs["suspects"] == "none"
    assert "subset_1_2_3" in pairs


def test_query_unknown_id_is_protocol_error(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    code, _, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    code, _, err = run_cli(
        ["query", "--image", dataset["same_query"], "--id", "nobody",
         "--store-root", store, "--threshold", "0.3"],
        capsys,
    )
    assert code == 3
    assert "error=" in err


def test_query_of_another_size_is_usage_error(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    code, _, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    wide = str(tmp_path / "wide.pgm")
    write_pgm(wide, np.random.default_rng(3).uniform(0, 255, (32, 33)))
    code, _, err = run_cli(
        ["query", "--image", wide, "--id", "cam00",
         "--store-root", store, "--threshold", "0.3"],
        capsys,
    )
    assert code == 2
    assert "query has 1056 elements" in err and "enrolled with 1024" in err


def test_verify_flags_tampered_store(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    code, _, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    # Corrupt one element of server 2's stored share on disk.
    s2 = ServerStore(2, PrimeField(), os.path.join(store, "server_2"))
    vec = s2.get("cam00")
    values = list(vec.values)
    values[17] = (values[17] + 1) % (2**61 - 1)
    s2.put("cam00", type(vec)(vec.point, values))

    code, out, err = run_cli(
        ["verify", "--image", dataset["same_query"], "--id", "cam00",
         "--store-root", store, "--seed", "8"],
        capsys,
    )
    assert code == 3
    pairs = kv(out)
    assert pairs["consistent"] == "false"
    assert pairs["suspects"] == "2"
    assert "tampering" in err


def test_verify_prints_how_it_located_its_suspects(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    verify = ["verify", "--image", dataset["same_query"], "--id", "cam00",
              "--store-root", store, "--seed", "8"]
    code, _, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(verify, capsys)
    assert code == 0
    assert kv(out)["audit"] == "none"
    s3 = ServerStore(3, PrimeField(), os.path.join(store, "server_3"))
    vec = s3.get("cam00")
    values = list(vec.values)
    values[-1] = (values[-1] + 1) % (2**61 - 1)
    s3.put("cam00", type(vec)(vec.point, values))
    code, out, _ = run_cli(verify, capsys)
    assert code == 3
    assert (kv(out)["suspects"], kv(out)["audit"]) == ("3", "probe")


def test_query_of_a_tampered_store_is_protocol_error(dataset, tmp_path, capsys):
    store = str(tmp_path / "cluster")
    code, _, _ = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", store, "--seed", "5"],
        capsys,
    )
    assert code == 0
    # Server 2 is in the first quorum of an in-process query.  This shift
    # leaves Q positive, so only the Cauchy-Schwarz bound refuses it.
    s2 = ServerStore(2, PrimeField(), os.path.join(store, "server_2"))
    vec = s2.get("cam00")
    values = list(vec.values)
    values[17] = (values[17] + (1 << 41)) % (2**61 - 1)
    s2.put("cam00", type(vec)(vec.point, values))

    code, out, err = run_cli(
        ["query", "--image", dataset["same_query"], "--id", "cam00",
         "--store-root", store, "--threshold", "0.3", "--seed", "8"],
        capsys,
    )
    assert code == 3
    assert "MATCH" not in out
    assert "Cauchy-Schwarz" in err


def test_env_seed_overrides_flag(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SSS_PRNU_SEED", "99")
    roots = []
    for name in ("one", "two"):
        store = str(tmp_path / name)
        code, out, _ = run_cli(
            ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
             "--store-root", store, "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert kv(out)["seed"] == "99"
        roots.append(store)
    # Same effective seed, identical share files on disk.
    assert tree_bytes(roots[0]) == tree_bytes(roots[1])


def test_unexpected_failure_has_its_own_exit_code(dataset, capsys, monkeypatch):
    def crash(path):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(sss_prnu.cli, "read_nmat", crash)
    code, out, err = run_cli(
        ["match-local", "--fingerprint", dataset["fp"], "--image", dataset["same_query"],
         "--threshold", "0.1"],
        capsys,
    )
    assert code == 4
    assert "NO-MATCH" not in out
    assert "Traceback" in err and err.rstrip().endswith("RuntimeError: disk gone")


def test_missing_transport_is_usage_error(dataset, capsys):
    code, _, err = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00"], capsys
    )
    assert code == 2
    assert "store-root" in err


def test_enroll_over_capacity_is_usage_error(dataset, tmp_path, capsys):
    # Under p = 1000000007 the bound (p-1)/2 is 500000003, below the
    # fingerprint's exact square sum at d = 4; the error gives both.
    fp = read_nmat(dataset["fp"])
    squares = oracle_sums(fp, fp, Scaling(4))[1]
    code, _, err = run_cli(
        ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
         "--store-root", str(tmp_path / "cluster"), "--prime", "1000000007"],
        capsys,
    )
    assert code == 2
    assert f"error=capacity bound violated: square sum {squares}, bound 500000003" in err


def test_out_of_range_ports_are_usage_errors(dataset, tmp_path, capsys):
    # A port past 65535 used to wrap (70000 dialed 4464), and --listen
    # died with an OverflowError traceback.
    for bad in ("127.0.0.1:70000", "127.0.0.1:0"):
        servers = ",".join([bad, "127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"])
        code, _, err = run_cli(
            ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00", "--servers", servers],
            capsys,
        )
        assert code == 2
        assert f"error=bad server endpoint {bad!r}" in err
    store = tmp_path / "store"
    code, _, err = run_cli(
        ["serve", "--point", "1", "--listen", "127.0.0.1:70000", "--store", str(store)], capsys
    )
    assert code == 2
    assert "error=bad --listen address '127.0.0.1:70000'" in err
    assert not store.exists()


def test_query_returns_past_a_silent_server(dataset, capsys):
    # Server 4's endpoint accepts connections but never answers.  The
    # query matches on servers 1-3, and closing its links fails the
    # request still out to server 4 instead of waiting out the timeout.
    cfg = ProtocolConfig(scheme=ShareScheme(l=2, n=4), threshold=0.3)
    servers = [TcpCloudServer(("127.0.0.1", 0), CloudServer(u, cfg)) for u in (1, 2, 3, 4)]
    for srv in servers:
        threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(1)
    live = ["%s:%d" % srv.server_address[:2] for srv in servers]
    try:
        code, out, _ = run_cli(
            ["enroll", "--fingerprint", dataset["fp"], "--id", "cam00",
             "--servers", ",".join(live), "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert kv(out)["acked"] == "1,2,3,4"
        endpoints = live[:3] + ["%s:%d" % silent.getsockname()[:2]]
        t0 = time.monotonic()
        code, out, _ = run_cli(
            ["query", "--image", dataset["same_query"], "--id", "cam00",
             "--servers", ",".join(endpoints), "--threshold", "0.3",
             "--timeout-ms", "2000", "--seed", "6"],
            capsys,
        )
        elapsed = time.monotonic() - t0
        assert code == 0
        assert out.strip().endswith("MATCH")
        assert sorted(kv(out)["servers_used"].split(",")) == ["1", "2", "3"]
        assert elapsed < 1.0
        assert not [t for t in threading.enumerate() if t.name.startswith("TcpLink-")]
    finally:
        silent.close()
        for srv in servers:
            srv.shutdown()
            srv.server_close()


def request_once(address, ftype, payload):
    with socket.create_connection(address, timeout=5) as sock:
        fh = sock.makefile("rwb")
        wire.write_frame(fh, ftype, payload)
        fh.flush()
        return wire.read_frame(fh)


def test_centering_flag_accepts_only_plaintext(capsys):
    # The serve command line of perfbench/run.py, word for word.
    serve = [
        "serve", "--point", "1", "--listen", "127.0.0.1:0", "--store", "server_1",
        "--l", "2", "--n", "4", "--d", "4",
        "--centering", "plaintext", "--threshold", "0.3",
    ]
    args = build_parser().parse_args(serve)
    assert args.func is cmd_serve
    assert (args.point, args.l, args.n, args.d, args.threshold) == (1, 2, 4, 4, 0.3)
    serve[serve.index("plaintext")] = "encrypted"
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(serve)
    assert info.value.code == 2
    assert "invalid choice: 'encrypted'" in capsys.readouterr().err


def test_serve_subprocess(tmp_path):
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(sss_prnu.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sss_prnu", "serve", "--point", "1",
         "--listen", "127.0.0.1:0", "--store", str(tmp_path / "store")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        address = None
        for _ in range(10):
            line = proc.stdout.readline().strip()
            if line.startswith("listening="):
                host, _, port = line.partition("=")[2].rpartition(":")
                address = (host, int(port))
                break
        assert address is not None, "server never reported its address"

        rtype, payload = request_once(address, wire.MSG_FETCH, wire.pack_identified("ghost"))
        assert rtype == wire.MSG_ERROR
        assert wire.unpack_error(payload)[0] == wire.ERR_UNKNOWN_ID

        # A broken frame gets one ERROR, then the server drops that
        # connection but keeps serving new ones.
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"\xff\xff\xff\xff")
            fh = sock.makefile("rb")
            rtype, payload = wire.read_frame(fh)
            assert rtype == wire.MSG_ERROR
            assert wire.unpack_error(payload)[0] == wire.ERR_MALFORMED

        rtype, _ = request_once(address, wire.MSG_FETCH, wire.pack_identified("ghost"))
        assert rtype == wire.MSG_ERROR
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
