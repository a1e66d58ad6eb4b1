"""Self-test of the benchmark itself (the checker, not the program).

    python3 perfbench/selftest.py

1. The correctness gate trips on a wrong r, a wrong match decision, a
   wrong attribution, an inconsistent or mis-summed honest verify, and a
   wrong suspect set; and passes the right ones.
2. Every workload runs at a smoke size (32x32, 1 s) with and without
   tracing, and emits exactly the metrics BENCHMARK.json names, each
   with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE = ["--seed", "7", "--seconds", "1", "--size", "32"]


def check_gate() -> None:
    from sss_prnu import MatchResult, round_half_away

    rng = np.random.default_rng(3)
    values = np.concatenate([rng.normal(0, 3, 200), [0.00005, -0.00005, 1.23455, -2.5e-5]])
    ref = [round_half_away(float(x) * 10**4) for x in values - values.mean()]
    assert oracle.quantize(values, 10**4) == ref, "quantize disagrees with round-half-away"

    fp = rng.normal(0, 1, (8, 8))
    probe = oracle.quantize(0.8 * fp + 0.2 * rng.normal(0, 1, (8, 8)), 10**4)
    reference = oracle.Reference(fp, 10**4)
    r, p_val, q_val, r_val = reference.correlation(probe)

    def result(**changes):
        fields = dict(r=r, p_val=p_val, q_val=q_val, r_val=r_val, threshold=0.3, matched=r >= 0.3)
        fields.update(changes)
        return MatchResult(**fields)

    expected = (r, p_val, q_val, r_val)
    assert oracle.check_query(result(), expected, 0.3) is None
    assert oracle.check_query(result(r=math.nextafter(r, 1.0)), expected, 0.3) is not None
    assert oracle.check_query(result(p_val=p_val * 2), expected, 0.3) is not None
    assert oracle.check_query(result(matched=not (r >= 0.3)), expected, 0.3) is not None

    assert oracle.check_identify([0.1, 0.8, 0.0], 1) is None
    assert oracle.check_identify([0.9, 0.8, 0.0], 1) is not None

    sums = reference.sums(probe)
    honest = SimpleNamespace(consistent=True, suspects=(), triples={(1, 2, 3): sums, (1, 2, 4): sums})
    assert oracle.check_honest_verify(honest, sums) is None
    off = (sums[0] + 1, sums[1], sums[2])
    assert oracle.check_honest_verify(
        SimpleNamespace(consistent=True, suspects=(), triples={(1, 2, 3): off}), sums
    ) is not None
    assert oracle.check_honest_verify(
        SimpleNamespace(consistent=False, suspects=(2,), triples={}), sums
    ) is not None

    def tampered(suspects):
        return SimpleNamespace(consistent=False, suspects=suspects)

    assert oracle.check_tampered_verify(tampered((3,)), 3) is None
    for wrong in ((), (2,), (2, 3)):
        assert oracle.check_tampered_verify(tampered(wrong), 3) is not None
    assert oracle.check_tampered_verify(SimpleNamespace(consistent=True, suspects=(3,)), 3) is not None
    print("gate: ok")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_smoke() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", name, "--trace", str(trace), *SMOKE)
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], f"{name} trace={trace}: metrics/units {got}"
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), key
            print(f"smoke {name} trace={trace}: ok ({result['attempted']} operations)")


def check_bare_directory() -> None:
    os.makedirs(os.path.join(HERE, "tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("tmp", "results", "__pycache__"),
        )
        proc = run_bench(bare, "--workload", next(iter(WORKLOADS)), *SMOKE)
        assert proc.returncode != 0, "ran without the library's sources"
        assert '"metrics"' not in proc.stdout, "printed a result without the library"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: ok (exit non-zero, no result)")


if __name__ == "__main__":
    check_gate()
    check_bare_directory()
    check_smoke()
    print("selftest: ok")
