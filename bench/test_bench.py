"""The benchmark's own tests, on its --smoke inputs.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, CliRunReplay, SumManyParties, VerifySuite  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit_and_no_op_fails(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"] for ln in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "1" and workload == "cli-run-replay":
        assert result["metrics"]["cli.tamper_detected_ratio"]["value"] == 1.0


def test_same_seed_gives_same_inputs():
    pkg = run.load_package()
    rounds = []
    for _ in range(2):
        rng = random.Random(5)
        workload = CliRunReplay(pkg, rng, smoke=True)
        rounds.append([(op.family, op.tamper) for op in workload.ops] + [workload.primes])
    assert rounds[0] == rounds[1]


def test_op_times_are_scaled_by_the_reference_times_around_them():
    def record(start, latency):
        return run.Record(start, latency, True, 1, False, None, 0, None)

    nominal = run.REF_NOMINAL_S
    # the host runs at nominal speed for ten seconds, then at half speed
    refs = [(t + 0.5, nominal if t < 10 else 2 * nominal) for t in range(20)]
    fast, slow = record(3, 0.01), record(15, 0.02)
    run.scale([fast, slow], refs)
    assert fast.scaled == pytest.approx(0.01)
    assert slow.scaled == pytest.approx(0.01)


def test_wrong_verdicts_wrong_results_and_exceptions_count_as_failures():
    pkg = run.load_package()
    rng = random.Random(1)
    verify = VerifySuite(pkg, rng, smoke=True)
    standard = verify.standard[0]
    planted = verify.planted_groups[0][0]
    sums = SumManyParties(pkg, rng, smoke=True)
    good_sum = sums.op(5, rng)
    wrong_sum = dataclasses.replace(
        good_sum, call=lambda: ({"sum": "1" + good_sum.call()[0]["sum"]}, "\n" * 11))

    def raises():
        raise ValueError("injected")

    bad = [
        verify.op(planted, expect_pass=True),  # a planted leak the oracle takes for a PASS
        verify.op(standard, expect_pass=False),  # a PASS the oracle takes for a leak
        wrong_sum,
        dataclasses.replace(good_sum, call=raises),
    ]
    good = [verify.op(planted, expect_pass=False), verify.op(standard, expect_pass=True), good_sum]

    records, _ = run.measure(bad + good, 0)
    assert [r.ok for r in records] == [False] * len(bad) + [True] * len(good)
    assert all(r.problem for r in records[:len(bad)])


def test_an_undetected_tamper_and_a_wrong_digest_count_as_failures():
    pkg = run.load_package()
    rng = random.Random(2)
    cli_workload = CliRunReplay(pkg, rng, smoke=True)
    ops = [cli_workload.op("commit3", rng, tamper=True) for _ in range(3)]
    assert all(run.execute(op).ok for op in ops)

    honest = pkg.cli.replay_transcript
    pkg.cli.replay_transcript = lambda text: (True, None, "verified")
    try:
        assert not any(run.execute(op).ok for op in ops)
    finally:
        pkg.cli.replay_transcript = honest

    golden = cli_workload.post_checks()
    assert golden and all(run.execute(op).ok for op in golden)
    cli_workload.golden["commit3"]["sha256"] = "0" * 64
    assert [op.family for op in cli_workload.post_checks()
            if not run.execute(op).ok] == ["commit3"]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-suite", "--seed",
                          "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
