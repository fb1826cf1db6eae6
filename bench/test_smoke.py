"""Smoke test of the benchmark at minimal scale.

    python3 -m pytest bench/test_smoke.py

Each workload runs for about a second at ``--smoke`` scale (corpus size 7,
2 mutations per fixture, the d=25 and k=30 rungs), traced and untraced:
every metric BENCHMARK.json names is printed with its unit, and no op
fails.  The failure accounting, which the smoke scale never reaches, runs
on synthetic ops.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_fails_no_op(workload, trace):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0, out.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def _recurse(n):
    return _recurse(n + 1)


def _spin():
    end = time.perf_counter() + 1
    while time.perf_counter() < end:
        pass


def test_failed_ops_are_counted_named_and_timed_over_the_limit(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    ok = (lambda output: (True, None))
    ops = [
        workloads.Op("deep", lambda: _recurse(0), ok),
        workloads.Op("slow", _spin, ok),
        workloads.Op("wrong", lambda: 1, lambda output: (True, ("corpus.judge", "wrong"))),
        workloads.Op("fine", lambda: 1, ok),
    ]
    tally = run.Tally(run.Speed(), 0)
    try:
        tally.run_pass(ops)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert tally.attempted == 4
    assert sorted(tally.failures) == [
        ("deep", "bench.op", "RecursionError"),
        ("slow", "bench.op", "over the limit"),
        ("wrong", "corpus.judge", "wrong"),
    ]
    assert tally.decided == 2
    assert tally.failed_ops == {0, 1, 2}
    assert tally.stopped_ops == {1}
    times = tally.op_times(latency=True)
    assert all(times[i] >= 0.05 for i in (0, 1, 2))
    assert times[3] < 0.05
    # The stopped op's time is the limit, not the program's: it stays out
    # of the throughput.
    assert set(tally.op_times()) == {0, 2, 3}

