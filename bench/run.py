"""Benchmark of inhcalc: three closed-loop workloads, checked op by op.

Run from the root of a checkout:

    python3 bench/run.py --workload mutation|corpus|deep --seed N \\
        --seconds S --trace 0|1

One client in one process runs the workload's ops in a closed loop: the
next op starts only when the previous one has ended.  The program is
single-threaded and nothing in it queues or retries, so there are no wait
times to record.  A run repeats whole passes over the ops for about
``--seconds`` seconds, at least MIN_PASSES passes.

Every op's output is checked against a reference (see ``workloads.py``).
An op fails when it raises (``RecursionError`` included), returns a wrong
output, or runs past ``OP_LIMIT_S``, where an alarm stops it.  Each failure
is attributed to the layer whose call raised it or ran past the limit, and
the failed ops are printed by name.  ``correct`` in the result is false
when a reference itself fails its set-up check.

Times, the limit included, are at a reference speed (see ``Speed``): a
calibration loop run between ops tracks the shared host's speed, which
drifts by up to 2x within seconds, and scales each measured time to what
it would be on the machine the baseline was taken on.  The unscaled
throughput is printed beside the metrics.  Each op's time is its median
over the passes.  Peak memory comes from a forked copy of the process
(see ``MemoryProbe``).

``--trace 0`` prints the end-to-end metrics, the same for every workload:
``setup_s`` (median of SETUP_REPS set-ups: import, inputs, reference
checks), ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` (the highest
percentile with TAIL_BEYOND ops beyond it) over the timed ops,
``ops_per_s`` without the ops the alarm stopped, ``ok_share`` (1 - failed_share), ``decided_share`` (ops with a decided
answer) and ``peak_rss_mb``.  On ``deep`` only the rungs that passed when
the benchmark was first run are timed, and ``us_per_level`` is printed
beside them.

``--trace 1`` runs untraced passes for a third of the time, then traced
passes, and prints per-layer calls, busy and self seconds and counts, per
pass, with the tracing overhead; the spans go to
``.bench_out/spans-<workload>-seed<n>.tsv``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("syntax", "semantics", "lam", "anf_direct", "corpus", "fixtures")
OP_LIMIT_S = 2.0  # at the reference speed; 25x the slowest op that completed at first
SETUP_REPS = 5
MIN_PASSES = 5
TRACE_MIN_PASSES = 2
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
TIMEOUT = "over the limit"
CALIBRATION_S = 0.006  # median time of calibrate() on the reference machine
CALIBRATE_EVERY_S = 0.1


class OpTimeout(BaseException):
    """Raised by the alarm in an op that runs past OP_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


def calibrate() -> float:
    """Time of a fixed loop over the kind of work the program does (tuples,
    frozensets, dict lookups): the machine's current speed."""
    start = time.perf_counter()
    memo: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        memo[key] = frozenset((key, i & 7)) | memo.get((i % 89, i % 97), frozenset())
    return time.perf_counter() - start


class Speed:
    """Converts measured seconds to seconds at the reference speed.

    On a shared host the machine's speed drifts by up to 2x within seconds.
    The calibration loop, rerun every CALIBRATE_EVERY_S between ops, slows
    down with it.  A time measured after calibration sample ``k`` is scaled
    by ``CALIBRATION_S`` over the median of the samples around it, so it
    reads the same whatever the machine's speed at the moment.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.at = -math.inf

    def update(self, force: bool = False) -> int:
        """Calibrate if it is due; the index of the latest sample."""
        if force or time.perf_counter() - self.at >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.at = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor to the reference speed for a time measured between
        samples ``k`` and ``k + 1``; before the later samples exist it
        rests on the earlier ones."""
        return CALIBRATION_S / statistics.median(self.samples[max(0, k - 1):k + 3])

    def timed_set_up(self, args, tracer=None):
        """``set_up``, the index of the sample before it, and its time at
        the reference speed."""
        k = self.update(force=True)
        start = time.perf_counter()
        result = set_up(args, tracer)
        elapsed = time.perf_counter() - start
        self.update(force=True)
        return result, k, elapsed * self.scale(k)


def set_up(args, tracer=None):
    """Import ``inhcalc`` afresh from the checkout's ``src`` and build the
    workload's ops: ``(modules, ops, problems)``."""
    for name in [n for n in sys.modules if n == "inhcalc" or n.startswith("inhcalc.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{n: importlib.import_module(f"inhcalc.{n}") for n in MODULES})
    if not Path(m.syntax.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"inhcalc was imported from {m.syntax.__file__}, not {ROOT / 'src'}")
    if tracer is not None:
        tracer.install(m)
    problems: list[str] = []
    ops = workloads.WORKLOADS[args.workload](m, args.seed, args.smoke, problems)
    return m, ops, problems


class Tally:
    """Outcomes of the ops of one or more passes over the same op list.

    An op's time is the median of its times, at the reference speed, over
    the passes.  Each pass runs the ops in a fresh order drawn from the
    seed, so that what one op leaves to the next (cache contents, where a
    garbage collection falls) lands on other ops in every pass and the
    median drops it.  In the latency percentiles a failed op counts as over
    the limit.  An op the alarm stopped is left out of the throughput: its
    time is the limit, a constant the benchmark sets, not time the program
    spends.
    """

    def __init__(self, speed: Speed, seed: int):
        self.speed = speed
        self.rng = random.Random(seed)
        self.raw_s = 0.0  # measured time of every timed op run the alarm did not stop
        # timed op's index -> (measured time, calibration sample) of each
        # run the alarm did not stop
        self.runs: dict[int, list[tuple]] = {}
        self.levels: dict[int, int] = {}
        self.failed_ops: set[int] = set()
        self.stopped_ops: set[int] = set()  # ops the alarm stopped at the limit
        self.attempted = 0
        self.decided = 0
        self.failures: list[tuple[str, str, str]] = []  # (op, layer, kind)
        self.passes = 0

    def run_pass(self, ops, tracer=None) -> None:
        clock = time.perf_counter
        order = list(range(len(ops)))
        self.rng.shuffle(order)
        for i in order:
            op = ops[i]
            k = self.speed.update()
            if tracer is not None:
                tracer.begin_op(self.attempted, k)
            failure = None
            start = clock()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S / self.speed.scale(k))
                    output = op.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout as exc:
                failure = (layers.failing_layer(exc), TIMEOUT)
            except Exception as exc:  # RecursionError or any other error fails the op
                failure = (layers.failing_layer(exc), type(exc).__name__)
            elapsed = clock() - start
            if tracer is not None:
                tracer.end_op()
            self.attempted += 1
            if failure is None:
                decided, failure = op.check(output)
                self.decided += decided
            if failure is not None:
                self.failures.append((op.name, *failure))
                self.failed_ops.add(i)
            stopped = failure is not None and failure[1] == TIMEOUT
            if stopped:
                self.stopped_ops.add(i)
            if op.timed:
                runs = self.runs.setdefault(i, [])
                if not stopped:
                    runs.append((elapsed, k))
                    self.raw_s += elapsed
                self.levels[i] = op.levels
        self.passes += 1

    def run(self, ops, seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> None:
        """Whole passes for about ``seconds``, at least ``min_passes``."""
        start = time.perf_counter()
        while True:
            gc.collect()
            pass_start = time.perf_counter()
            self.run_pass(ops, tracer)
            now = time.perf_counter()
            if self.passes >= min_passes and now - start + (now - pass_start) > seconds:
                return

    def op_times(self, latency: bool = False) -> dict[int, float]:
        """Timed op's index -> its median time at the reference speed.  An
        op the alarm stopped is left out; with ``latency`` it counts as the
        limit, and any other failed op as at least the limit."""
        out = {}
        for i, runs in sorted(self.runs.items()):
            if i in self.stopped_ops:
                if latency:
                    out[i] = OP_LIMIT_S
                continue
            t = statistics.median(elapsed * self.speed.scale(k) for elapsed, k in runs)
            out[i] = max(t, OP_LIMIT_S) if latency and i in self.failed_ops else t
        return out

    @property
    def op_s(self) -> float:
        """Time of one pass over the timed ops the alarm did not stop."""
        return sum(self.op_times().values())

    @property
    def ops_per_s(self) -> float:
        return len(self.op_times()) / self.op_s

    def us_per_level(self) -> float:
        """Time per level of the timed ops the alarm did not stop; 0 when
        they have no levels."""
        times = self.op_times()
        levels = sum(self.levels[i] for i in times)
        return sum(times.values()) / levels * 1e6 if levels else 0.0

    def tail(self) -> tuple[float, float]:
        """``(q, ms)``: the highest percentile q, in steps of 0.1, with at
        least TAIL_BEYOND ops beyond it (nearest rank); the slowest op when
        there are no more than TAIL_BEYOND."""
        times = sorted(self.op_times(latency=True).values())
        n = len(times)
        q = math.floor(1000 * (1 - TAIL_BEYOND / n)) / 10 if n > TAIL_BEYOND else 100.0
        return q, times[max(1, math.ceil(q / 100 * n)) - 1] * 1e3

    def print_failures(self) -> None:
        counts: dict[tuple, int] = {}
        for failure in self.failures:
            counts[failure] = counts.get(failure, 0) + 1
        for (name, layer, kind), times in sorted(counts.items()):
            print(f"failed {name}: {layer}: {kind} (x{times})")


class MemoryProbe:
    """A forked copy of the process, made right after set-up, that waits
    until the timed passes have ended, then runs one pass over the ops the
    alarm did not stop and reports its peak resident memory.  An op stopped
    at the limit holds whatever it had built when the alarm came, so its
    memory would measure the machine's speed, not the program."""

    def __init__(self, ops):
        gc.collect()
        self._skip_r, self._skip_w = os.pipe()
        self._peak_r, self._peak_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self._child(ops)
        os.close(self._skip_r)
        os.close(self._peak_w)

    def _child(self, ops) -> None:
        status = 1
        try:
            os.close(self._skip_w)
            os.close(self._peak_r)
            with os.fdopen(self._skip_r) as pipe:
                skip = set(json.loads(pipe.read()))
            Tally(Speed(), 0).run_pass([op for i, op in enumerate(ops) if i not in skip])
            os.write(self._peak_w, str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss).encode())
            status = 0
        finally:
            os._exit(status)

    def peak_mb(self, skip: set[int]) -> float:
        with os.fdopen(self._skip_w, "w") as pipe:
            pipe.write(json.dumps(sorted(skip)))
        with os.fdopen(self._peak_r) as pipe:
            peak_kb = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        if status != 0:
            raise RuntimeError(f"the memory pass exited with status {status}")
        return int(peak_kb) / 1024


def print_environment(args) -> None:
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
        f"op_limit_s={OP_LIMIT_S} clients=1 closed-loop"
    )


def print_speed(speed: Speed, *tallies: Tally) -> None:
    runs = sum(len(r) for t in tallies for r in t.runs.values())
    raw = sum(t.raw_s for t in tallies)
    print(
        f"# times are at the reference speed: calibrate() took {CALIBRATION_S * 1e3:g} ms "
        f"there and a median {statistics.median(speed.samples) * 1e3:.4g} ms here; "
        f"unscaled, the timed ops ran at {runs / raw:.6g} ops/s"
    )


def end_to_end(args):
    speed = Speed()
    setup = []
    for _ in range(SETUP_REPS):
        (_, ops, problems), _, seconds = speed.timed_set_up(args)
        setup.append(seconds)
    memory = MemoryProbe(ops)
    tally = Tally(speed, args.seed)
    tally.run(ops, args.seconds)
    peak_mb = memory.peak_mb(tally.stopped_ops)
    q, tail_ms = tally.tail()
    failed = len(tally.failures)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(tally.op_times(latency=True).values()) * 1e3, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_share": ((tally.attempted - failed) / tally.attempted, "share"),
        "decided_share": (tally.decided / tally.attempted, "share"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print_environment(args)
    print(f"# passes={tally.passes} timed ops per pass={len(tally.runs)} attempted={tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:14} {value:.6g} {unit}")
    print(f"{'':14} op_tail_ms is p{q:g} of {len(tally.runs)} timed ops")
    print(f"{'failed_share':14} {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    if tally.us_per_level():
        print(f"{'us_per_level':14} {tally.us_per_level():.6g} us")
    print_speed(speed, tally)
    return tally, metrics, problems


def per_layer(args):
    tracer = layers.Tracer()
    speed = Speed()
    (m, ops, problems), tracer.calibration[None], _ = speed.timed_set_up(args, tracer)
    tracer.uninstall()
    # Per-layer figures are means per pass and need fewer passes than the
    # medians of an end-to-end run; two each keep the run near --seconds.
    plain = Tally(speed, args.seed)
    plain.run(ops, args.seconds / 3, min_passes=TRACE_MIN_PASSES)
    tally = Tally(speed, args.seed)
    tracer.install(m)
    try:
        tally.run(ops, args.seconds * 2 / 3, tracer, TRACE_MIN_PASSES)
    finally:
        tracer.uninstall()

    passes = tally.passes
    op_times = tracer.layer_times(speed, setup=False)
    metrics = {}
    for times, per, names in (
        (tracer.layer_times(speed, setup=True), 1, layers.SETUP_LAYERS),
        (op_times, passes, layers.OP_LAYERS + (layers.ROOT,)),
    ):
        for layer in names:
            calls, busy, own = times[layer]
            metrics[f"{layer}.calls"] = (calls / per, "count")
            metrics[f"{layer}.s"] = (busy / per, "s")
            metrics[f"{layer}.self_s"] = (own / per, "s")
    counts = tracer.counts
    parse_s = metrics["syntax.parse.s"][0] * passes
    fuel = counts["semantics.fuel_used"]
    metrics.update({
        "syntax.parse.kb_per_s": (
            counts["syntax.parse.bytes"] / 1024 / parse_s if parse_s else 0.0, "KB/s"),
        "syntax.core_nodes": (counts["syntax.core_nodes"] / passes, "count"),
        "semantics.fuel_used": (fuel / passes, "count"),
        "semantics.us_per_fuel": (
            sum(tracer.span_s(span, speed) for span in tracer.semantics_spans) / fuel * 1e6
            if fuel else 0.0, "us"),
        "semantics.divergences": (counts["semantics.divergences"] / passes, "count"),
        "lam.translated_nodes": (counts["lam.translated_nodes"] / passes, "count"),
        "lam.converges.fuel_used": (counts["lam.converges.fuel_used"] / passes, "count"),
        "lam.head_reduce.steps": (counts["lam.head_reduce.steps"] / passes, "count"),
        "lam.head_reduce.undecided": (counts["lam.head_reduce.undecided"] / passes, "count"),
    })
    failures = {f"{layer}.{kind}": 0 for layer in layers.OP_LAYERS
                for kind in ("recursion_errors", "timeouts")}
    failures["bench.other_failures"] = 0
    for _, layer, kind in tally.failures:
        key = {"RecursionError": f"{layer}.recursion_errors",
               TIMEOUT: f"{layer}.timeouts"}.get(kind, "bench.other_failures")
        failures[key] += 1
    metrics.update({name: (n / passes, "count") for name, n in failures.items()})
    overhead = plain.ops_per_s / tally.ops_per_s - 1
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["trace.ops_per_s"] = (tally.ops_per_s, "1/s")
    metrics["trace.overhead_share"] = (overhead, "share")

    print_environment(args)
    print(f"# untraced passes={plain.passes}, traced passes={passes}; values are per pass")
    print_speed(speed, plain, tally)
    self_sum = sum(own for _, _, own in op_times.values()) / passes
    print(
        f"# per pass, the layers' self times (bench.op glue included) sum to "
        f"{self_sum:.6g} s, the traced time of every op (bench.op.s, ops the alarm "
        f"stopped included); by median op times the timed ops the alarm did not stop "
        f"take {plain.op_s:.6g} s untraced and {tally.op_s:.6g} s traced: "
        f"overhead {overhead:.2%}"
    )
    for name, (value, unit) in metrics.items():
        if value:
            print(f"{name:45} {value:.6g} {unit}")
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    return tally, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="minimal scale: corpus size 7, 2 mutations per fixture, rungs d=25 and k=30",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inhcalc" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'inhcalc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    try:
        tally, metrics, problems = (per_layer if args.trace else end_to_end)(args)
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    tally.print_failures()
    for problem in problems:
        print(f"reference check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
