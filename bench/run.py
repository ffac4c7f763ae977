"""poisson-forge benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and nothing else is built.  An untraced run (``--trace 0``)
sets up the workload, repeats whole rounds of its batch until the next
round would end after ``--seconds``, checks the outputs against the
outside oracles and prints the end-to-end metrics.  A traced run
(``--trace 1``) runs one untraced round and two traced rounds, checks
that the two traced rounds did identical work, writes the spans to
``bench/out/`` and prints the per-layer metrics.  ``--smoke`` shrinks
every batch to a few seconds.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  An op that raises
counts as failed; the run is correct only if every failed op is one of
the program's known faults (``Op.known_fault``) and the oracles accept
the outputs of the other ops.

Timings are reported at the box's reference speed.  One core of the
shared box this benchmark was built on runs up to 1.8 times slower for
minutes at a time, so a timer samples a fixed calibration loop (stdlib
rationals and dicts, no program code) every ``CALIBRATE_EVERY_S`` while
ops run, and each op's seconds are scaled by ``CALIBRATION_S`` over the
loop's mean time during and around the op.  The raw seconds are printed
as well.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import FAILED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up is measured in this process and in this many fresh ones.
SETUP_PROBES = 4
# Seconds the calibration loop takes at the reference speed (about its
# time on an idle core of the 2-core box) and the time between two
# samples of it.
CALIBRATION_S = 0.0035
CALIBRATE_EVERY_S = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small batches that run in a few seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _use_source_tree():
    if not (SRC / "poisson_forge" / "__init__.py").is_file():
        sys.exit(f"error: no poisson_forge sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _check_imported_from_tree():
    import poisson_forge
    if Path(poisson_forge.__file__).resolve().parent != SRC / "poisson_forge":
        sys.exit(f"error: poisson_forge was imported from {poisson_forge.__file__}")


# Two sparse polynomials over eight variables; the calibration loop
# multiplies them the way LaurentPoly.__mul__ does, with stdlib types only.
_P = {(i % 3, i % 4, i % 2, i // 3 % 3, i % 5, 0, 0, 0): Fraction(i + 1, i % 4 + 1)
      for i in range(40)}
_Q = {(i % 2, i % 3, i // 2 % 2, i % 2, 0, i % 3, 0, 0): Fraction(2 * i - 7, i % 3 + 1)
      for i in range(30)}


def calibrate() -> float:
    """Seconds of a fixed sparse product of rational polynomials."""
    enabled = gc.isenabled()
    gc.disable()  # the program's heap must not change the loop's cost
    try:
        start = time.perf_counter()
        for _ in range(2):
            terms = {}
            for m1, c1 in _P.items():
                for m2, c2 in _Q.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    total = terms.get(m, 0) + c1 * c2
                    if total:
                        terms[m] = total
                    else:
                        terms.pop(m, None)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the box's speed while ops run.

    A wall-clock timer interrupts the run every ``CALIBRATE_EVERY_S`` and
    times the calibration loop; ``scale()`` turns an op's seconds into
    seconds at the reference speed with the mean of the samples taken
    during the op and within one interval of it.  Time spent sampling is
    kept out of the ops' seconds.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a tick that arrives while sampling is dropped
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.loops.append(calibrate())
            self.stamps.append(start)
        except RecursionError:  # interrupted a deep recursion; skip
            pass
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scale(self, start: float, end: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - CALIBRATE_EVERY_S)
        hi = bisect.bisect_right(self.stamps, end + CALIBRATE_EVERY_S)
        window = self.loops[lo:hi] or self.loops
        return seconds * CALIBRATION_S / statistics.mean(window)


@dataclass
class Round:
    raw: list[float]      # seconds of each op
    scaled: list[float]   # the same at the reference speed
    outputs: list
    failed: int
    unexpected: list[str]  # labels of failed ops that are not known faults

    @property
    def wall(self) -> float:
        return sum(self.scaled)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_round(ops, tracer=None) -> Round:
    """Run every op once, in order, sampling the box's speed meanwhile."""
    raw, spans, outputs, failed, unexpected = [], [], [], 0, []
    with Speedometer() as speed:
        for index, op in enumerate(ops):
            frame = None
            if tracer is not None:
                tracer.op = index
                frame = tracer.enter("op")
            spent = speed.spent
            t0 = time.perf_counter()
            try:
                output = op.call()
            except Exception as err:  # an op that raises is a failed op
                output = FAILED
                failed += 1
                if not op.known_fault:
                    unexpected.append(op.label)
                print(f"op failed: {op.label}: {type(err).__name__}", file=sys.stderr)
            t1 = time.perf_counter()
            if frame is not None:
                tracer.exit(frame)
            raw.append(t1 - t0 - (speed.spent - spent))
            spans.append((t0, t1))
            outputs.append(output)
    scaled = [speed.scale(t0, t1, seconds) for (t0, t1), seconds in zip(spans, raw)]
    return Round(raw, scaled, outputs, failed, unexpected)


def _digests(workload, outputs):
    return [out if out is FAILED else workload.digest(out) for out in outputs]


def measure_setup_elsewhere(args) -> list[float]:
    """Scaled set-up seconds of fresh processes, run one after another."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_source_tree()
    os.environ.pop("POISSON_FORGE_THREADS", None)
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r};"
                 f" choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    workload = cls(args.seed, smoke=args.smoke)
    setup_raw = time.perf_counter() - t0
    setup_s = setup_raw * CALIBRATION_S / statistics.mean([calibrate(), calibrate()])
    _check_imported_from_tree()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ops = workload.ops()

    if args.trace:
        result = traced_run(args, workload, ops)
    else:
        result = timed_run(args, workload, ops, setup_s)
    print(json.dumps(result))
    return 0


def _verdict(workload, first, rounds_agree, rounds, extra_failures=()):
    """True if no op failed but the known faults, every round gave the
    first round's outputs, and the oracles accept those outputs."""
    failures = list(extra_failures)
    for label in sorted({label for r in rounds for label in r.unexpected}):
        failures.append(f"{label}: raised")
    if not rounds_agree:
        failures.append("rounds gave different outputs")
    failures += workload.check(first)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return not failures


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def timed_run(args, workload, ops, setup_main: float) -> dict:
    begin = time.perf_counter()
    rounds = [run_round(ops)]
    # the peak of set-up plus one batch, whatever the number of rounds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = rounds[0].outputs
    reference = _digests(workload, first)
    agree = True
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
        done = run_round(ops)
        agree = agree and _digests(workload, done.outputs) == reference
        done.outputs = None
        rounds.append(done)
    setups = [setup_main] + measure_setup_elsewhere(args)
    correct = _verdict(workload, first, agree, rounds)
    op_times = [t for r in rounds for t, out in zip(r.scaled, first)
                if out is not FAILED]
    metrics = {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "op_p50_ms": (statistics.median(op_times) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:>12} {value:12.6f} {unit}")
    print(f"{'rounds':>12} {len(rounds):12d}")
    print(f"{'raw wall_s':>12} " + " ".join(f"{r.raw_wall:.4f}" for r in rounds))
    print(f"{'wall_s':>12} " + " ".join(f"{r.wall:.4f}" for r in rounds))
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)
    return _result(correct, attempted, failed, metrics)


def traced_run(args, workload, ops) -> dict:
    plain = run_round(ops)
    reference = _digests(workload, plain.outputs)
    agree = True
    traced, tracers = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        try:
            done = run_round(ops, tracer)
        finally:
            instrumentation.remove()
        traced.append(done)
        tracers.append(tracer)
        agree = agree and _digests(workload, done.outputs) == reference
    counts = [t.deterministic() for t in tracers]
    extra = []
    if counts[0] != counts[1]:
        differing = sorted(k for k in set(counts[0]) | set(counts[1])
                           if counts[0].get(k) != counts[1].get(k))
        extra.append(f"traced rounds did different work: {differing[:5]}")
    correct = _verdict(workload, plain.outputs, agree, [plain] + traced, extra)
    overhead = statistics.mean(r.wall for r in traced) / plain.wall
    # span seconds are raw; scale them like the round they belong to
    scale = traced[0].wall / traced[0].raw_wall
    metrics = tracing.layer_metrics(tracers[0], overhead, scale)
    _write_trace(args, tracers[0], counts[0], plain, traced, ops)
    print("work counts of one traced round:")
    for name, value in counts[0].items():
        print(f"{name:>44} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>44} {value:14.6f} {unit}")
    attempted = 3 * len(ops)
    failed = plain.failed + sum(r.failed for r in traced)
    return _result(correct, attempted, failed, metrics)


def _write_trace(args, tracer, counts, plain, traced, ops):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "untraced_wall_s": plain.wall, "traced_wall_s": [r.wall for r in traced],
        "raw_to_reference_speed": traced[0].wall / traced[0].raw_wall,
        "ops": [op.label for op in ops],
        "counts": counts,
        "layers": tracing.layer_table(tracer),
        "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
