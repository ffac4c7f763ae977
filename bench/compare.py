"""Compare two sets of untraced benchmark results.

    # one set: the standard output of each run, in <workload>-seed<n>.out
    mkdir -p bench/out/base
    for seed in 1 2 3 4 5; do for w in verify-all normal-form centre-search; do
        python3 bench/run.py --workload $w --seed $seed --seconds 25 --trace 0 \\
            > bench/out/base/$w-seed$seed.out
    done; done

    python3 bench/compare.py bench/out/base bench/out/new

Prints, per workload and end-to-end metric, both sets' medians and
quartiles, the change of the median against the metric's bound, and the
share of pairs the second set won, a pair being the two runs of one
seed (ties count for neither).
Directions and bounds come from the BENCHMARK.json next to this
directory.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)\.out")


def load_set(directory) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result line of each run file in a directory."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).iterdir()):
        match = RUN_FILE.fullmatch(path.name)
        if match:
            last = path.read_text(encoding="utf-8").strip().splitlines()[-1]
            runs.setdefault(match["workload"], {})[int(match["seed"])] = json.loads(last)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_dir, new_dir) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_set(base_dir), load_set(new_dir)
    for workload in sorted(set(base) & set(new)):
        a_runs, b_runs = base[workload], new[workload]
        pairs = [(a_runs[s], b_runs[s]) for s in sorted(a_runs.keys() & b_runs.keys())]
        print(f"{workload}: {len(a_runs)} base runs, {len(b_runs)} new runs,"
              f" {len(pairs)} pairs")
        for side, runs in (("base", a_runs), ("new", b_runs)):
            shares = sorted({r["failed"] / r["attempted"] for r in runs.values()})
            correct = all(r["correct"] for r in runs.values())
            print(f"  {side}: correct={correct} failed shares={shares}")
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            qa = quartiles([r["metrics"][name]["value"] for r in a_runs.values()])
            qb = quartiles([r["metrics"][name]["value"] for r in b_runs.values()])
            won = lost = 0
            for old, changed in pairs:
                x, y = old["metrics"][name]["value"], changed["metrics"][name]["value"]
                if y != x:
                    if (y < x) == lower:
                        won += 1
                    else:
                        lost += 1
            change = (qb[1] - qa[1]) / qa[1]
            worse = (change if lower else -change) > metric["bound"]
            print(f"  {name:>12}: base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  change {change:+.2%}  new won {won}/{won + lost} pairs"
                  f"{'  WORSE THAN BOUND' if worse else ''}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE_DIR NEW_DIR", file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
