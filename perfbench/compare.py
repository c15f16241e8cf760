"""Compare a parent and a change on every workload, in alternating pairs.

    python3 perfbench/compare.py --base <parent checkout> --change <checkout>

Both sides run this copy of the benchmark (`run.py --root <side>`), with the
run length of BENCHMARK.json, in PAIRS pairs per workload; pair i uses seed
i + 1 on both sides and the side that runs first alternates.  For every
end-to-end metric the report gives each side's median and quartiles and the
share of pairs the change won (ties count for neither side), then a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread (quartile distance over median) is wider
              than the bound, and not every change run beat every parent run;
  improved    the change won at least 9 of the 10 pairs and the medians differ by
              more than the parent's quartile distance;
  same        otherwise.

The attempted and failed operation counts of both sides are shown beside the
metrics, and the last table holds one row per workload.  The exit code is 1
when a run fails its correctness checks or a metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10  # the fewest that can back a claimed gain


def run_once(root, workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--root", str(root), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {root} {workload} seed {seed} printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    b_q1, b_med, b_q3 = statistics.quantiles(base, n=4)
    c_med = statistics.median(change)
    worse = (c_med - b_med) / b_med if lower else (b_med - c_med) / b_med
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if worse > metric["bound"]:
        return "regressed", wins
    if (b_q3 - b_q1) / b_med > metric["bound"] and not all_better:
        return "unresolved", wins
    if wins >= 0.9 * len(base) and abs(c_med - b_med) > b_q3 - b_q1:
        return "improved", wins
    return "same", wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="checkout with the change")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    sides = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}

    summary, failing = [], False
    for workload in workloads:
        results = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                results[side].append(run_once(sides[side], workload, i + 1))
        counts = {
            side: (sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs))
            for side, rs in results.items()
        }
        correct = all(r["correct"] for rs in results.values() for r in rs)
        failing |= not correct
        print(f"\n{workload}: attempted/failed base {counts['base'][0]}/{counts['base'][1]}, "
              f"change {counts['change'][0]}/{counts['change'][1]}, "
              f"all runs correct: {correct}")
        print(f"  {'metric':<14} {'base median [q1, q3]':<32} {'change median [q1, q3]':<32} "
              f"{'wins':>6}  verdict")
        verdicts = []
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in results["base"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            word, wins = verdict(metric, base, change)
            failing |= word == "regressed"
            verdicts.append(f"{name} {word}")
            cells = []
            for values in (base, change):
                q1, med, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
            print(f"  {name:<14} {cells[0]:<32} {cells[1]:<32} "
                  f"{wins:>3}/{PAIRS:<2}  {word} (bound {metric['bound']:.0%})")
        summary.append((workload, counts, correct, verdicts))

    print("\nworkload        base att/fail  change att/fail  correct  verdicts")
    for workload, counts, correct, verdicts in summary:
        b, c = counts["base"], counts["change"]
        print(f"{workload:<15} {b[0]:>6}/{b[1]:<7} {c[0]:>7}/{c[1]:<8} {str(correct):<8} "
              + "; ".join(verdicts))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
