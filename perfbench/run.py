"""Run one kquad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kquad checkout.  kquad is imported from `src/` of that
checkout (or of `--root`); without it the run exits with code 2.

With `--trace 0` the run first times SETUP_REPEATS set-ups of the workload
in fresh processes (`setup_s`).  It then builds the inputs once in this
process and repeats whole rounds of kquad commands for about `--seconds`,
and reports the end-to-end metrics.  With
`--trace 1` an untraced warm-up round is followed by alternating traced and
untraced rounds, and the per-layer metrics of BENCHMARK.json are reported
for one set-up plus one traced round, with `trace.overhead_s`, the median
traced round minus the median untraced one after the warm-up.
The spans are written to perfbench/out/trace_<workload>_seed<n>.json.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the environment, the sha256 of the sweep CSVs and
every failed check.  The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_REPEATS = 7
# cmd_tail_s is the 75th percentile when a run has at least 40 commands, so
# that ten or more commands lie beyond it; with fewer it is the median.
TAIL_PERCENTILE = 75
MIN_TAIL_COMMANDS = 40
# A workload that needs a number of successful commands (compress_cli) stops
# at this many times --seconds, or after a round without one, when it cannot
# collect them.
MAX_OVERRUN = 3
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KQUAD_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--root", default=str(HERE.parent), help="kquad checkout to measure")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def time_setups(src, workload, seed, workdir):
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), workload, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(root):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "git_commit": git_commit(root),
    }


def run_rounds(workload, inputs, seconds, tracer):
    """Whole rounds for about `seconds`: the run stops when one more round of
    average length would end after `seconds`, and an untraced run has made
    `workload.min_commands` successful commands (see MAX_OVERRUN).

    With a tracer, round 0 is an untraced warm-up and traced and untraced
    rounds then alternate, so that both sides of trace.overhead_s run warm.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.phase = "round"
            tracer.install()
        try:
            rnd = workload.run_round(inputs, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((rnd, traced))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
            continue  # another round of average length still ends in time
        if tracer is not None:
            if len(rounds) >= 3 and len(rounds) % 2 == 1:
                return rounds
        elif (
            sum(len(r.latencies) for r, _ in rounds) >= workload.min_commands
            or not rnd.latencies
            or elapsed >= MAX_OVERRUN * seconds
        ):
            return rounds


def end_to_end(rounds, setup_samples):
    walls = [r.wall_s for r, _ in rounds]
    latencies = sorted(t for r, _ in rounds for t in r.latencies)
    if not latencies:
        return None
    if len(latencies) >= MIN_TAIL_COMMANDS:
        tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    else:
        tail = statistics.median(latencies)
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "rules_per_s": (statistics.median(r.rules / r.wall_s for r, _ in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_tail_s": (tail, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    root = Path(args.root).resolve()
    src = root / "src"
    if not (src / "kquad" / "__init__.py").is_file():
        print(f"error: no kquad sources under {src}", file=sys.stderr)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_samples = [] if args.trace else time_setups(src, args.workload, args.seed, workdir)

        sys.path.insert(0, str(src))
        import kquad

        if not Path(kquad.__file__).resolve().is_relative_to(src):
            print(f"error: kquad imported from {kquad.__file__}, not {src}", file=sys.stderr)
            return 2
        from spans import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            inputs = workload.setup(args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds = run_rounds(workload, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r, _ in rounds for p in r.problems]
    digests = [r.digests for r, _ in rounds if r.digests]
    if any(d != digests[0] for d in digests):
        problems.append("timings = off CSVs differ between rounds of one run")
    if args.trace:
        traced = [r.wall_s for r, t in rounds if t]
        untraced = [r.wall_s for r, t in rounds[1:] if not t]
        per_layer = [m["name"] for m in benchmark["per_layer"] if m["name"] != "trace.overhead_s"]
        metrics = tracer.per_layer(per_layer, len(traced))
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.dump(OUT / f"trace_{args.workload}_seed{args.seed}.json",
                    workload=args.workload, seed=args.seed, traced_rounds=len(traced))
    else:
        metrics = end_to_end(rounds, setup_samples)
        if metrics is None:
            problems.append("no command succeeded")
            metrics = {}
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r, _ in rounds),
        "failed": sum(r.failed for r, _ in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "round_walls_s": [r.wall_s for r, _ in rounds],
        "setup_samples_s": setup_samples,
        "environment": environment(root),
        "digests": digests[0] if digests else None,
        "problems": problems,
        "failures": sorted({f for r, _ in rounds for f in r.failures}),
    }
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
