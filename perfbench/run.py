"""Run one workload of the gbbkit benchmark and print its metrics.

    python3 perfbench/run.py --workload cube --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: gbbkit is imported from its ``src/``.
The workload runs in whole rounds, one job at a time (one client, closed
loop), and every answer is checked by the workload's oracle.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import run_rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cube", "certify", "words")
SETUP_PROBES = 9           # fresh processes timed for setup_s, after a warm-up
TAIL_BEYOND = 10


def setup(workload, seed):
    """Import gbbkit from the checkout (and click, for certify) and
    generate the seeded jobs."""
    sys.path.insert(0, str(SRC))
    try:
        import gbbkit
    except ImportError as err:
        sys.exit(f"perfbench: cannot import gbbkit from {SRC}: {err}")
    if Path(gbbkit.__file__).resolve().parent != SRC / "gbbkit":
        sys.exit(f"perfbench: gbbkit was imported from {gbbkit.__file__}, "
                 f"not from {SRC}")
    return importlib.import_module(workload).make_jobs(seed)


def measure_setup(workload, seed):
    """Median set-up time over fresh processes: the CPU time a process
    spends from its start until its first job is ready, which every
    ``gbb`` invocation pays."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=120, check=True)
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times[1:])


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics.  On a few dozen jobs whose costs come in steps,
    it does not jump between neighbouring jobs the way a single order
    statistic does when noise swaps them."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    steps = 200 * n        # midpoint rule for the Beta(a, b) mass per rank
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def jobs_per_s(res):
    busy = sum(sum(lat) for lat in res.latencies)
    return (res.attempted - res.failed) / busy


def end_to_end(workload, seed, seconds, jobs):
    setup_s = measure_setup(workload, seed)
    res = run_rounds(jobs, seconds, workload, seed)
    # one latency per job, its median over the rounds, so that the
    # percentiles do not depend on how many rounds fit in the run
    per_job = [statistics.median(lat) for lat in res.latencies]
    tail_q = 1 - TAIL_BEYOND / len(per_job)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s(res),
        "job_p50_s": hd_quantile(per_job, 0.5),
        "job_tail_s": hd_quantile(per_job, tail_q),
        # over set-up and the first round, whatever the number of rounds
        "peak_rss_mb": res.peak_rss_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "jobs_per_s": f"{res.rounds} round(s) of {len(jobs)} jobs",
        "job_tail_s": f"p{100 * tail_q:.1f} of {len(per_job)} jobs, "
                      f"{TAIL_BEYOND} beyond it",
    }
    print(f"failed_frac  {res.failed / res.attempted:.4g} ratio  "
          f"({res.failed} of {res.attempted} jobs); the rounds took "
          f"{res.wall_s:.1f} s of wall time")
    return res, values, notes


def per_layer(workload, seed, seconds, jobs, names):
    """After one untimed warm-up round, a traced half and an untraced
    half: the per-layer metrics come from the traced half, the tracing
    overhead from comparing the two halves."""
    from tracing import LAYERS, Tracer

    warm = run_rounds(jobs, 0, workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(jobs, seconds / 2, workload, seed, tracer)
    finally:
        tracer.uninstall()
    plain = run_rounds(jobs, seconds / 2, workload, seed)
    values, unstable = tracer.metrics(names)
    values["trace.overhead_frac"] = jobs_per_s(plain) / jobs_per_s(traced) - 1
    for name in unstable:
        print(f"perfbench: count {name} differs between traced rounds",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"spans": tracer.spans, "metrics": values}))
    job_s = values["trace.job_s"]
    for layer in ("bench",) + LAYERS:
        own = values[f"{layer}.self_s"]
        print(f"{layer:<13} self {own:9.4f} s  {100 * own / job_s:5.1f}% "
              "of job time")
    print(f"spans written to {out.relative_to(ROOT)}")
    for part in (warm, traced):
        plain.attempted += part.attempted
        plain.failed += part.failed
    return plain, values, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    jobs = setup(args.workload, args.seed)
    if args.probe_setup:
        print(time.process_time())
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        res, values, notes = per_layer(args.workload, args.seed,
                                       args.seconds, jobs,
                                       [m["name"] for m in metrics])
    else:
        res, values, notes = end_to_end(args.workload, args.seed,
                                        args.seconds, jobs)
    for m in metrics:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:<28} {values[m['name']]:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()
