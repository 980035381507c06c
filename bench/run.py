"""The sarxid benchmark: one workload, one seed, one run.

  python3 bench/run.py --workload region|screen|iso --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Set-up runs in several fresh
interpreters (import sarxid, then generate and write the seeded inputs to
.bench_run/); the jobs then run in one more fresh, single-threaded process
as a closed loop with one client (see worker.py); an oracle process checks
every output afterwards (see oracle.py).  Times are seconds at a fixed
reference speed of the host (see speed.py); wall-clock seconds are printed
beside them.  The last line of standard output
is one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  BENCHMARK.json at the repository
root lists the metrics; bench/DESIGN.md says what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up and job processes keep their bytecode here, built from the code under
# test, whatever state the checkout's own __pycache__ directories are in
PYCACHE = os.path.join(".bench_build", "pycache")
SETUP_BEFORE = 4
SETUP_AFTER = 5
# a job that has not returned by then is a hang, not a measurement
WORKER_GRACE_S = 90
ORACLE_TIMEOUT_S = 30

# the workload each counter is meant for: it must be nonzero there
SELF_TEST_COUNTERS = {
    "region": "groebner.buchberger_calls",
    "screen": "lss.unobservable_space_s",
    "iso": "lss.find_isomorphisms_s",
}


class BenchError(Exception):
    pass


def child_env(own_pycache):
    env = {k: v for k, v in os.environ.items() if k not in ("SARX_SEED", "PYTHONPYCACHEPREFIX")}
    env.update(
        PYTHONPATH="src",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    if own_pycache:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.abspath(PYCACHE)
    else:
        # the oracle reads the installed sympy's bytecode and writes none
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, timeout, own_pycache=True):
    try:
        proc = subprocess.run(
            [sys.executable] + argv, env=child_env(own_pycache), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s did not finish in %d s" % (argv[0], timeout)) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(argv), proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def tree_digest(path):
    """Digest of the files in `path`, with the directory's own name masked."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read().replace(path.encode(), b"<dir>"))
    return h.hexdigest()


def tail_percentile(count):
    """Highest whole percentile with at least ten of `count` jobs beyond it."""
    return max(0, 100 * (count - 10) // count)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("region", "screen", "iso"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "sarxid", "cli.py")):
        raise BenchError("run from the root of a sarxid checkout: src/sarxid is missing")
    run_dir = os.path.join(".bench_run", "%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir]
    worker = os.path.join(HERE, "worker.py")

    # set-ups before and after the job process, so that one slow spell of a
    # shared machine does not set the median; all must write the same inputs.
    # An untimed first set-up builds the bytecode that the timed ones load.
    spare_dir = run_dir + "-setup"
    shutil.rmtree(spare_dir, ignore_errors=True)
    setup_times, setup_wall, digests = [], [], set()

    def set_up(directory, timed=True):
        out = run_child([worker, "setup", "--workload", args.workload, "--seed", str(args.seed),
                         "--dir", directory], timeout=10 if timed else 60)
        if timed:
            times = json.loads(out.splitlines()[-1])
            setup_times.append(times["setup_s"])
            setup_wall.append(times["wall_s"])
        digests.add(tree_digest(directory))

    set_up(spare_dir, timed=False)
    for _ in range(SETUP_BEFORE):
        set_up(run_dir)
    run_child(
        [worker, "run"] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=args.seconds + WORKER_GRACE_S,
    )
    for _ in range(SETUP_AFTER):
        set_up(spare_dir)
    shutil.rmtree(spare_dir)
    if len(digests) != 1:
        raise BenchError("set-up wrote different inputs for the same seed")

    run_child([os.path.join(HERE, "oracle.py"), run_dir], timeout=ORACLE_TIMEOUT_S, own_pycache=False)
    with open(os.path.join(run_dir, "jobs.json")) as fh:
        jobs = json.load(fh)["jobs"]
    with open(os.path.join(run_dir, "results.json")) as fh:
        results = json.load(fh)
    with open(os.path.join(run_dir, "verdicts.json")) as fh:
        verdicts = json.load(fh)

    entries = results["entries"]
    attempted = sum(e["count"] for e in entries)
    bad = [e for e in entries if not verdicts[e["id"]]["ok"]]
    failed = sum(e["count"] for e in bad)
    outputs_digest = hashlib.sha256(
        json.dumps([[e["id"], e["rc"], e["out"]] for e in entries]).encode()
    ).hexdigest()

    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("closed loop, 1 client, 1 process; %d jobs, %d runs in %d passes (%s)" % (
        len(entries), attempted, len(results["passes"]),
        ", ".join("%s %.2f s (wall %.2f s)" % ("traced" if t else "untraced", s, w)
                  for t, s, w in results["passes"])))
    for e in bad:
        print("FAILED %s: %s" % (e["id"], verdicts[e["id"]]["why"]))
    print("error_rate = %.6g ratio  (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    print("outputs_sha256 = %s" % outputs_digest)
    correct = not bad

    if args.trace:
        metrics = results["per_layer"]
        untraced = [s for t, s, _ in results["passes"] if not t]
        traced = [s for t, s, _ in results["passes"] if t]
        overhead = statistics.mean(traced) / statistics.mean(untraced)
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
        counter = SELF_TEST_COUNTERS[args.workload]
        if not metrics[counter]["value"]:
            print("SELF-TEST FAILED: %s is zero on %s" % (counter, args.workload))
            correct = False
        print("tracing overhead: traced jobs_per_s %.4f vs untraced %.4f (ratio %.4f)" % (
            len(entries) / statistics.mean(traced), len(entries) / statistics.mean(untraced), overhead))
    else:
        per_entry = [statistics.mean(e["times"]) for e in entries]
        per_entry_wall = [statistics.mean(e["wall"]) for e in entries]
        p = tail_percentile(len(entries))
        slowest = max(range(len(entries)), key=per_entry.__getitem__)
        metrics = {
            "jobs_per_s": metric(attempted / results["loop_s"], "1/s"),
            "job_p50_s": metric(statistics.median(per_entry), "s"),
            "job_tail_s": metric(percentile(per_entry, p), "s"),
            "job_max_s": metric(per_entry[slowest], "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(results["peak_rss_kb"] / 1024, "MB"),
        }
        print("a job's time is its mean over its runs; job_tail_s is p%d of %d jobs; "
              "job_max_s is %s (%d runs)" % (p, len(entries), jobs[slowest]["id"], len(entries[slowest]["times"])))
        print("setup_s is the median of %d fresh set-ups" % len(setup_times))
        print("wall clock: jobs_per_s %.6g, job_p50_s %.6g, job_tail_s %.6g, job_max_s %.6g, setup_s %.6g" % (
            attempted / results["loop_wall_s"], statistics.median(per_entry_wall),
            percentile(per_entry_wall, p), max(per_entry_wall), statistics.median(setup_wall)))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print("bench error: %s" % exc, file=sys.stderr)
        sys.exit(2)
