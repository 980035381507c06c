"""One benchmark process: either set-up, or the closed job loop.

  worker.py setup --workload W --seed N --dir D
      Fresh interpreter: import sarxid, generate and write the inputs.
      Prints {"setup_s": ..., "wall_s": ...}.
  worker.py run --workload W --seed N --seconds T --trace 0|1 --dir D
      Closed loop with one client: each job is one in-process
      sarxid.cli.main(argv) call and starts when the previous one ends.
      Passes over the job list run while the next one should still end
      within T seconds, and at least two run; with --trace 1, untraced and
      traced passes alternate.  Writes D/results.json.

Times are taken with a speed.Clock: seconds at the reference speed of the
host, with the wall-clock seconds kept beside them.  Run from the root of a
checkout; the program is imported from ./src.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


MIN_PASSES = 2
# In an untraced run, a job that takes more than this share of --seconds runs
# in the first pass only, so that the other jobs still get several passes; it
# is long enough to average the host's speed over its own length.
LONG_JOB_SHARE = 1 / 6


def setup(args):
    import speed

    # a set-up takes 0.05-0.3 s, so sample the host's speed more often
    clock = speed.Clock(interval=0.01)
    clock.start()
    t0 = perf_counter()
    import sarxid.cli  # noqa: F401

    import workloads

    workloads.generate(args.workload, args.seed, args.dir)
    t1 = perf_counter()
    clock.stop()
    print(json.dumps({"setup_s": clock.reference(t0, t1), "wall_s": t1 - t0}))


def run_job(cli, argv):
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a job that raises is counted, the loop goes on
            rc = None
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
    return (t0, t1), rc, out.getvalue(), error


def run(args):
    from sarxid import cli

    import speed
    import tracing

    with open(os.path.join(args.dir, "jobs.json")) as fh:
        jobs = json.load(fh)["jobs"]
    tracer = tracing.Tracer() if args.trace else None
    entries = [{"id": j["id"], "rc": None, "out": None, "error": None,
                "consistent": True, "count": 0, "spans": []} for j in jobs]
    passes = []  # (traced, start, end)
    todo = list(range(len(jobs)))
    clock = speed.Clock()
    clock.start()
    loop_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t_pass = perf_counter()
        try:
            for i in todo:
                entry = entries[i]
                span, rc, out, error = run_job(cli, jobs[i]["argv"])
                if not entry["count"]:
                    entry.update(rc=rc, out=out, error=error)
                elif (rc, out, error) != (entry["rc"], entry["out"], entry["error"]):
                    entry["consistent"] = False
                entry["count"] += 1
                if not traced:
                    entry["spans"].append(span)
        finally:
            if traced:
                tracer.uninstall()
        now = perf_counter()
        passes.append((traced, t_pass, now))
        if not args.trace:
            todo = [i for i in todo
                    if entries[i]["spans"][0][1] - entries[i]["spans"][0][0] <= LONG_JOB_SHARE * args.seconds]
        if len(passes) >= MIN_PASSES and (now - loop_start) + (now - t_pass) > args.seconds:
            break
    loop_end = perf_counter()
    clock.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for entry in entries:
        spans = entry.pop("spans")
        entry["times"] = [clock.reference(t0, t1) for t0, t1 in spans]
        entry["wall"] = [t1 - t0 for t0, t1 in spans]
    result = {
        "passes": [(traced, clock.reference(t0, t1), t1 - t0) for traced, t0, t1 in passes],
        "loop_s": clock.reference(loop_start, loop_end),
        "loop_wall_s": loop_end - loop_start,
        "peak_rss_kb": peak_rss_kb,
        "entries": entries,
    }
    if tracer is not None:
        traced_passes = sum(1 for t, _, _ in passes if t)
        result["per_layer"] = tracer.per_layer(traced_passes, clock.reference)
        tracer.write(os.path.join(args.dir, "spans.json"))
    with open(os.path.join(args.dir, "results.json"), "w") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # cli.main lets SARX_SEED override --seed; the jobs pass the seed explicitly
    os.environ.pop("SARX_SEED", None)
    sys.path.insert(0, os.path.abspath("src"))
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
