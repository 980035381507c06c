"""Self-test of the benchmark harness.

  python3 bench/selftest.py

Run from the repository root; takes a few minutes.  For each workload it
makes a traced run, an untraced run, and an untraced run with a stray
SARX_SEED in the environment, then checks:

- every run is correct (all outputs pass the oracle);
- the three runs print the same outputs digest: tracing changes no output,
  and SARX_SEED does not reach the jobs;
- the groebner counters are nonzero on region and zero on screen and iso;
- lss.unobservable_space_s is nonzero on screen;
- lss.find_isomorphisms_s is nonzero on iso only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 1
# each workload then runs its fewest passes
SECONDS = 1

GROEBNER = (
    "groebner.buchberger_calls",
    "groebner.buchberger_s",
    "groebner.normal_form_calls",
    "groebner.normal_form_s",
)


def bench(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit("%s trace %d exited %d: %s" % (workload, trace, proc.returncode, proc.stderr[-1000:]))
    lines = proc.stdout.splitlines()
    digest = next(line.split("=")[1].strip() for line in lines if line.startswith("outputs_sha256"))
    return json.loads(lines[-1]), digest


def main():
    stray = dict(os.environ, SARX_SEED="987654")
    problems = []
    for workload in ("region", "screen", "iso"):
        traced, d_traced = bench(workload, 1)
        plain, d_plain = bench(workload, 0)
        _, d_stray = bench(workload, 0, env=stray)
        for name, res in (("traced", traced), ("untraced", plain)):
            if not res["correct"] or res["failed"]:
                problems.append("%s %s run is not correct" % (workload, name))
        if len({d_traced, d_plain, d_stray}) != 1:
            problems.append("%s: outputs differ between traced, untraced and SARX_SEED runs" % workload)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        expect = {name: workload == "region" for name in GROEBNER}
        expect["lss.find_isomorphisms_s"] = workload == "iso"
        if workload == "screen":
            expect["lss.unobservable_space_s"] = True
        for name, nonzero in expect.items():
            if bool(layer[name]) != nonzero:
                problems.append("%s: %s is %r, expected %s" % (
                    workload, name, layer[name], "nonzero" if nonzero else "zero"))
        print("%s: checked (overhead ratio %.3f)" % (workload, layer["trace.overhead_ratio"]))
    for p in problems:
        print("FAILED", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
