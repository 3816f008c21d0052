#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks, per workload:
  * a clean run is correct, with 0 failed operations;
  * a run with a seeded wrong reference (--corrupt-reference) reports the
    mismatch as a failure;
  * every deterministic count and simulated metric repeats exactly across
    two runs with the same seed, untraced and traced, and the simulated
    link time agrees between the two modes;
  * a different seed changes the operation sequence.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pull_fleet", "dissem_fanout", "policy_churn"]
FAILURES = []


def run(workload, seed, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    if trace:
        cmd += ["--trace-out", os.devnull]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    out = proc.stdout.decode().strip().splitlines()
    err = proc.stderr.decode().splitlines()
    if proc.returncode != 0 or not out:
        FAILURES.append("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, "\n".join(err[-5:])))
        return None, {}
    det = {}
    for line in err:
        if line.startswith("deterministic "):
            det = json.loads(line[len("deterministic "):])
        elif line.startswith("failure: ") and "--corrupt-reference" not in extra:
            print("     %s seed %d %s" % (workload, seed, line))
    return json.loads(out[-1]), det


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def main():
    for w in WORKLOADS:
        res, det = run(w, 5)
        if res is None:
            continue
        check(res["correct"] and res["failed"] == 0, "%s: clean run correct, 0 failed" % w)
        _, det2 = run(w, 5)
        check(det and det == det2, "%s: deterministic values repeat for one seed" % w)
        _, det_other = run(w, 6)
        check(det.get("op_digest") != det_other.get("op_digest"),
              "%s: another seed changes the op sequence" % w)
        bad, _ = run(w, 5, extra=["--corrupt-reference"])
        check(bad is not None and not bad["correct"] and bad["failed"] >= 1,
              "%s: a wrong reference is reported as a failure" % w)
        traced, tdet = run(w, 5, trace=1)
        _, tdet2 = run(w, 5, trace=1)
        check(traced is not None and traced["correct"], "%s: traced run correct" % w)
        check(tdet and tdet == tdet2, "%s: traced deterministic values repeat" % w)
        check(tdet.get("sim_link_ms_per_request") == det.get("sim_link_ms_per_request"),
              "%s: simulated link time agrees between traced and untraced runs" % w)
    if FAILURES:
        print("\n".join(FAILURES), file=sys.stderr)
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
