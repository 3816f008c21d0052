#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pull_fleet --seed 1 --seconds 8 --trace 0

Builds perfbench/main.exe with dune (only the libraries it links), then
runs it with the given arguments. The benchmark's JSON result is the last
line of standard output; build logs and diagnostics go to standard error.
With --trace 1 the bench-side spans are written as a Chrome trace to
perfbench/out/trace-<workload>-<seed>.json (open it in Perfetto).
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a checkout of the repository (missing %s)" % needed)
    dune = find_dune()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def arg_value(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build()
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        name = "trace-%s-%s.json" % (arg_value(args, "--workload"), arg_value(args, "--seed"))
        args = args + ["--trace-out", os.path.join(out, name)]
    proc = subprocess.Popen([EXE] + args, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
