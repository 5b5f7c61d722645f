#!/usr/bin/env python3
"""Run one serving-benchmark workload from the repository root.

    python3 perfbench/run.py --workload parity-ingest --seed 1 --seconds 30 --trace 0

Builds the daemon (bin/dynfo_cli) and the load generator (perfbench/perfbench.ml)
from source with dune, then runs the load generator, which spawns the daemon,
drives it and prints the result; its last stdout line is the JSON result.
Sockets, snapshots and traces go to perfbench/out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

OUT = os.path.join("perfbench", "out")
SOURCES = ("bin", "lib", "perfbench")


def tree_hash():
    """Hash of the sources the run was built from (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in SOURCES:
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="flip one served answer; succeed only if it is counted as failed")
    a = ap.parse_args()
    for need in ("dune-project", os.path.join("bin", "dynfo_cli.ml"), "lib"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/dynfo_cli.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    provenance = (f"commit={commit()} tree={tree_hash()} nproc={len(cpus)}")
    cmd = [os.path.join("_build", "default", "perfbench", "perfbench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--daemon", os.path.join("_build", "default", "bin", "dynfo_cli.exe"),
           "--out", OUT, "--provenance", provenance]
    if a.self_test:
        cmd.append("--self-test")
    pin = len(cpus) >= 2 and shutil.which("taskset") is not None
    if pin:
        # the daemon on the first CPU, the load generator on the others, so
        # the scheduler does not move them onto one CPU in mid-run
        cmd += ["--daemon-cpu", str(cpus[0])]
    proc = subprocess.Popen(
        cmd, preexec_fn=(lambda: os.sched_setaffinity(0, cpus[1:])) if pin else None)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the load generator stop the daemons it spawned
        proc.terminate()
        proc.wait()
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
