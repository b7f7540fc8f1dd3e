#!/usr/bin/env python3
"""Plan-server benchmark entry point.

    python3 planbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the `paradigm` server
and the load generator with dune, then runs the load generator, which
spawns `paradigm serve`, drives it and prints the result object as its
last stdout line.  See planbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["exact-hits", "cold-shapes", "param-drift", "big-machine"]
SOURCES = ["dune-project", "bin/paradigm.ml", "lib/server/daemon.ml", "planbench/dune"]
SERVER = "_build/default/bin/paradigm.exe"
LOADGEN = "_build/default/planbench/planbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"planbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail(f"not a source checkout (missing {', '.join(missing)}); run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # With dune's shared cache off, the build writes only under _build/.
    done = subprocess.run(
        [dune, "build", "--display", "quiet", "./bin/paradigm.exe", "./planbench/planbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if done.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    cmd = [
        LOADGEN,
        "--server", SERVER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Its own process group holds the load generator and the server it
    # spawns, so a run that overstays is stopped whole.  Both run on one
    # CPU (the affinity mask is inherited): on a shared virtual machine
    # a request handed between two virtual CPUs waits whenever the host
    # has descheduled the idle one, and that wait, not the program, set
    # most of the run-to-run spread.
    cpu = {max(os.sched_getaffinity(0))}
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpu),
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"load generator did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"load generator exited with code {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
