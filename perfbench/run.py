#!/usr/bin/env python3
"""Build and run the benchmark (see README.md).

    python3 perfbench/run.py --workload pagerank-wiki --seed 1 --seconds 10 --trace 0

Builds the Go program in this directory against the checkout it sits in,
with every Go cache and temporary file under .bench_build/ at the root of
the checkout, then runs it from that root with the given arguments and
exits with its exit code.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
binary = os.path.join(build, "perfbench", "perfbench")

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOMODCACHE=os.path.join(build, "gomodcache"),
    GOTMPDIR=os.path.join(build, "tmp"),
    GOTOOLCHAIN="local",
    GOFLAGS="",
    GOWORK="off",
)
for d in (env["GOTMPDIR"], os.path.dirname(binary)):
    os.makedirs(d, exist_ok=True)

built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(built.returncode or 1)
sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode)
