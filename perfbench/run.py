#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 20 --trace 0

--workload all runs read-mostly, write-churn and scan-sharded in turn,
each in its own process. Everything the build and the runs write (Go
build cache, binary, WAL images, traces) goes under .bench_build/ in
the checkout. The benchmark program's standard output is passed
through; the last line of each run is its JSON result. The exit code
is the first failing run's, or the build's if the build fails.
"""
import json
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        TMPDIR=tmp,
        GOTMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode or 1)
    args = sys.argv[1:]
    runs = [args]
    for i, a in enumerate(args[:-1]):
        if a in ("--workload", "-workload") and args[i + 1] == "all":
            with open(os.path.join(here, "workloads.json")) as f:
                names = json.load(f)["workloads"]
            runs = [args[:i + 1] + [w] + args[i + 2:] for w in names]
    code = 0
    for run_args in runs:
        ran = subprocess.run([binary, "-dir", build] + run_args, cwd=root, env=env)
        code = code or ran.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
