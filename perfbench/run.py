#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark invocation.

Run from the repository root:

    python3 perfbench/run.py --workload table1-scalapack --seed 42 --seconds 25 --trace 0

Every argument is passed to the program; see perfbench/main.go. The build and
everything the runs leave behind (Go build cache, span dumps, the cross-run
determinism record) stay under .bench_build/ at the repository root. The exit
code is non-zero, and no result line is printed, when the program cannot be
built, e.g. outside a full checkout of the repository.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    state = os.path.join(root, ".bench_build")
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the Go toolchain writes inside the checkout.
    env.update(
        GOCACHE=os.path.join(state, "gocache"),
        GOTMPDIR=os.path.join(state, "tmp"),
        GOPATH=os.path.join(state, "gopath"),
        XDG_CONFIG_HOME=os.path.join(state, "config"),
        XDG_CACHE_HOME=os.path.join(state, "cache"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(state, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2
    args = [exe] + sys.argv[1:] + ["--commit", commit(root), "--state-dir", state]
    proc = subprocess.Popen(args, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def commit(root):
    """The checkout's commit when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
