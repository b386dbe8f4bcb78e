#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload zipf-paged --seed 1 --seconds 20 --trace 0

The Go build cache and the binary go to .bench_build/ under the working
directory, so nothing is written outside the checkout. Arguments are
passed to the benchmark unchanged. A failed build exits non-zero without
printing a result.
"""

import os
import shutil
import subprocess
import sys


def revision(root):
    """The checkout's git revision, suffixed +modified when the tree is
    dirty, or "unknown" when the checkout is not a repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                               capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() + ("+modified" if dirty.stdout.strip() else "")


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    src = os.path.join(root, "perfbench")
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    # VCS stamping is off: a checkout need not be a repository. The
    # revision, when there is one, reaches the run record through the
    # environment instead.
    build = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    env["PERFBENCH_COMMIT"] = revision(root)
    # Replace this process so the benchmark's exit code and output are
    # the run's own.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
