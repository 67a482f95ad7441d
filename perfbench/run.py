#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload sim-single --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
repository's packages through a replace directive, so it builds only in
a checkout of the whole repository. Build outputs, the Go build cache
and the fleets' socket directories all stay under .bench_build/ at the
root; nothing is read or written outside the checkout. The last line of
standard output is the run's JSON result; the exit code is non-zero when
the build fails or a correctness or health check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; the benchmark builds the "
              "repository's own packages and needs the whole checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
    })
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Fleets bind their Unix sockets under TMPDIR; a path relative to
    # the root keeps them inside the checkout and well below the
    # socket-path length limit however deep the checkout sits.
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
