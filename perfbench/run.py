#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Every flag is passed to the benchmark binary (see main.go). The Go build
cache, module cache, temporary files and binary live under
$CARGO_TARGET_DIR, or .bench_build in the repository root when it is
unset, so nothing is written outside the checkout. The build never
touches the network.

Right before and right after the binary runs, a fixed pure-Python spin
loop is timed, and both times go into the binary's report line as
"host_probe_s". The host's own speed can change by up to 2x over
seconds to minutes; the probe lets a reader (and steady.py) tell such a
change from a change in the program.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PROBE_ITERATIONS = 12_000_000  # about 1 s


def probe():
    """Return the seconds a fixed spin loop takes: the host's speed."""
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i
    return time.perf_counter() - t


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build) if not os.path.isabs(build) else build
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    before = probe()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    after = probe()
    for line in proc.stdout.splitlines():
        if line.startswith('{"report":'):
            rep = json.loads(line)
            rep["report"]["host_probe_s"] = {"before": before, "after": after}
            line = json.dumps(rep, separators=(",", ":"))
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
