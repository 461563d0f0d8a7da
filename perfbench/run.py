#!/usr/bin/env python3
"""Build the serving benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload uplink-16qam --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload city-monitored --trace 1 --out records.json
    python3 perfbench/run.py -compare base.json change.json

Run from the checkout root. Every argument goes to the perfbench binary.
The Go build cache, the binary and any temporary files stay under
.bench_build/ at the checkout root; the build never touches the network.
After a successful build this process becomes the benchmark (exec), so
its exit code is the benchmark's; a failed build exits 2.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOMODCACHE": os.path.join(build, "go-path", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": build,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
