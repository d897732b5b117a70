#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The program is built with dune into
.bench_build/ (no shared dune cache).  With --workload all every workload
in BENCHMARK.json runs in its own process, one after the other, and the
last line is one JSON result whose metrics are named <workload>.<metric>.
A failed build exits 2 without printing a result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "servebench", "main.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--display", "quiet", "-j", "2", "./servebench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"servebench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_one(args):
    """Run one workload, echoing its output; return (exit code, result)."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        if line.strip():
            last = line
    code = proc.wait()
    try:
        return code, json.loads(last)
    except ValueError:
        return code or 1, None


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rest = [a for i, a in enumerate(args)
            if a != "--workload" and (i == 0 or args[i - 1] != "--workload")]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, res = run_one(["--workload", name] + rest)
        worst = max(worst, code)
        if res is None:
            print(f"servebench: {name} printed no result", file=sys.stderr)
            return 1
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return worst


def main():
    args = sys.argv[1:]
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        return run_all(args)
    return run_one(args)[0]


if __name__ == "__main__":
    sys.exit(main())
