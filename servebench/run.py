#!/usr/bin/env python3
"""Build the served-path benchmark and run one workload (or all of them).

    python3 servebench/run.py --workload stock_keyed --seed 1 --seconds 10 --trace 0

Builds the `servebench` package in release mode (offline; it depends on the
repository's crates by path), then runs `servebench` for `--trace 0` (the
end-to-end metrics, system allocator) or `servebench_traced` for `--trace 1`
(the per-layer ledger, counting allocator). The binary's output is passed
through: metric lines, then one JSON result line last.

`--workload all` runs every workload in its own process (peak RSS is
per process) and ends with one combined JSON line whose metric names are
prefixed with the workload name.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stock_keyed", "alarm_100q", "weblog_disordered"]


def build():
    """Builds both binaries; returns {name: path}. Exits on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write("run.py: cargo build failed (exit %d)\n" % proc.returncode)
        sys.exit(proc.returncode or 1)
    exes = {}
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    for name in ("servebench", "servebench_traced"):
        if name not in exes:
            sys.stderr.write("run.py: cargo built no %s binary\n" % name)
            sys.exit(1)
    return exes


def option(argv, flag):
    """The value after `flag` in argv, or None."""
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    trace = option(argv, "--trace") or "0"
    if trace not in ("0", "1"):
        sys.stderr.write("run.py: --trace must be 0 or 1, got %r\n" % trace)
        return 2
    exes = build()
    exe = exes["servebench_traced" if trace == "1" else "servebench"]
    if option(argv, "--workload") != "all":
        return subprocess.run([exe] + argv).returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        args = list(argv)
        args[args.index("all")] = workload
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join("%s %s\n" % (workload, l) for l in lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
