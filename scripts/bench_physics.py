#!/usr/bin/env python3
"""Checks a city run of wlanbench against a committed trajectory file.

    wlanbench --workload city-per --seed 1 --seconds 1 --trace 0 \\
        | scripts/bench_physics.py BENCH_pr26.json city-per 1

Reads the run's stdout on stdin and takes its "<workload> ..." line, and
the same line of the trajectory file's timed run at that workload and
seed. Exits nonzero unless the two agree on delivered, data_tx,
data_failures and messages: seed-determined physics, which no change to
the engine's bookkeeping may move. The line's events and epochs count
scheduler work, so they are not compared.
"""
import json
import sys

FIELDS = ("delivered", "data_tx", "data_failures", "messages")


def physics(lines, workload):
    for line in lines:
        words = line.split()
        if words and words[0] == workload:
            pairs = dict(w.split("=", 1) for w in words[1:] if "=" in w)
            return {f: pairs.get(f) for f in FIELDS}
    return None


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    path, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    with open(path) as f:
        runs = json.load(f)["runs"]
    want = None
    for run in runs:
        if (run["workload"], run["seed"], run["trace"]) == (workload, seed, 0):
            want = physics(run["lines"], workload)
    got = physics(sys.stdin.read().splitlines(), workload)
    if want is None or got is None:
        print("bench_physics: no %s line for seed %d in %s" %
              (workload, seed, "the trajectory" if want is None else "stdin"),
              file=sys.stderr)
        return 1
    if got != want:
        print("bench_physics: %s seed %d drifted from %s: %s != %s" %
              (workload, seed, path, got, want), file=sys.stderr)
        return 1
    print("bench_physics: %s seed %d matches %s: %s" %
          (workload, seed, path, " ".join("%s=%s" % kv for kv in got.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
