#!/usr/bin/env python3
"""Checks a run of wlanbench against a committed trajectory file.

    wlanbench --workload city-per --seed 1 --seconds 1 --trace 0 \\
        | scripts/bench_physics.py BENCH_pr27.json city-per 1

Reads the run's stdout on stdin and compares its seed-determined output
with the trajectory file's timed run at that workload and seed. Exits
nonzero unless they agree.

- A city run's "<workload> ..." line must agree on delivered, data_tx,
  data_failures and messages: physics, which no change to the engine's
  bookkeeping may move. The line's events and epochs count scheduler
  work, so they are not compared, and neither is the digest, which
  covers them.
- A link run's "link.*" error lines and its "digest fnv1a64=" line must
  be byte-equal: every error count there is decoder output, so any
  drift in a demapper or decoder fails.
"""
import json
import sys

CITY_FIELDS = ("delivered", "data_tx", "data_failures", "messages")


def physics(lines, workload):
    if workload == "link":
        kept = [line for line in lines
                if line.startswith(("link.", "digest fnv1a64="))]
        return kept or None
    for line in lines:
        words = line.split()
        if words and words[0] == workload:
            pairs = dict(w.split("=", 1) for w in words[1:] if "=" in w)
            return {f: pairs.get(f) for f in CITY_FIELDS}
    return None


def summary(found):
    if isinstance(found, dict):
        return " ".join("%s=%s" % kv for kv in found.items())
    return "%d lines, %s" % (len(found), found[-1])


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
        print("bench_physics: no %s output for seed %d in %s" %
              (workload, seed, "the trajectory" if want is None else "stdin"),
              file=sys.stderr)
        return 1
    if got != want:
        if isinstance(want, list):
            diff = [(g, w) for g, w in zip(got, want) if g != w]
            detail = ("%s != %s" % diff[0] if diff else
                      "%d lines != %d lines" % (len(got), len(want)))
        else:
            detail = "%s != %s" % (got, want)
        print("bench_physics: %s seed %d drifted from %s: %s" %
              (workload, seed, path, detail), file=sys.stderr)
        return 1
    print("bench_physics: %s seed %d matches %s: %s" %
          (workload, seed, path, summary(got)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
