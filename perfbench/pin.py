#!/usr/bin/env python3
"""Regenerate the pinned checkpoint digests in perfbench/digests.txt.

    python3 perfbench/pin.py --seeds 0-99 [--workload NAME ...]

Runs the driver in --check-only mode (set-up, warm-up and the first
measure chunks) for every (workload, seed) and records the digest of
the simulated state at that checkpoint. Regenerate only for a change
that is meant to alter the simulated model; a change that only makes
the simulator faster must reproduce every pinned digest.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HEADER = """\
# Checkpoint digests pinned per (workload, seed): the FNV digest of every
# simulated observable after the warm-up and the first measure chunks.
# run.py marks a run incorrect when its checkpoint digest differs.
# Regenerate only for an intended model change:
#   python3 perfbench/pin.py --seeds 0-99
# workload seed digest
"""


def seed_range(text):
    lo, sep, hi = text.partition("-")
    if not lo.isdigit() or (sep and not hi.isdigit()):
        raise argparse.ArgumentTypeError("expected N or N-M: %r" % text)
    lo = int(lo)
    hi = int(hi) if sep else lo
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range: %r" % text)
    return range(lo, hi + 1)


def main(argv):
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--seeds", required=True, type=seed_range)
    p.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = p.parse_args(argv)

    exe = run.build()
    pins = run.pinned_digests()
    for w in args.workload or run.WORKLOADS:
        for seed in args.seeds:
            r = subprocess.run([exe, "--workload", w, "--seed", str(seed),
                                "--check-only"], capture_output=True,
                               text=True, timeout=170)
            if r.returncode != 0:
                run.fail("check run failed: %s seed %d\n%s" %
                         (w, seed, r.stderr))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            pins[(w, seed)] = res["check_digest"]
            print(w, seed, res["check_digest"], flush=True)

    with open(os.path.join(run.HERE, "digests.txt"), "w") as fh:
        fh.write(HEADER)
        for w in run.WORKLOADS:
            for (pw, seed), digest in sorted(pins.items()):
                if pw == w:
                    fh.write("%s %d %s\n" % (w, seed, digest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
